#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "apar/cluster/dispatcher.hpp"
#include "apar/cluster/ids.hpp"
#include "apar/cluster/message.hpp"
#include "apar/cluster/rpc.hpp"
#include "apar/concurrency/work_queue.hpp"

namespace apar::obs {
class Counter;
class Histogram;
}  // namespace apar::obs

namespace apar::cluster {

class Cluster;

/// One simulated compute node: a mailbox, a small executor pool (default 4,
/// matching the paper's dual-Xeon-with-HyperThreading machines), and a
/// Dispatcher holding remotely created instances.
///
/// Executors charge each message's wire cost before handing it to the
/// shared transport-agnostic Dispatcher, which takes a per-object monitor
/// during execution — mirroring the paper's MPP server loop (Figure 15),
/// which serves each object from a single receive loop and therefore never
/// runs two calls on one object concurrently. net::TcpServer drives the
/// same Dispatcher from real socket connections.
class Node {
 public:
  Node(Cluster& cluster, NodeId id, const rpc::Registry& registry,
       std::size_t executors);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }

  /// Enqueue a message for this node. Returns false if the node stopped.
  bool deliver(Message msg);

  /// Number of objects in the table (diagnostic).
  [[nodiscard]] std::size_t object_count() const;

  /// Direct access to a hosted object (test/diagnostic use; the object
  /// stays owned by the node).
  [[nodiscard]] std::shared_ptr<void> object(ObjectId id) const;

  /// Stop accepting messages and join executors (drains the mailbox).
  void shutdown();

  /// Crash the node: queued requests are dropped with an error reply (or a
  /// one-way failure recorded with the cluster), executors stop, and
  /// further deliveries are refused. Used by the fault-injection tests and
  /// the failover aspect's scenarios.
  void crash();

  [[nodiscard]] bool crashed() const {
    return crashed_.load(std::memory_order_relaxed);
  }

  // --- statistics ---------------------------------------------------------
  [[nodiscard]] std::uint64_t executed_calls() const {
    return dispatcher_.executed_calls();
  }

  /// The shared request-dispatch path (object table + per-object monitors).
  [[nodiscard]] Dispatcher& dispatcher() { return dispatcher_; }

 private:
  void executor_loop();
  void handle(Message& msg);
  void handle_create(Message& msg);
  void handle_call(Message& msg);

  Cluster& cluster_;
  NodeId id_;
  Dispatcher dispatcher_;

  concurrency::WorkQueue<Message> mailbox_;
  std::vector<std::thread> executors_;

  std::atomic<bool> stopped_{false};
  std::atomic<bool> crashed_{false};

  // node.handle_us{node} and, beside it, its count node.handled{node}
  // record only while obs::metrics_enabled(), like the mailbox's
  // throughput series ("node<N>.mailbox").
  std::shared_ptr<obs::Histogram> handle_us_;
  std::shared_ptr<obs::Counter> handled_;
};

}  // namespace apar::cluster
