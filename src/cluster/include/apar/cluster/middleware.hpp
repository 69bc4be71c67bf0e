#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "apar/cluster/cluster.hpp"
#include "apar/cluster/cost_model.hpp"
#include "apar/cluster/ids.hpp"
#include "apar/obs/counters.hpp"
#include "apar/serial/archive.hpp"

namespace apar::cluster {

/// Traffic counters, maintained by every middleware implementation and
/// exported as middleware.<field>{middleware}. Every implementation
/// accounts BOTH directions at the same seam: the marshalled request
/// payload it puts on the (simulated or real) wire goes into bytes_sent,
/// and whatever payload comes back — a sync reply, a degraded one-way's
/// echoed reply, or a transport ack — into bytes_received.
/// tests/cluster/test_middleware_stats.cpp asserts this parity for every
/// shipped implementation.
#define APAR_MIDDLEWARE_STATS_FIELDS(X) \
  X(creates) X(sync_calls) X(one_way_calls) X(bytes_sent) X(bytes_received) \
  X(lookups)
APAR_OBS_COUNTER_SET(MiddlewareStats, APAR_MIDDLEWARE_STATS_FIELDS);

/// Client-side middleware interface — the seam that lets the distribution
/// aspect "switch among underlying middleware implementations ... such as
/// CORBA, Java RMI and MPI" (paper §4.3) without touching partition or
/// concurrency code.
class Middleware {
 public:
  virtual ~Middleware() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual serial::Format wire_format() const = 0;
  /// True if void calls may be sent without waiting for a reply.
  [[nodiscard]] virtual bool supports_one_way() const = 0;

  /// Create an instance of a registered class on `node` from marshalled
  /// constructor arguments; blocks until the object exists.
  virtual RemoteHandle create(NodeId node, std::string_view class_name,
                              std::vector<std::byte> ctor_args) = 0;

  /// Synchronous request/reply call. The reply payload carries the
  /// copy-restored (possibly mutated) arguments followed by the result.
  virtual std::vector<std::byte> invoke(const RemoteHandle& target,
                                        std::string_view method,
                                        std::vector<std::byte> args) = 0;

  /// Fire-and-forget call; completion is observable via Cluster::drain().
  /// Middlewares without one-way support degrade to invoke().
  virtual void invoke_one_way(const RemoteHandle& target,
                              std::string_view method,
                              std::vector<std::byte> args) = 0;

  /// Charged name-server lookup (the RMI registry round-trip).
  virtual std::optional<RemoteHandle> lookup(std::string_view name) = 0;

  [[nodiscard]] virtual const MiddlewareStats& stats() const = 0;
  [[nodiscard]] virtual const CostModel& costs() const = 0;

  /// True when calls leave the process over a real wire (sockets). For
  /// wire transports, argument serializability is a hard requirement, not
  /// a simulation convenience — the weave-plan analysis escalates
  /// unserializable-argument hazards from warning to error when the advice
  /// targets such a middleware. Decorators delegate to their inner
  /// middleware; hybrids answer true if either backend does.
  [[nodiscard]] virtual bool wire_transport() const { return false; }

  /// Which middleware actually carries calls to `method` ("new" for
  /// creations). Plain middlewares return themselves; a hybrid returns one
  /// of its backends. Callers must encode arguments with the ROUTED
  /// middleware's wire format.
  [[nodiscard]] virtual Middleware& route_for(std::string_view method) {
    (void)method;
    return *this;
  }
};

/// Shared implementation over the simulated Cluster; concrete middlewares
/// differ only in cost model, wire format and one-way capability.
class SimMiddleware : public Middleware {
 public:
  SimMiddleware(Cluster& cluster, CostModel costs, serial::Format format,
                bool one_way, std::string_view name)
      : cluster_(cluster),
        costs_(costs),
        format_(format),
        one_way_(one_way),
        name_(name) {
    stats_.export_as("middleware", {{"middleware", std::string(name_)}});
  }

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] serial::Format wire_format() const override { return format_; }
  [[nodiscard]] bool supports_one_way() const override { return one_way_; }

  RemoteHandle create(NodeId node, std::string_view class_name,
                      std::vector<std::byte> ctor_args) override;
  std::vector<std::byte> invoke(const RemoteHandle& target,
                                std::string_view method,
                                std::vector<std::byte> args) override;
  void invoke_one_way(const RemoteHandle& target, std::string_view method,
                      std::vector<std::byte> args) override;
  std::optional<RemoteHandle> lookup(std::string_view name) override;

  [[nodiscard]] const MiddlewareStats& stats() const override {
    return stats_;
  }
  [[nodiscard]] const CostModel& costs() const override { return costs_; }

  [[nodiscard]] Cluster& cluster() { return cluster_; }

 private:
  Reply send_and_wait(Message msg);

  /// Feed per-method invoke latency and request-payload-size histograms
  /// into the global registry, labelled {"middleware": name, "method":
  /// method} ("new" for creations). Only called for calls that started
  /// with obs::metrics_enabled().
  void record_call_metrics(std::string_view method,
                           std::chrono::steady_clock::time_point started,
                           std::size_t payload_bytes);

  /// The client machine's network link is a shared serial resource: every
  /// request and reply byte crosses it, one message at a time. This is
  /// what keeps a client-woven pipeline from scaling (paper §6: "each
  /// message must cross all pipeline elements") — latency overlaps across
  /// threads, but link occupancy does not.
  void charge_client_link(std::size_t bytes);

  /// Per-call client-side setup: connection handshake plus request
  /// marshalling, also serialized on the client (it is CPU + link work).
  void charge_client_setup(std::size_t bytes);

  std::mutex link_mutex_;
  Cluster& cluster_;
  CostModel costs_;
  serial::Format format_;
  bool one_way_;
  std::string_view name_;
  MiddlewareStats stats_;
};

/// Java-RMI-like middleware: per-call handshake, verbose self-describing
/// marshalling, registry lookups, strictly synchronous request/reply.
class RmiMiddleware final : public SimMiddleware {
 public:
  explicit RmiMiddleware(Cluster& cluster, CostModel costs = CostModel::rmi())
      : SimMiddleware(cluster, costs, serial::Format::kVerbose,
                      /*one_way=*/false, "RMI") {}
};

/// MPP-like middleware (java.nio message passing): persistent channels,
/// compact frames, one-way sends.
class MppMiddleware final : public SimMiddleware {
 public:
  explicit MppMiddleware(Cluster& cluster, CostModel costs = CostModel::mpp())
      : SimMiddleware(cluster, costs, serial::Format::kCompact,
                      /*one_way=*/true, "MPP") {}
};

/// Hybrid middleware (paper §5.3: "it is also possible to develop a hybrid
/// implementation, using MPP and RMI ... using MPI for performance
/// critical parts, and Java RMI in the remainder parts").
///
/// Calls to the registered fast-path methods travel over `fast` (MPP);
/// everything else — creations, result gathering, control traffic — over
/// `control` (RMI). Both backends keep their own statistics.
class HybridMiddleware final : public Middleware {
 public:
  HybridMiddleware(Middleware& control, Middleware& fast,
                   std::vector<std::string> fast_methods)
      : control_(control), fast_(fast) {
    auto set = std::make_shared<MethodSet>();
    for (auto& m : fast_methods) set->insert(std::move(m));
    fast_methods_.store(std::move(set), std::memory_order_release);
    name_ = "Hybrid(" + std::string(control_.name()) + "+" +
            std::string(fast_.name()) + ")";
  }

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] serial::Format wire_format() const override {
    return control_.wire_format();
  }
  [[nodiscard]] bool supports_one_way() const override {
    return control_.supports_one_way();
  }

  Middleware& route_for(std::string_view method) override {
    const auto set = fast_methods_.load(std::memory_order_acquire);
    return set->count(method) != 0 ? fast_ : control_;
  }

  // --- runtime routing control (the AdaptationAspect's knob) -------------
  // The method set is copy-on-write behind an atomic shared_ptr: route_for
  // (the per-call hot path) is one acquire load + a set lookup, identical
  // in cost to the former immutable set, while promote/demote swap in a
  // fresh copy — calls in flight finish against the set they loaded.

  /// Replace the fast-path method set wholesale.
  void set_fast_methods(std::vector<std::string> fast_methods) {
    auto set = std::make_shared<MethodSet>();
    for (auto& m : fast_methods) set->insert(std::move(m));
    fast_methods_.store(std::move(set), std::memory_order_release);
  }
  /// Route `method` onto the fast path from the next call on.
  void promote(std::string_view method) {
    auto set = std::make_shared<MethodSet>(
        *fast_methods_.load(std::memory_order_acquire));
    set->insert(std::string(method));
    fast_methods_.store(std::move(set), std::memory_order_release);
  }
  /// Route `method` back through the control plane from the next call on.
  void demote(std::string_view method) {
    auto set = std::make_shared<MethodSet>(
        *fast_methods_.load(std::memory_order_acquire));
    if (auto it = set->find(method); it != set->end()) set->erase(it);
    fast_methods_.store(std::move(set), std::memory_order_release);
  }
  [[nodiscard]] bool is_fast(std::string_view method) const {
    return fast_methods_.load(std::memory_order_acquire)->count(method) != 0;
  }

  RemoteHandle create(NodeId node, std::string_view class_name,
                      std::vector<std::byte> ctor_args) override {
    return control_.create(node, class_name, std::move(ctor_args));
  }
  std::vector<std::byte> invoke(const RemoteHandle& target,
                                std::string_view method,
                                std::vector<std::byte> args) override {
    return route_for(method).invoke(target, method, std::move(args));
  }
  void invoke_one_way(const RemoteHandle& target, std::string_view method,
                      std::vector<std::byte> args) override {
    route_for(method).invoke_one_way(target, method, std::move(args));
  }
  std::optional<RemoteHandle> lookup(std::string_view name) override {
    return control_.lookup(name);
  }

  /// Aggregated view over BOTH backends. Reporting only the control side
  /// silently undercounts hybrid traffic — the fast path is where the bulk
  /// of the bytes go. Snapshot-based, so a counter added to the field list
  /// is aggregated too. Not exported: the backends already are.
  /// Per-backend breakdowns remain available through control().stats() /
  /// fast().stats().
  [[nodiscard]] const MiddlewareStats& stats() const override {
    agg_stats_.store(control_.stats().snapshot() + fast_.stats().snapshot());
    return agg_stats_;
  }
  [[nodiscard]] const CostModel& costs() const override {
    return control_.costs();
  }
  [[nodiscard]] bool wire_transport() const override {
    return control_.wire_transport() || fast_.wire_transport();
  }

  [[nodiscard]] Middleware& control() { return control_; }
  [[nodiscard]] Middleware& fast() { return fast_; }

 private:
  using MethodSet = std::set<std::string, std::less<>>;

  Middleware& control_;
  Middleware& fast_;
  std::atomic<std::shared_ptr<const MethodSet>> fast_methods_;
  std::string name_;
  /// Refreshed on every stats() call from the two backends' live counters.
  mutable MiddlewareStats agg_stats_;
};

}  // namespace apar::cluster
