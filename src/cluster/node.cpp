#include "apar/cluster/node.hpp"

#include <chrono>

#include "apar/cluster/cluster.hpp"
#include "apar/common/log.hpp"
#include "apar/obs/metrics.hpp"

namespace apar::cluster {

Node::Node(Cluster& cluster, NodeId id, const rpc::Registry& registry,
           std::size_t executors)
    : cluster_(cluster),
      id_(id),
      dispatcher_(registry, "node " + std::to_string(id)) {
  if (executors == 0) executors = 1;
  mailbox_.enable_metrics("node" + std::to_string(id_) + ".mailbox");
  auto& reg = obs::MetricsRegistry::global();
  const obs::Labels labels{{"node", std::to_string(id_)}};
  handle_us_ = reg.histogram("node.handle_us", labels);
  handled_ = reg.counter("node.handled", labels);
  executors_.reserve(executors);
  for (std::size_t i = 0; i < executors; ++i)
    executors_.emplace_back([this] { executor_loop(); });
}

Node::~Node() { shutdown(); }

bool Node::deliver(Message msg) { return mailbox_.push(std::move(msg)); }

std::size_t Node::object_count() const { return dispatcher_.object_count(); }

std::shared_ptr<void> Node::object(ObjectId id) const {
  return dispatcher_.object(id);
}

void Node::shutdown() {
  if (stopped_.exchange(true)) return;
  mailbox_.close();
  for (auto& t : executors_) t.join();
  executors_.clear();
}

void Node::crash() {
  crashed_.store(true, std::memory_order_relaxed);
  if (stopped_.exchange(true)) return;
  auto dropped = mailbox_.close_now();
  for (auto& t : executors_) t.join();
  executors_.clear();
  // Fail every request that was still queued; silence would deadlock
  // waiting clients and Cluster::drain().
  for (auto& msg : dropped) {
    if (msg.reply_to) {
      Reply reply;
      reply.error = "node " + std::to_string(id_) + " crashed";
      msg.reply_to->set_value(std::move(reply));
    } else {
      cluster_.one_way_finished("node " + std::to_string(id_) + " crashed");
    }
  }
}

void Node::executor_loop() {
  while (auto msg = mailbox_.pop()) {
    charge_us(msg->deliver_cost_us);
    handle(*msg);
  }
}

void Node::handle(Message& msg) {
  const bool timed = obs::metrics_enabled();
  std::chrono::steady_clock::time_point started{};
  if (timed) started = std::chrono::steady_clock::now();
  try {
    if (msg.kind == Message::Kind::kCreate) {
      handle_create(msg);
    } else {
      handle_call(msg);
    }
  } catch (const std::exception& e) {
    APAR_DEBUG("cluster") << "node " << id_ << " request failed: "
                          << e.what();
    if (msg.reply_to) {
      Reply reply;
      reply.error = e.what();
      msg.reply_to->set_value(std::move(reply));
    } else {
      cluster_.one_way_finished(e.what());
    }
  }
  if (timed) {
    handle_us_->record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - started)
                           .count() /
                       1000.0);
    handled_->add();
  }
}

void Node::handle_create(Message& msg) {
  serial::Reader in(msg.payload, msg.format);
  Reply reply;
  reply.object = dispatcher_.create(msg.class_name, in);
  msg.reply_to->set_value(std::move(reply));
}

void Node::handle_call(Message& msg) {
  serial::Reader in(msg.payload, msg.format);
  auto out = dispatcher_.call(msg.object, msg.method, in, msg.format);

  if (msg.reply_to) {
    Reply reply;
    // A node that crashed while this call was executing never gets to send
    // its reply: the caller sees an error, not the (lost) result. The
    // one-way path below stays a success — the side effect did happen —
    // which models exactly the at-most-once ambiguity a real crash causes.
    if (crashed_.load(std::memory_order_relaxed)) {
      reply.error = "node " + std::to_string(id_) + " crashed during call";
    } else {
      reply.payload = std::move(out);
    }
    msg.reply_to->set_value(std::move(reply));
  } else {
    cluster_.one_way_finished();
  }
}

}  // namespace apar::cluster
