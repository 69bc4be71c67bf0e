#include "apar/cluster/middleware.hpp"

namespace apar::cluster {

void SimMiddleware::record_call_metrics(
    std::string_view method, std::chrono::steady_clock::time_point started,
    std::size_t payload_bytes) {
  auto& registry = obs::MetricsRegistry::global();
  const obs::Labels labels{{"method", std::string(method)},
                           {"middleware", std::string(name_)}};
  registry.histogram("middleware.invoke_us", labels)
      ->record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - started)
                   .count() /
               1000.0);
  registry
      .histogram("middleware.payload_bytes", labels,
                 obs::Histogram::bytes_bounds())
      ->record(static_cast<double>(payload_bytes));
}

void SimMiddleware::charge_client_link(std::size_t bytes) {
  const double us = costs_.per_kb_us * (static_cast<double>(bytes) / 1024.0);
  if (us <= 0.0) return;
  std::lock_guard lock(link_mutex_);
  charge_us(us);
}

void SimMiddleware::charge_client_setup(std::size_t bytes) {
  // Connection setup and marshalling are client-CPU work: they serialize
  // with each other and with link occupancy no matter how many caller
  // threads exist. This is what keeps the client-woven RMI pipeline flat
  // in Figure 17 — 16x the messages of the farm, all squeezed through one
  // client.
  const double us =
      costs_.handshake_us +
      costs_.per_kb_us * (static_cast<double>(bytes) / 1024.0);
  if (us <= 0.0) return;
  std::lock_guard lock(link_mutex_);
  charge_us(us);
}

Reply SimMiddleware::send_and_wait(Message msg) {
  auto promise = std::make_shared<concurrency::Promise<Reply>>();
  auto future = promise->future();
  msg.reply_to = promise;
  const std::size_t bytes = msg.payload.size();
  if (!cluster_.route(std::move(msg)))
    throw rpc::RpcError("destination node is shut down");
  Reply reply = future.get();
  // Reply bytes cross the client link too; latency is charged on the
  // waiting client thread (it overlaps across threads, occupancy doesn't).
  charge_client_link(reply.payload.size());
  charge_us(costs_.latency_us);
  stats_.bytes_sent.add(bytes);
  stats_.bytes_received.add(reply.payload.size());
  if (!reply.error.empty()) throw rpc::RpcError(reply.error);
  return reply;
}

RemoteHandle SimMiddleware::create(NodeId node, std::string_view class_name,
                                   std::vector<std::byte> ctor_args) {
  const bool timed = obs::metrics_enabled();
  std::chrono::steady_clock::time_point started{};
  if (timed) started = std::chrono::steady_clock::now();
  const std::size_t request_bytes = ctor_args.size();
  charge_client_setup(ctor_args.size());
  Message msg;
  msg.kind = Message::Kind::kCreate;
  msg.dst = node;
  msg.class_name = std::string(class_name);
  msg.format = format_;
  msg.deliver_cost_us = costs_.latency_us;
  msg.payload = std::move(ctor_args);
  stats_.creates.add();
  const Reply reply = send_and_wait(std::move(msg));
  if (timed) record_call_metrics("new", started, request_bytes);
  return RemoteHandle{node, reply.object};
}

std::vector<std::byte> SimMiddleware::invoke(const RemoteHandle& target,
                                             std::string_view method,
                                             std::vector<std::byte> args) {
  const bool timed = obs::metrics_enabled();
  std::chrono::steady_clock::time_point started{};
  if (timed) started = std::chrono::steady_clock::now();
  const std::size_t request_bytes = args.size();
  charge_client_setup(args.size());
  Message msg;
  msg.kind = Message::Kind::kCall;
  msg.dst = target.node;
  msg.object = target.object;
  msg.method = std::string(method);
  msg.format = format_;
  msg.deliver_cost_us = costs_.latency_us;
  msg.payload = std::move(args);
  stats_.sync_calls.add();
  auto payload = send_and_wait(std::move(msg)).payload;
  if (timed) record_call_metrics(method, started, request_bytes);
  return payload;
}

void SimMiddleware::invoke_one_way(const RemoteHandle& target,
                                   std::string_view method,
                                   std::vector<std::byte> args) {
  if (!one_way_) {
    // RMI has no fire-and-forget: degrade to a synchronous call and drop
    // the reply — exactly what a void remote method does in Java RMI.
    // invoke() records the call's metrics, so no probe here.
    invoke(target, method, std::move(args));
    return;
  }
  // For a true one-way send the recorded latency is the client-side
  // hand-off (setup + routing), not a round trip.
  const bool timed = obs::metrics_enabled();
  std::chrono::steady_clock::time_point started{};
  if (timed) started = std::chrono::steady_clock::now();
  const std::size_t request_bytes = args.size();
  charge_client_setup(args.size());
  Message msg;
  msg.kind = Message::Kind::kOneWay;
  msg.dst = target.node;
  msg.object = target.object;
  msg.method = std::string(method);
  msg.format = format_;
  msg.deliver_cost_us = costs_.latency_us;
  stats_.one_way_calls.add();
  stats_.bytes_sent.add(args.size());
  msg.payload = std::move(args);
  cluster_.one_way_started();
  if (!cluster_.route(std::move(msg))) {
    // Record the failure; it surfaces (and rethrows) at the next drain(),
    // like any other asynchronous one-way error.
    cluster_.one_way_finished("destination node is shut down");
  }
  if (timed) record_call_metrics(method, started, request_bytes);
}

std::optional<RemoteHandle> SimMiddleware::lookup(std::string_view name) {
  charge_us(costs_.lookup_us);
  stats_.lookups.add();
  return cluster_.name_server().lookup(name);
}

}  // namespace apar::cluster
