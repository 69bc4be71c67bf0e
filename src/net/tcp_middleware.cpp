#include "apar/net/tcp_middleware.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "apar/cluster/rpc.hpp"
#include "apar/net/error.hpp"
#include "apar/obs/metrics.hpp"
#include "apar/obs/trace_context.hpp"
#include "apar/obs/tracer.hpp"

namespace apar::net {

namespace {

/// Stack buffer a reply is first read into: small replies arrive whole,
/// larger ones continue straight into their payload.
constexpr std::size_t kReplyReadSize = 4096;

constexpr std::string_view kName = "TCP";
/// How long a dial may take.
constexpr auto kConnectDeadline = std::chrono::milliseconds(2000);
/// A lookup whose exchange failed is retried this often, after a backoff
/// that starts at kBackoffInitial and doubles up to kBackoffMax.
constexpr std::size_t kMaxLookupRetries = 3;
constexpr auto kBackoffInitial = std::chrono::milliseconds(10);
constexpr auto kBackoffMax = std::chrono::milliseconds(500);

}  // namespace

TcpMiddleware::TcpMiddleware(Options options)
    : options_(std::move(options)) {
  if (options_.endpoints.empty())
    throw NetError(NetError::Kind::kConnect,
                   "TcpMiddleware needs at least one endpoint");
  per_endpoint_ = std::make_unique<PerEndpoint[]>(options_.endpoints.size());
  auto& reg = obs::MetricsRegistry::global();
  for (std::size_t i = 0; i < options_.endpoints.size(); ++i) {
    const obs::Labels labels{{"endpoint", options_.endpoints[i].str()}};
    per_endpoint_[i].net.export_as("net", labels);
    per_endpoint_[i].rtt_us = reg.histogram("net.rtt_us", labels);
  }
  stats_.export_as("middleware", {{"middleware", std::string(kName)}});
}

std::string_view TcpMiddleware::name() const { return kName; }

TcpMiddleware::NetCounters TcpMiddleware::net_counters() const {
  NetCounters sum;
  for (std::size_t i = 0; i < options_.endpoints.size(); ++i)
    sum += per_endpoint_[i].net.snapshot();
  return sum;
}

const Endpoint& TcpMiddleware::endpoint_for(cluster::NodeId node) const {
  if (node >= options_.endpoints.size())
    throw NetError(NetError::Kind::kConnect,
                   "no endpoint for node " + std::to_string(node) + " (" +
                       std::to_string(options_.endpoints.size()) +
                       " endpoints configured)");
  return options_.endpoints[node];
}

Frame TcpMiddleware::roundtrip(std::size_t endpoint_index, FrameHeader::Op op,
                               std::vector<std::byte> payload) {
  if (!obs::tracing_enabled())
    return exchange(endpoint_index, op, std::move(payload), 0);

  // Wire span: a child of whatever the calling thread is doing, shipped in
  // the frame trailer so the server-side span parents to it. The span
  // always closes — kExit on a reply (even kReplyError: the wire worked),
  // kError when the transport itself failed.
  const obs::TraceContext wire_ctx =
      obs::TraceContext::child_of(obs::current_context());
  append_trace_context(payload, wire_ctx);
  const std::string sig = "net." + std::string(op_name(op));
  auto& tracer = *obs::Tracer::global();
  tracer.record({std::chrono::steady_clock::now(),
                 std::this_thread::get_id(), sig, nullptr,
                 obs::TraceEvent::Phase::kEnter, wire_ctx});
  try {
    Frame ex = exchange(endpoint_index, op, std::move(payload),
                        FrameHeader::kFlagTraceContext);
    tracer.record({std::chrono::steady_clock::now(),
                   std::this_thread::get_id(), sig, nullptr,
                   obs::TraceEvent::Phase::kExit, wire_ctx});
    return ex;
  } catch (const cluster::rpc::RpcError&) {
    tracer.record({std::chrono::steady_clock::now(),
                   std::this_thread::get_id(), sig, nullptr,
                   obs::TraceEvent::Phase::kExit, wire_ctx});
    throw;
  } catch (...) {
    tracer.record({std::chrono::steady_clock::now(),
                   std::this_thread::get_id(), sig, nullptr,
                   obs::TraceEvent::Phase::kError, wire_ctx});
    throw;
  }
}

Frame TcpMiddleware::exchange(std::size_t endpoint_index, FrameHeader::Op op,
                              std::vector<std::byte> payload,
                              std::uint8_t flags) {
  // Before a connection is taken: a refused request leaves it reusable.
  check_payload_size(payload.size(), "request");
  const Endpoint& ep = options_.endpoints[endpoint_index];
  PerEndpoint& per = per_endpoint_[endpoint_index];
  const bool timed = obs::metrics_enabled();
  const auto started = timed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};

  auto checkout =
      pool_.acquire(ep, deadline_after(kConnectDeadline));
  if (checkout.discarded > 0)
    per.lost.fetch_add(checkout.discarded, std::memory_order_relaxed);
  if (!checkout.reused) {
    per.net.connects.add();
    // A dial replaces a lost connection when one is still unreplaced.
    std::uint64_t lost = per.lost.load(std::memory_order_relaxed);
    while (lost > 0 && !per.lost.compare_exchange_weak(
                           lost, lost - 1, std::memory_order_relaxed)) {
    }
    if (lost > 0) per.net.reconnects.add();
  }
  Socket socket = std::move(checkout.socket);

  FrameHeader header;
  header.format = options_.format;
  header.op = op;
  header.flags = flags;
  header.payload_len = static_cast<std::uint32_t>(payload.size());
  header.request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  const auto header_bytes = encode_header(header);

  FrameHeader reply_header;
  std::vector<std::byte> reply_payload;
  try {
    const Deadline deadline = deadline_after(options_.io_deadline);
    send_all(socket, header_bytes.data(), header_bytes.size(),
             payload.data(), payload.size(), deadline);
    per.net.frames_sent.add();
    per.net.wire_bytes_sent.add(header_bytes.size() + payload.size());

    // A reply usually arrives whole: wait for it and take it with one recv.
    std::array<std::byte, kReplyReadSize> buf;
    std::size_t got = 0;
    while (got < FrameHeader::kSize)
      got += recv_some(socket, buf.data() + got, buf.size() - got, deadline);
    reply_header = decode_header(buf.data(), FrameHeader::kSize);
    if (reply_header.request_id != header.request_id)
      throw NetError(NetError::Kind::kProtocol,
                     "reply correlates to request " +
                         std::to_string(reply_header.request_id) +
                         ", expected " + std::to_string(header.request_id));
    const std::size_t frame_size =
        FrameHeader::kSize + reply_header.payload_len;
    // One request is in flight per connection, so anything past its reply
    // means the stream is out of step.
    if (got > frame_size)
      throw NetError(NetError::Kind::kProtocol,
                     std::to_string(got - frame_size) +
                         " unexpected bytes after the reply frame");
    reply_payload.assign(buf.begin() + FrameHeader::kSize, buf.begin() + got);
    if (got < frame_size) {
      reply_payload.resize(reply_header.payload_len);
      recv_exact(socket, reply_payload.data() + (got - FrameHeader::kSize),
                 frame_size - got, deadline);
    }
    per.net.frames_received.add();
    per.net.wire_bytes_received.add(frame_size);
    if (timed)
      per.rtt_us->record(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - started)
              .count() /
          1000.0);
  } catch (const NetError&) {
    // The failing socket itself is dropped by unwinding. When it was a
    // REUSED connection, its idle siblings were dialed to the same server
    // era and are presumed equally stale (drained/restarted server whose
    // half-open sockets still pass the health poll) — evict them so the
    // next acquire dials the new era instead of burning one timeout per
    // stale socket. Each connection lost here makes a later dial a
    // reconnect.
    const std::size_t evicted = checkout.reused ? pool_.evict(ep) : 0;
    per.lost.fetch_add(1 + evicted, std::memory_order_relaxed);
    throw;
  }

  // A complete exchange happened, so the connection is clean — reusable
  // even when the server answered with an application error.
  pool_.give_back(ep, std::move(socket));

  if (reply_header.op == FrameHeader::Op::kReplyError) {
    std::string message(reply_payload.size(), '\0');
    for (std::size_t i = 0; i < reply_payload.size(); ++i)
      message[i] =
          static_cast<char>(std::to_integer<std::uint8_t>(reply_payload[i]));
    throw cluster::rpc::RpcError(message);
  }
  if (reply_header.op != FrameHeader::Op::kReplyOk)
    throw NetError(NetError::Kind::kProtocol,
                   "unexpected reply op " +
                       std::to_string(static_cast<int>(reply_header.op)));
  return Frame{reply_header, std::move(reply_payload)};
}

cluster::RemoteHandle TcpMiddleware::create(cluster::NodeId node,
                                            std::string_view class_name,
                                            std::vector<std::byte> ctor_args) {
  endpoint_for(node);
  std::vector<std::byte> payload;
  put_string(payload, class_name);
  payload.insert(payload.end(), ctor_args.begin(), ctor_args.end());

  stats_.creates.add();
  stats_.bytes_sent.add(payload.size());
  Frame ex = roundtrip(node, FrameHeader::Op::kCreate, std::move(payload));
  stats_.bytes_received.add(ex.payload.size());
  EnvelopeReader env(ex.payload);
  return cluster::RemoteHandle{node, env.u64()};
}

std::vector<std::byte> TcpMiddleware::invoke(
    const cluster::RemoteHandle& target, std::string_view method,
    std::vector<std::byte> args) {
  endpoint_for(target.node);
  std::vector<std::byte> payload;
  put_u64(payload, target.object);
  put_string(payload, method);
  payload.insert(payload.end(), args.begin(), args.end());

  stats_.sync_calls.add();
  stats_.bytes_sent.add(payload.size());
  Frame ex = roundtrip(target.node, FrameHeader::Op::kCall, std::move(payload));
  stats_.bytes_received.add(ex.payload.size());
  return std::move(ex.payload);
}

void TcpMiddleware::invoke_one_way(const cluster::RemoteHandle& target,
                                   std::string_view method,
                                   std::vector<std::byte> args) {
  endpoint_for(target.node);
  std::vector<std::byte> payload;
  put_u64(payload, target.object);
  put_string(payload, method);
  payload.insert(payload.end(), args.begin(), args.end());

  stats_.one_way_calls.add();
  stats_.bytes_sent.add(payload.size());
  Frame ex =
      roundtrip(target.node, FrameHeader::Op::kOneWay, std::move(payload));
  // The ack is an empty frame; counting its (zero) payload keeps the
  // both-directions invariant literal.
  stats_.bytes_received.add(ex.payload.size());
}

std::optional<cluster::RemoteHandle> TcpMiddleware::lookup(
    std::string_view name) {
  stats_.lookups.add();
  auto backoff = kBackoffInitial;
  for (std::size_t attempt = 0;; ++attempt) {
    std::vector<std::byte> payload;
    put_string(payload, name);
    try {
      stats_.bytes_sent.add(payload.size());
      Frame ex = roundtrip(0, FrameHeader::Op::kLookup, std::move(payload));
      stats_.bytes_received.add(ex.payload.size());
      EnvelopeReader env(ex.payload);
      const bool found = env.u8() != 0;
      cluster::RemoteHandle handle;
      handle.node = env.u32();
      handle.object = env.u64();
      if (!found) return std::nullopt;
      return handle;
    } catch (const NetError& e) {
      // Protocol corruption is not transient, and running out of retry
      // budget means the caller gets the real failure.
      if (e.kind() == NetError::Kind::kProtocol ||
          attempt >= kMaxLookupRetries)
        throw;
      per_endpoint_[0].net.retries.add();  // lookups go to the registry
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, kBackoffMax);
    }
  }
}

void TcpMiddleware::bind_name(std::string name,
                              cluster::RemoteHandle handle) {
  std::vector<std::byte> payload;
  put_string(payload, name);
  put_u32(payload, handle.node);
  put_u64(payload, handle.object);
  (void)roundtrip(0, FrameHeader::Op::kBind, std::move(payload));
}

std::string TcpMiddleware::telemetry(cluster::NodeId node, bool include_trace,
                                     bool flush_trace) {
  endpoint_for(node);
  std::vector<std::byte> payload;
  std::uint8_t tflags = 0;
  if (include_trace || flush_trace) tflags |= 0x01;
  if (flush_trace) tflags |= 0x02;
  payload.push_back(static_cast<std::byte>(tflags));
  Frame ex = roundtrip(node, FrameHeader::Op::kTelemetry, std::move(payload));
  std::string json(ex.payload.size(), '\0');
  for (std::size_t i = 0; i < ex.payload.size(); ++i)
    json[i] = static_cast<char>(std::to_integer<std::uint8_t>(ex.payload[i]));
  return json;
}

}  // namespace apar::net
