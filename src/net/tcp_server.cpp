#include "apar/net/tcp_server.hpp"

#include <unistd.h>

#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "apar/common/json.hpp"
#include "apar/common/log.hpp"
#include "apar/net/error.hpp"
#include "apar/obs/metrics.hpp"
#include "apar/obs/trace_context.hpp"
#include "apar/obs/tracer.hpp"
#include "apar/serial/archive.hpp"

namespace apar::net {

namespace {

std::vector<std::byte> message_bytes(const std::string& text) {
  std::vector<std::byte> out(text.size());
  for (std::size_t i = 0; i < text.size(); ++i)
    out[i] = static_cast<std::byte>(text[i]);
  return out;
}

}  // namespace

TcpServer::TcpServer(const cluster::rpc::Registry& registry, Options options)
    : options_(std::move(options)),
      listener_(options_.port),
      dispatcher_(registry, options_.label.empty()
                                ? "tcp:" + std::to_string(listener_.port())
                                : options_.label),
      reactor_(
          listener_, options_.workers,
          [this](const FrameHeader& header, std::vector<std::byte> payload) {
            return process_request(header, std::move(payload));
          },
          options_.reactor, stats_, dispatcher_.label()) {
  stats_.export_as("net.server", {{"server", dispatcher_.label()}});
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::stop() {
  if (stopped_.exchange(true)) return;
  // Reactor::stop() returns once every handler has returned and every
  // descriptor the reactor opened is closed; the listener closes last.
  reactor_.stop();
  listener_.close();
}

TcpServer::Stats TcpServer::stats() const { return stats_.snapshot(); }

std::size_t TcpServer::open_connections() const {
  return reactor_.open_connections();
}

Frame TcpServer::process_request(const FrameHeader& header,
                                 std::vector<std::byte> payload) {
  Frame out;
  FrameHeader& reply_header = out.header;
  reply_header.format = header.format;
  reply_header.request_id = header.request_id;
  std::vector<std::byte>& reply = out.payload;

  // Serve span: child of the caller's wire span when the frame carries a
  // trace trailer, a fresh root otherwise. Installed around the dispatch
  // so server-side aspects and pool tasks parent to this request. The
  // boundary events are recorded after the fact with the saved t0 —
  // spans() orders by timestamp, so nesting renders correctly.
  const auto t0 = std::chrono::steady_clock::now();
  std::optional<obs::SpanScope> span;
  std::string span_sig = "serve." + std::string(op_name(header.op));
  bool failed = false;

  try {
    std::size_t body_size = payload.size();
    if (header.flags & FrameHeader::kFlagTraceContext) {
      const obs::TraceContext remote =
          read_trace_context(payload.data(), payload.size());
      body_size -= FrameHeader::kTraceContextSize;
      if (obs::tracing_enabled()) span.emplace(remote);
    } else if (obs::tracing_enabled() &&
               header.op != FrameHeader::Op::kTelemetry) {
      // Untraced peers still get (root) serve spans — except for bare
      // telemetry polls: the observability plane must not fill a traced
      // server's ring with its own scrape traffic.
      span.emplace(obs::current_context());
    }
    EnvelopeReader env(payload.data(), body_size);
    switch (header.op) {
      case FrameHeader::Op::kCreate: {
        const std::string class_name = env.string();
        serial::Reader args(env.rest_data(), env.rest_size(), header.format);
        const cluster::ObjectId oid = dispatcher_.create(class_name, args);
        put_u64(reply, oid);
        break;
      }
      case FrameHeader::Op::kCall:
      case FrameHeader::Op::kOneWay: {
        const cluster::ObjectId oid = env.u64();
        const std::string method = env.string();
        span_sig = "serve." + method;
        serial::Reader args(env.rest_data(), env.rest_size(), header.format);
        auto out = dispatcher_.call(oid, method, args, header.format);
        // One-way acks are empty: the client charged the call as
        // fire-and-forget, so no reply payload travels back.
        if (header.op == FrameHeader::Op::kCall) reply = std::move(out);
        break;
      }
      case FrameHeader::Op::kLookup: {
        const std::string name = env.string();
        const auto handle = name_server_.lookup(name);
        reply.push_back(static_cast<std::byte>(handle ? 1 : 0));
        put_u32(reply, handle ? handle->node : 0);
        put_u64(reply, handle ? handle->object : 0);
        break;
      }
      case FrameHeader::Op::kBind: {
        std::string name = env.string();
        cluster::RemoteHandle handle;
        handle.node = env.u32();
        handle.object = env.u64();
        name_server_.bind(std::move(name), handle);
        break;
      }
      case FrameHeader::Op::kTelemetry: {
        const std::uint8_t tflags = env.rest_size() > 0 ? env.u8() : 0;
        reply = message_bytes(telemetry_json(tflags));
        break;
      }
      default:
        throw NetError(NetError::Kind::kProtocol,
                       "unexpected op " +
                           std::to_string(static_cast<int>(header.op)) +
                           " on server");
    }
    check_payload_size(reply.size(), "reply");
    reply_header.op = FrameHeader::Op::kReplyOk;
  } catch (const std::exception& e) {
    APAR_DEBUG("net") << dispatcher_.label() << " request failed: "
                      << e.what();
    stats_.dispatch_errors.add();
    reply_header.op = FrameHeader::Op::kReplyError;
    reply = message_bytes(e.what());
    failed = true;
  }

  if (span) {
    auto& tracer = *obs::Tracer::global();
    const auto tid = std::this_thread::get_id();
    tracer.record({t0, tid, span_sig, nullptr,
                   obs::TraceEvent::Phase::kEnter, span->context()});
    tracer.record({std::chrono::steady_clock::now(), tid, span_sig, nullptr,
                   failed ? obs::TraceEvent::Phase::kError
                          : obs::TraceEvent::Phase::kExit,
                   span->context()});
    span.reset();  // restore the worker's ambient context before the reply
  }
  return out;
}

std::string TcpServer::telemetry_json(std::uint8_t tflags) const {
  const Stats s = stats();
  const auto uptime = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - started_at_)
                          .count();
  std::ostringstream os;
  os << "{\"node\":\"" << common::json_escape(dispatcher_.label()) << "\""
     << ",\"pid\":" << ::getpid()
     << ",\"port\":" << listener_.port()
     << ",\"uptime_us\":" << uptime
     << ",\"server\":{";
  const char* sep = "";
  s.for_each([&](std::string_view name, std::uint64_t value) {
    os << sep << '"' << name << "\":" << value;
    sep = ",";
  });
  os << "}"
     << ",\"metrics\":" << obs::MetricsRegistry::global().to_json();
  if (tflags & 0x01) {
    auto& tracer = *obs::Tracer::global();
    // Flush (bit 1) drains atomically so repeated pollers never see the
    // same span twice; a plain include leaves the ring intact.
    std::vector<obs::TraceEvent> events =
        (tflags & 0x02) ? tracer.take_events() : tracer.events();
    os << ",\"trace\":{\"tag\":\""
       << common::json_escape(dispatcher_.label()) << "\""
       << ",\"dropped\":" << tracer.dropped_events()
       << ",\"events\":"
       << obs::Tracer::chrome_trace_json_of(std::move(events), ::getpid(),
                                            dispatcher_.label())
       << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace apar::net
