// Distributed tracing over the real wire: client wire spans, server
// serve spans joined through the frame's trace trailer, the kTelemetry
// endpoint, and chaos runs (dropped frames, killed servers) that must
// never leave open or mis-parented spans behind. Client and server share
// one process here, so BOTH halves of every trace land in
// Tracer::global() — the golden-structure assertions read it directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "apar/net/error.hpp"
#include "apar/obs/trace_context.hpp"
#include "apar/obs/tracer.hpp"
#include "net_fixtures.hpp"

namespace ac = apar::cluster;
namespace as = apar::serial;
namespace net = apar::net;
namespace obs = apar::obs;
using apar::test::TcpRig;

namespace {

struct TracingOn {
  TracingOn() {
    obs::set_tracing_enabled(true);
    (void)obs::Tracer::global()->take_events();  // isolate this test
  }
  ~TracingOn() { obs::set_tracing_enabled(false); }
};

std::vector<obs::TraceSpan> drain_spans() {
  return obs::Tracer::spans_of(obs::Tracer::global()->take_events());
}

std::vector<obs::TraceSpan> named(const std::vector<obs::TraceSpan>& spans,
                                  const std::string& signature) {
  std::vector<obs::TraceSpan> out;
  for (const auto& s : spans)
    if (s.signature == signature) out.push_back(s);
  return out;
}

/// The chaos invariant: nothing left open, and every recorded parent id
/// resolves to a recorded span or to the test's own root scope.
void expect_consistent(const std::vector<obs::TraceSpan>& spans,
                       const obs::TraceContext& root) {
  std::unordered_set<std::uint64_t> ids{root.span_id};
  for (const auto& s : spans) ids.insert(s.span_id);
  for (const auto& s : spans) {
    if (s.parent_span_id != 0) {
      EXPECT_TRUE(ids.count(s.parent_span_id))
          << s.signature << " parented to unknown span";
    }
    if (s.trace_id != 0) {
      EXPECT_EQ(s.trace_id, root.trace_id) << s.signature;
    }
  }
}

}  // namespace

TEST(TcpTrace, ServeSpansParentToClientWireSpans) {
  APAR_REQUIRE_LOOPBACK();
  TracingOn tracing;
  TcpRig rig;
  auto& mw = *rig.middleware;

  obs::SpanScope root;
  const auto handle =
      mw.create(0, "Counter", as::encode(mw.wire_format(), 10LL));
  mw.invoke(handle, "add", as::encode(mw.wire_format(), 5LL));
  const auto reply = mw.invoke(handle, "get", as::encode(mw.wire_format()));
  const auto [value] = as::decode<long long>(reply, mw.wire_format());
  EXPECT_EQ(value, 15);

  EXPECT_EQ(obs::Tracer::global()->open_spans(), 0u);
  const auto spans = drain_spans();
  const auto wire_create = named(spans, "net.create");
  const auto wire_calls = named(spans, "net.call");
  ASSERT_EQ(wire_create.size(), 1u);
  ASSERT_EQ(wire_calls.size(), 2u);
  // Client side: every wire span is a child of the root scope.
  for (const auto& s : {wire_create[0], wire_calls[0], wire_calls[1]}) {
    EXPECT_EQ(s.trace_id, root.context().trace_id);
    EXPECT_EQ(s.parent_span_id, root.context().span_id);
    EXPECT_FALSE(s.error);
  }
  // Server side: each serve span joined the SAME trace, parented to the
  // wire span that carried its request — the golden structure the merged
  // two-process demo asserts again from the outside.
  const auto serve_create = named(spans, "serve.create");
  const auto serve_add = named(spans, "serve.add");
  const auto serve_get = named(spans, "serve.get");
  ASSERT_EQ(serve_create.size(), 1u);
  ASSERT_EQ(serve_add.size(), 1u);
  ASSERT_EQ(serve_get.size(), 1u);
  EXPECT_EQ(serve_create[0].parent_span_id, wire_create[0].span_id);
  std::unordered_set<std::uint64_t> call_ids{wire_calls[0].span_id,
                                             wire_calls[1].span_id};
  EXPECT_TRUE(call_ids.count(serve_add[0].parent_span_id));
  EXPECT_TRUE(call_ids.count(serve_get[0].parent_span_id));
  EXPECT_NE(serve_add[0].parent_span_id, serve_get[0].parent_span_id);
  for (const auto& s : {serve_create[0], serve_add[0], serve_get[0]})
    EXPECT_EQ(s.trace_id, root.context().trace_id);
  expect_consistent(spans, root.context());
}

TEST(TcpTrace, TracingOffSendsLegacyFramesAndRecordsNothing) {
  APAR_REQUIRE_LOOPBACK();
  ASSERT_FALSE(obs::tracing_enabled());
  (void)obs::Tracer::global()->take_events();
  TcpRig rig;
  auto& mw = *rig.middleware;
  const auto handle =
      mw.create(0, "Counter", as::encode(mw.wire_format(), 1LL));
  mw.invoke(handle, "add", as::encode(mw.wire_format(), 2LL));
  // Untraced peers interoperate because nothing was added to the frames:
  // the calls above just worked, and no span was recorded anywhere.
  EXPECT_EQ(obs::Tracer::global()->size(), 0u);
}

TEST(TcpTrace, TelemetryOpReturnsMetricsJson) {
  APAR_REQUIRE_LOOPBACK();
  TcpRig rig;
  auto& mw = *rig.middleware;
  const auto handle =
      mw.create(0, "Counter", as::encode(mw.wire_format(), 1LL));
  mw.invoke(handle, "get", as::encode(mw.wire_format()));

  const std::string plain = mw.telemetry(0);
  EXPECT_NE(plain.find("\"node\":\""), std::string::npos) << plain;
  EXPECT_NE(plain.find("\"pid\":"), std::string::npos);
  EXPECT_NE(plain.find("\"uptime_us\":"), std::string::npos);
  EXPECT_NE(plain.find("\"server\":{\"accepted\":"), std::string::npos);
  EXPECT_NE(plain.find("\"metrics\":{"), std::string::npos);
  EXPECT_EQ(plain.find("\"trace\""), std::string::npos);  // not asked for

  const std::string with_trace = mw.telemetry(0, /*include_trace=*/true);
  EXPECT_NE(with_trace.find("\"trace\":{\"tag\":\""), std::string::npos);
  EXPECT_NE(with_trace.find("\"dropped\":"), std::string::npos);
  EXPECT_NE(with_trace.find("\"events\":["), std::string::npos);
}

TEST(TcpTrace, TelemetryFlushDrainsTheTraceBuffer) {
  APAR_REQUIRE_LOOPBACK();
  TracingOn tracing;
  TcpRig rig;
  auto& mw = *rig.middleware;
  const auto handle =
      mw.create(0, "Counter", as::encode(mw.wire_format(), 1LL));
  mw.invoke(handle, "add", as::encode(mw.wire_format(), 1LL));

  const std::string first =
      mw.telemetry(0, /*include_trace=*/true, /*flush_trace=*/true);
  EXPECT_NE(first.find("serve.add"), std::string::npos) << first;
  const std::string second =
      mw.telemetry(0, /*include_trace=*/true, /*flush_trace=*/true);
  // The first flush drained serve.add; it must not be reported twice.
  EXPECT_EQ(second.find("serve.add"), std::string::npos) << second;
}

TEST(TcpTrace, ChaosDroppedFrameLeavesNoOpenSpans) {
  APAR_REQUIRE_LOOPBACK();
  TracingOn tracing;
  // The front "loses" the first request entirely.
  TcpRig rig(as::Format::kCompact, {}, /*drop_frames=*/1);
  auto& mw = *rig.middleware;

  obs::SpanScope root;
  EXPECT_THROW(mw.create(0, "Counter", as::encode(mw.wire_format(), 1LL)),
               net::NetError);
  const auto handle =
      mw.create(0, "Counter", as::encode(mw.wire_format(), 1LL));
  mw.invoke(handle, "add", as::encode(mw.wire_format(), 1LL));

  EXPECT_EQ(obs::Tracer::global()->open_spans(), 0u);
  const auto spans = drain_spans();
  const auto creates = named(spans, "net.create");
  ASSERT_EQ(creates.size(), 2u);
  // The dropped exchange closed its wire span WITH the error flag — the
  // trace tells the truth about the lost request instead of leaking it.
  EXPECT_TRUE(creates[0].error != creates[1].error);
  expect_consistent(spans, root.context());
}

TEST(TcpTrace, KillAndRestartLeavesNoOpenSpans) {
  APAR_REQUIRE_LOOPBACK();
  TracingOn tracing;
  ac::rpc::Registry registry;
  apar::test::register_counter(registry);
  auto server = std::make_unique<net::TcpServer>(registry);
  const std::uint16_t port = server->port();
  net::TcpMiddleware::Options mopts;
  mopts.endpoints = {{"127.0.0.1", port}};
  net::TcpMiddleware mw(mopts);

  obs::SpanScope root;
  const auto handle =
      mw.create(0, "Counter", as::encode(mw.wire_format(), 1LL));
  server.reset();  // kill: joins workers, so all serve spans are recorded
  EXPECT_THROW(mw.invoke(handle, "get", as::encode(mw.wire_format())),
               net::NetError);

  net::TcpServer::Options sopts;
  sopts.port = port;
  server = std::make_unique<net::TcpServer>(registry, sopts);
  server->name_server().bind("PS1", {0, 11});
  const auto resolved = mw.lookup("PS1");  // reconnects through the pool
  ASSERT_TRUE(resolved.has_value());

  EXPECT_EQ(obs::Tracer::global()->open_spans(), 0u);
  const auto spans = drain_spans();
  const auto calls = named(spans, "net.call");
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_TRUE(calls[0].error);  // the call into the dead server
  const auto lookups = named(spans, "net.lookup");
  ASSERT_GE(lookups.size(), 1u);
  EXPECT_FALSE(lookups.back().error);
  expect_consistent(spans, root.context());
}
