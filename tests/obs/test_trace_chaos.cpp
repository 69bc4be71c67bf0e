// Chaos runs through the fault-injecting middleware with the trace
// aspect plugged: dropped replies, duplicated deliveries and crashed
// nodes must never leave open spans or children parented to spans that
// do not exist. Exceptions unwinding through woven advice are exactly
// where a naive tracer leaks enters — these tests pin that they close
// as kError instead.
#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>
#include <vector>

#include "../strategies/fixtures.hpp"
#include "apar/aop/trace.hpp"
#include "apar/cluster/fault_injection.hpp"
#include "apar/cluster/middleware.hpp"
#include "apar/obs/trace_context.hpp"
#include "apar/strategies/distribution_aspect.hpp"

namespace aop = apar::aop;
namespace ac = apar::cluster;
namespace as = apar::serial;
namespace obs = apar::obs;
namespace st = apar::strategies;
using apar::test::SlowStage;

namespace {

using Dist = st::DistributionAspect<SlowStage, long long, long long>;

struct TracingOn {
  TracingOn() { obs::set_tracing_enabled(true); }
  ~TracingOn() { obs::set_tracing_enabled(false); }
};

/// Simulated two-node cluster behind a fault decorator, with the trace
/// aspect (order 50) outside distribution (order 500) — every ctx.call
/// opens a span that the injected fault then tries to break.
struct ChaosRig {
  explicit ChaosRig(ac::FaultInjectingMiddleware::Options fopts) {
    ac::Cluster::Options copts;
    copts.nodes = 2;
    cluster = std::make_unique<ac::Cluster>(copts);
    if (fopts.crash_on_call > 0) fopts.cluster = cluster.get();
    cluster->registry()
        .bind<SlowStage>("SlowStage")
        .ctor<long long, long long>()
        .method<&SlowStage::query>("query");
    inner = std::make_unique<ac::RmiMiddleware>(*cluster,
                                                ac::CostModel::loopback());
    faulty = std::make_unique<ac::FaultInjectingMiddleware>(*inner, fopts);

    tracer = std::make_shared<aop::Tracer>();
    auto trace = std::make_shared<aop::TraceAspect<SlowStage>>("Trace",
                                                               tracer);
    trace->trace_method<&SlowStage::query>();
    ctx.attach(trace);
    auto dist = std::make_shared<Dist>("Distribution", *cluster, *faulty);
    dist->distribute_method<&SlowStage::query>();
    ctx.attach(dist);
  }

  std::unique_ptr<ac::Cluster> cluster;
  std::unique_ptr<ac::RmiMiddleware> inner;
  std::unique_ptr<ac::FaultInjectingMiddleware> faulty;
  std::shared_ptr<aop::Tracer> tracer;
  aop::Context ctx;
};

/// The invariant every chaos schedule must preserve: no span left open,
/// every parent id resolves (to a recorded span or the ambient root).
void expect_no_leaks(const aop::Tracer& tracer,
                     const obs::TraceContext& root) {
  EXPECT_EQ(tracer.open_spans(), 0u);
  const auto spans = tracer.spans();
  std::unordered_set<std::uint64_t> ids{root.span_id};
  for (const auto& s : spans) ids.insert(s.span_id);
  for (const auto& s : spans) {
    if (s.parent_span_id != 0) {
      EXPECT_TRUE(ids.count(s.parent_span_id))
          << s.signature << " parented to unknown span " << s.parent_span_id;
    }
    if (root.valid() && s.trace_id != 0) {
      EXPECT_EQ(s.trace_id, root.trace_id) << s.signature;
    }
  }
}

}  // namespace

TEST(TraceChaos, DroppedRepliesCloseSpansAsErrors) {
  TracingOn tracing;
  ac::FaultInjectingMiddleware::Options fopts;
  fopts.seed = 0x7A01;
  fopts.drop_rate = 0.4;
  ChaosRig rig(fopts);

  obs::SpanScope root;
  auto ref = rig.ctx.create<SlowStage>(1LL, 0LL);
  int failures = 0;
  for (int i = 0; i < 50; ++i) {
    try {
      (void)rig.ctx.call<&SlowStage::query>(ref, 1LL);
    } catch (const ac::rpc::RpcError&) {
      ++failures;
    }
  }
  ASSERT_GT(failures, 0) << "40% drop rate injected nothing";

  const auto spans = rig.tracer->spans();
  ASSERT_EQ(spans.size(), 50u);  // every call spanned, failed or not
  int error_spans = 0;
  for (const auto& s : spans) error_spans += s.error ? 1 : 0;
  EXPECT_EQ(error_spans, failures);
  expect_no_leaks(*rig.tracer, root.context());
}

TEST(TraceChaos, DuplicatedDeliveriesKeepParentingConsistent) {
  TracingOn tracing;
  ac::FaultInjectingMiddleware::Options fopts;
  fopts.seed = 0x7A02;
  fopts.duplicate_rate = 0.5;
  ChaosRig rig(fopts);

  obs::SpanScope root;
  auto ref = rig.ctx.create<SlowStage>(2LL, 0LL);
  for (int i = 0; i < 40; ++i)
    EXPECT_EQ(rig.ctx.call<&SlowStage::query>(ref, 1LL), 3LL);
  EXPECT_GT(rig.faulty->fault_stats().duplicated.value(), 0u);

  // At-least-once delivery duplicates the WIRE operation, not the traced
  // join point: still exactly one closed span per logical call.
  const auto spans = rig.tracer->spans();
  ASSERT_EQ(spans.size(), 40u);
  for (const auto& s : spans) {
    EXPECT_FALSE(s.error);
    EXPECT_EQ(s.parent_span_id, root.context().span_id);
  }
  expect_no_leaks(*rig.tracer, root.context());
}

TEST(TraceChaos, CrashedNodeClosesSpansNotLeaksThem) {
  TracingOn tracing;
  ac::FaultInjectingMiddleware::Options fopts;
  fopts.seed = 0x7A03;
  fopts.crash_on_call = 5;  // the 5th operation crashes the target node
  ChaosRig rig(fopts);

  obs::SpanScope root;
  auto ref = rig.ctx.create<SlowStage>(3LL, 0LL);
  int failures = 0;
  for (int i = 0; i < 10; ++i) {
    try {
      (void)rig.ctx.call<&SlowStage::query>(ref, 1LL);
    } catch (const ac::rpc::RpcError&) {
      ++failures;  // calls into the dead node fail cleanly from here on
    }
  }
  EXPECT_GE(failures, 1);
  const auto spans = rig.tracer->spans();
  ASSERT_EQ(spans.size(), 10u);
  expect_no_leaks(*rig.tracer, root.context());
}
