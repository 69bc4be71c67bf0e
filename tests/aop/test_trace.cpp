// The trace aspect: the paper's interaction diagrams (Figures 6/7/11)
// reconstructed from a live woven run — and with it, observability-based
// checks of the methodology's structural claims.
#include <gtest/gtest.h>

#include <memory>

#include "apar/aop/trace.hpp"
#include "fixtures.hpp"

namespace aop = apar::aop;
using apar::test::Worker;

namespace {

std::shared_ptr<aop::TraceAspect<Worker>> make_trace(
    std::shared_ptr<aop::Tracer> tracer) {
  auto trace = std::make_shared<aop::TraceAspect<Worker>>(tracer);
  trace->trace_method<&Worker::process>()
      .trace_method<&Worker::compute>()
      .template trace_new<int>();
  return trace;
}

}  // namespace

TEST(TraceAspect, RecordsEnterAndExit) {
  auto tracer = std::make_shared<aop::Tracer>();
  aop::Context ctx;
  ctx.attach(make_trace(tracer));
  auto w = ctx.create<Worker>(1);
  std::vector<int> pack{1};
  ctx.call<&Worker::process>(w, pack);
  EXPECT_EQ(tracer->calls("Worker.new"), 1u);
  EXPECT_EQ(tracer->calls("Worker.process"), 1u);
  EXPECT_EQ(tracer->size(), 4u);  // 2 events per traced join point
}

TEST(TraceAspect, ErrorPhaseOnThrow) {
  auto tracer = std::make_shared<aop::Tracer>();
  aop::Context ctx;
  ctx.attach(make_trace(tracer));
  auto veto = std::make_shared<aop::Aspect>("veto");
  veto->around_method<&Worker::process>(
      aop::order::kDefault, aop::Scope::any(),
      [](auto&) -> void { throw std::runtime_error("x"); });
  ctx.attach(veto);
  auto w = ctx.create<Worker>(1);
  std::vector<int> pack{1};
  EXPECT_THROW(ctx.call<&Worker::process>(w, pack), std::runtime_error);
  const auto events = tracer->events();
  EXPECT_EQ(events.back().phase, aop::TraceEvent::Phase::kError);
}

TEST(TraceAspect, SequentialRunUsesOneThread) {
  auto tracer = std::make_shared<aop::Tracer>();
  aop::Context ctx;
  ctx.attach(make_trace(tracer));
  auto w = ctx.create<Worker>(1);
  std::vector<int> pack{1};
  for (int i = 0; i < 5; ++i) ctx.call<&Worker::process>(w, pack);
  EXPECT_EQ(tracer->thread_count(), 1u);
}

TEST(TraceAspect, ConcurrencyAspectShowsUpAsManyThreads) {
  // The observable difference between Figure 6 (sequential) and Figure 11
  // (woven with concurrency): the same core calls now run on new threads.
  auto tracer = std::make_shared<aop::Tracer>();
  aop::Context ctx;
  // Trace INSIDE the async boundary so events carry the worker threads.
  auto trace = std::make_shared<aop::TraceAspect<Worker>>(
      "Trace", tracer, aop::order::kConcurrencyAsync + 10);
  trace->trace_method<&Worker::process>();
  ctx.attach(trace);

  auto async = std::make_shared<aop::Aspect>("async");
  async->around_method<&Worker::process>(
      aop::order::kConcurrencyAsync, aop::Scope::any(), [](auto& inv) {
        auto k = inv.continuation();
        inv.context().tasks().spawn(k);
      });
  ctx.attach(async);

  // One Worker per call: Worker is not thread safe and no monitor is
  // plugged, so calls that overlap must not share one.
  std::vector<aop::Ref<Worker>> workers;
  for (int i = 0; i < 8; ++i) workers.push_back(ctx.create<Worker>(i));
  std::vector<int> pack{1};
  for (auto& w : workers) ctx.call<&Worker::process>(w, pack);
  ctx.quiesce();
  EXPECT_EQ(tracer->calls("Worker.process"), 8u);
  EXPECT_GT(tracer->thread_count(), 1u);
}

TEST(TraceAspect, DiagramAndSummaryRender) {
  auto tracer = std::make_shared<aop::Tracer>();
  aop::Context ctx;
  ctx.attach(make_trace(tracer));
  auto a = ctx.create<Worker>(1);
  auto b = ctx.create<Worker>(2);
  std::vector<int> pack{1};
  ctx.call<&Worker::process>(a, pack);
  ctx.call<&Worker::process>(b, pack);
  ctx.call<&Worker::compute>(a, 1);

  const std::string diagram = tracer->interaction_diagram();
  EXPECT_NE(diagram.find("-> Worker.process"), std::string::npos);
  EXPECT_NE(diagram.find("<- Worker.process"), std::string::npos);
  EXPECT_NE(diagram.find("T1"), std::string::npos);

  const std::string summary = tracer->summary();
  EXPECT_NE(summary.find("Worker.process: 2 call(s) on 2 object(s)"),
            std::string::npos);
  EXPECT_NE(summary.find("Worker.compute: 1 call(s) on 1 object(s)"),
            std::string::npos);
  EXPECT_EQ(tracer->targets("Worker.process"), 2u);
}

TEST(TraceAspect, DiagramKeepsLongSignaturesIntact) {
  // Regression: the diagram used a 160-char snprintf line buffer, so long
  // signatures (and anything after them) were silently truncated.
  aop::Tracer tracer;
  const std::string long_sig =
      "VeryLongTemplateInstantiationName<WithNestedParameters, "
      "AndMoreParameters, AndEvenMoreParametersToPushWellPastTheOldLimit>."
      "a_method_name_that_is_itself_quite_long_for_good_measure";
  ASSERT_GT(long_sig.size(), 160u);
  aop::TraceEvent enter;
  enter.when = std::chrono::steady_clock::now();
  enter.thread = std::this_thread::get_id();
  enter.signature = long_sig;
  enter.phase = aop::TraceEvent::Phase::kEnter;
  aop::TraceEvent exit = enter;
  exit.when = enter.when + std::chrono::microseconds(5);
  exit.phase = aop::TraceEvent::Phase::kExit;
  tracer.record(enter);
  tracer.record(exit);

  const std::string diagram = tracer.interaction_diagram();
  EXPECT_NE(diagram.find("-> " + long_sig + "\n"), std::string::npos);
  EXPECT_NE(diagram.find("<- " + long_sig + "\n"), std::string::npos);
}

TEST(TraceAspect, UnplugRemovesEveryProbe) {
  auto tracer = std::make_shared<aop::Tracer>();
  aop::Context ctx;
  ctx.attach(make_trace(tracer));
  auto w = ctx.create<Worker>(1);
  ctx.detach("Trace");
  tracer->clear();
  std::vector<int> pack{1};
  ctx.call<&Worker::process>(w, pack);
  EXPECT_EQ(tracer->size(), 0u);
}

TEST(TraceAspect, ValueReturningMethodPassesResultThrough) {
  auto tracer = std::make_shared<aop::Tracer>();
  aop::Context ctx;
  ctx.attach(make_trace(tracer));
  auto w = ctx.create<Worker>(3);
  EXPECT_EQ(ctx.call<&Worker::compute>(w, 10), 23);
  EXPECT_EQ(tracer->calls("Worker.compute"), 1u);
}
