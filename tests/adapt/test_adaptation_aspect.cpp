// AdaptationAspect: the autonomic concern as a pluggable aspect — plug it
// and the control loop runs; unplug it and the loop stops with zero
// residue on the call path. Its advice is a pass-through whose value is
// the analysis metadata (mark_adapts + mark_online_resizable), and its
// knobs actuate real substrate: a workers knob wired to
// ThreadPool::resize moves live workers.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "../aop/fixtures.hpp"
#include "apar/adapt/adaptation_aspect.hpp"
#include "apar/concurrency/thread_pool.hpp"

namespace adapt = apar::adapt;
namespace aop = apar::aop;
using apar::test::Worker;

namespace {

TEST(AdaptationAspect, PlugStartsAndUnplugStopsTheControlLoop) {
  aop::Context ctx;
  auto tuner = std::make_shared<adapt::AdaptationAspect<Worker>>();
  tuner->adapt_method<&Worker::process>({"workers"});
  EXPECT_FALSE(tuner->controller().running());
  ctx.attach(tuner);
  EXPECT_TRUE(tuner->controller().running());
  ctx.detach(tuner->name());
  EXPECT_FALSE(tuner->controller().running());
}

TEST(AdaptationAspect, PluggingIsTheHistogramOptIn) {
  // The controller reads queue-wait and run-time histograms; plugging the
  // aspect switches them on for as long as it is plugged, with no
  // environment variable and no forced global switch.
  apar::obs::set_metrics_enabled(false);
  aop::Context ctx;
  auto tuner = std::make_shared<adapt::AdaptationAspect<Worker>>();
  tuner->adapt_method<&Worker::process>({"workers"});
  ctx.attach(tuner);
  EXPECT_TRUE(apar::obs::metrics_enabled());
  ctx.detach(tuner->name());
  EXPECT_FALSE(apar::obs::metrics_enabled());
}

TEST(AdaptationAspect, AdviceIsPassThroughAndCarriesTheMarks) {
  aop::Context ctx;
  auto tuner = std::make_shared<adapt::AdaptationAspect<Worker>>();
  tuner->adapt_method<&Worker::process>({"workers", "grain"});
  ctx.attach(tuner);

  // Functionally invisible: the advised call behaves exactly as unwoven.
  auto w = ctx.create<Worker>(3);
  std::vector<int> pack{1, 2, 3};
  ctx.call<&Worker::process>(w, pack);
  EXPECT_EQ(pack, (std::vector<int>{4, 5, 6}));

  // The analyzer-facing self-description.
  ASSERT_EQ(tuner->advice().size(), 1u);
  const aop::AdviceBase& advice = *tuner->advice()[0];
  EXPECT_TRUE(advice.adapts());
  EXPECT_EQ(advice.adapt_knobs(),
            (std::vector<std::string>{"workers", "grain"}));
  EXPECT_TRUE(advice.spawns_concurrency());
  EXPECT_TRUE(advice.online_resizable());

  ctx.detach(tuner->name());
  // Zero residue: the call path is back to the unwoven one.
  std::vector<int> again{0};
  ctx.call<&Worker::process>(w, again);
  EXPECT_EQ(again, (std::vector<int>{3}));
}

TEST(AdaptationAspect, WorkersKnobActuatesALivePool) {
  apar::concurrency::ThreadPool pool(2, 4);
  auto tuner = std::make_shared<adapt::AdaptationAspect<Worker>>();
  tuner->adapt_method<&Worker::process>({"workers"});
  tuner->controller().set_workers_knob(adapt::Knob(
      "workers", 1, static_cast<std::int64_t>(pool.max_size()),
      static_cast<std::int64_t>(pool.size()),
      [&pool](std::int64_t v) {
        pool.resize(static_cast<std::size_t>(v));
      }));

  // Drive the decision logic directly (deterministic): pressure grows the
  // live pool by one worker.
  adapt::Signals s;
  s.valid = true;
  s.interval_s = 0.2;
  s.throughput = 100.0;
  s.queue_wait_p95_us = 5000.0;
  auto d = tuner->controller().tick(s);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], adapt::Decision::kGrowWorkers);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.resizes(), 1u);

  // And the pool still runs work after the actuation.
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) pool.post([&ran] { ++ran; });
  pool.drain();
  EXPECT_EQ(ran.load(), 100);
}

}  // namespace
