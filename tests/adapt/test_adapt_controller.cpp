// AdaptationController decision logic, driven with synthetic Signals —
// tick() touches no clock and no registry, so every damping mechanism is
// testable deterministically: additive increase, threshold-gated decrease
// (patience + exploratory probe), cooldown windows, and the hill-climb
// verification that reverts an actuation which did not pay and locks out
// that direction.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apar/adapt/controller.hpp"
#include "apar/obs/metrics.hpp"

namespace adapt = apar::adapt;
namespace obs = apar::obs;
using adapt::Decision;

namespace {

adapt::Signals busy(double queue_wait_us, double throughput) {
  adapt::Signals s;
  s.valid = true;
  s.interval_s = 0.2;
  s.throughput = throughput;
  s.queue_wait_p95_us = queue_wait_us;
  s.run_mean_us = 100.0;
  return s;
}

/// Controller over a private registry with a workers knob wired to a
/// recording actuator.
struct Rig {
  obs::MetricsRegistry registry;
  adapt::AdaptationController controller;
  std::vector<std::int64_t> applied;

  explicit Rig(adapt::AdaptationController::Config cfg = {})
      : controller(cfg, registry) {
    controller.set_workers_knob(adapt::Knob(
        "workers", 1, 4, 2, [this](std::int64_t v) { applied.push_back(v); }));
  }
};

TEST(AdaptController, InvalidSignalsHold) {
  Rig rig;
  adapt::Signals s;  // valid = false
  EXPECT_TRUE(rig.controller.tick(s).empty());
  EXPECT_EQ(rig.controller.ticks(), 1u);
  EXPECT_EQ(rig.controller.decisions(), 0u);
  EXPECT_TRUE(rig.applied.empty());
}

TEST(AdaptController, PressureGrowsExactlyOneWorkerThenCoolsDown) {
  Rig rig;
  auto d = rig.controller.tick(busy(/*queue_wait=*/2000, /*thpt=*/100));
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], Decision::kGrowWorkers);
  EXPECT_EQ(rig.controller.workers(), 3);
  EXPECT_EQ(rig.applied, (std::vector<std::int64_t>{3}));
  // Sustained pressure during the cooldown must NOT stack further grows.
  EXPECT_TRUE(rig.controller.tick(busy(2000, 100)).empty());
  EXPECT_EQ(rig.controller.workers(), 3);
  EXPECT_EQ(rig.controller.last_decision(), Decision::kGrowWorkers);
}

TEST(AdaptController, GrowThatPaysSticks) {
  adapt::AdaptationController::Config cfg;
  cfg.cooldown_ticks = 1;
  Rig rig(cfg);
  rig.controller.tick(busy(2000, 100));  // grow at baseline 100/s
  ASSERT_EQ(rig.controller.workers(), 3);
  // Cooldown expires with throughput up 50% — well past min_gain.
  auto d = rig.controller.tick(busy(2000, 150));
  for (Decision x : d) EXPECT_NE(x, Decision::kRevertGrow);
  EXPECT_EQ(rig.controller.workers(), 3);
  EXPECT_EQ(rig.controller.reverts(), 0u);
}

TEST(AdaptController, GrowThatDoesNotPayIsRevertedAndLockedOut) {
  adapt::AdaptationController::Config cfg;
  cfg.cooldown_ticks = 1;
  cfg.backoff_ticks = 3;
  Rig rig(cfg);
  rig.controller.tick(busy(2000, 100));  // grow, baseline 100/s
  ASSERT_EQ(rig.controller.workers(), 3);
  // Throughput unchanged: the extra worker did not pay. Hill-climb takes
  // it back.
  auto d = rig.controller.tick(busy(2000, 100));
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], Decision::kRevertGrow);
  EXPECT_EQ(rig.controller.workers(), 2);
  EXPECT_EQ(rig.controller.reverts(), 1u);
  // Growth stays locked out under continued pressure for backoff_ticks
  // (the first tick after the revert is still cooldown).
  for (int i = 0; i < 3; ++i) {
    for (Decision x : rig.controller.tick(busy(2000, 100)))
      EXPECT_NE(x, Decision::kGrowWorkers) << "tick " << i;
  }
  EXPECT_EQ(rig.controller.workers(), 2);
}

TEST(AdaptController, ShrinkNeedsConsecutiveIdleWindows) {
  adapt::AdaptationController::Config cfg;
  cfg.shrink_patience = 3;
  Rig rig(cfg);
  EXPECT_TRUE(rig.controller.tick(busy(/*idle*/ 10, 100)).empty());
  EXPECT_TRUE(rig.controller.tick(busy(10, 100)).empty());
  // One noisy non-idle window resets the streak.
  EXPECT_TRUE(rig.controller.tick(busy(200, 100)).empty());
  EXPECT_TRUE(rig.controller.tick(busy(10, 100)).empty());
  EXPECT_TRUE(rig.controller.tick(busy(10, 100)).empty());
  auto d = rig.controller.tick(busy(10, 100));
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], Decision::kShrinkWorkers);
  EXPECT_EQ(rig.controller.workers(), 1);
}

TEST(AdaptController, ProbeShrinkAfterStableStretchRevertsOnLoss) {
  adapt::AdaptationController::Config cfg;
  cfg.cooldown_ticks = 1;
  cfg.probe_ticks = 4;
  Rig rig(cfg);
  // Saturated-host shape: queue waits in the middle band (never idle, not
  // pressured) — after probe_ticks stable windows the controller tries a
  // worker fewer anyway.
  std::vector<Decision> d;
  for (int i = 0; i < 6 && d.empty(); ++i)
    d = rig.controller.tick(busy(/*mid-band*/ 200, 100));
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], Decision::kShrinkWorkers);
  ASSERT_EQ(rig.controller.workers(), 1);
  // The probe cost 20% throughput (> max_loss): verification restores it.
  d = rig.controller.tick(busy(200, 80));
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], Decision::kRevertShrink);
  EXPECT_EQ(rig.controller.workers(), 2);
  EXPECT_EQ(rig.controller.reverts(), 1u);
}

TEST(AdaptController, GrainBandsCoarsenAndRefineMultiplicatively) {
  adapt::AdaptationController::Config cfg;
  cfg.cooldown_ticks = 0;
  obs::MetricsRegistry registry;
  adapt::AdaptationController c(cfg, registry);
  c.set_grain_knob(adapt::Knob("grain", 1, 64, 8, [](std::int64_t) {}));

  adapt::Signals s = busy(200, 100);
  s.run_mean_us = 5.0;  // envelope-dominated: coarsen
  auto d = c.tick(s);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], Decision::kGrainCoarsen);
  EXPECT_EQ(c.grain(), 16);

  s.run_mean_us = 5000.0;  // tail-heavy: refine
  d = c.tick(s);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], Decision::kGrainRefine);
  EXPECT_EQ(c.grain(), 8);

  s.run_mean_us = 500.0;  // inside the band: hold
  EXPECT_TRUE(c.tick(s).empty());
  EXPECT_EQ(c.grain(), 8);
}

TEST(AdaptController, FeederDepthFollowsQueueWaitBands) {
  adapt::AdaptationController::Config cfg;
  cfg.cooldown_ticks = 0;
  obs::MetricsRegistry registry;
  adapt::AdaptationController c(cfg, registry);
  c.set_feeder_knob(adapt::Knob("feeder", 1, 16, 2, [](std::int64_t) {}));

  auto d = c.tick(busy(/*deep*/ 1000, 100));
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], Decision::kFeederDeepen);
  EXPECT_EQ(c.feeder_depth(), 4);
  d = c.tick(busy(/*shallow*/ 10, 100));
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], Decision::kFeederShallow);
  EXPECT_EQ(c.feeder_depth(), 2);
}

TEST(AdaptController, RoutingHysteresisNeverFlapsInsideTheBand) {
  adapt::AdaptationController::Config cfg;
  cfg.cooldown_ticks = 0;
  obs::MetricsRegistry registry;
  adapt::AdaptationController c(cfg, registry);
  c.set_routing_knob(adapt::Knob("routing", 0, 1, 0, [](std::int64_t) {}));

  adapt::Signals s = busy(200, 100);
  s.rtt_p95_us = 5000.0;  // above promote threshold
  auto d = c.tick(s);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], Decision::kPromoteFast);
  EXPECT_EQ(c.routing(), 1);
  // Anywhere inside [demote, promote) holds the plane steady.
  s.rtt_p95_us = 1000.0;
  EXPECT_TRUE(c.tick(s).empty());
  EXPECT_EQ(c.routing(), 1);
  s.rtt_p95_us = 100.0;  // below demote
  d = c.tick(s);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], Decision::kDemoteFast);
  EXPECT_EQ(c.routing(), 0);
  // No RTT signal at all (no net phase): hold.
  s.rtt_p95_us = 0.0;
  EXPECT_TRUE(c.tick(s).empty());
}

TEST(AdaptController, UnwiredKnobsNeverDecide) {
  obs::MetricsRegistry registry;
  adapt::AdaptationController c(adapt::AdaptationController::Config{},
                                registry);
  adapt::Signals s = busy(100'000, 100);
  s.run_mean_us = 1.0;
  s.rtt_p95_us = 100'000.0;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(c.tick(s).empty());
  EXPECT_EQ(c.decisions(), 0u);
}

TEST(AdaptController, PublishesAdaptGauges) {
  obs::MetricsRegistry registry;
  adapt::AdaptationController c(adapt::AdaptationController::Config{},
                                registry);
  c.set_workers_knob(adapt::Knob("workers", 1, 4, 2, [](std::int64_t) {}));
  c.tick(busy(2000, 100));
  EXPECT_EQ(registry.gauge("adapt.workers")->value(), 3);
  EXPECT_EQ(registry.gauge("adapt.last_decision")->value(),
            static_cast<int>(Decision::kGrowWorkers));
  // The exported counters are the controller's own.
  EXPECT_EQ(registry.value("adapt.ticks"), 1);
  EXPECT_EQ(registry.value("adapt.decisions"), 1);
  EXPECT_EQ(c.ticks(), 1u);
  EXPECT_EQ(c.decisions(), 1u);
}

TEST(AdaptController, DecisionNamesAreStable) {
  EXPECT_EQ(adapt::decision_name(Decision::kNone), "none");
  EXPECT_EQ(adapt::decision_name(Decision::kGrowWorkers), "grow-workers");
  EXPECT_EQ(adapt::decision_name(Decision::kRevertShrink), "revert-shrink");
  EXPECT_EQ(adapt::decision_name(Decision::kPromoteFast), "promote-fast");
}

}  // namespace
