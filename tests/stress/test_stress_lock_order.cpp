// Seeded deadlock-hazard stress: two independent concurrency aspects each
// guard one Worker method with their own SyncRegistry, and two "bridge"
// advice (order kOptimisation, inside the guards) cross-call the other
// method — the classic ABBA shape. The conflicting acquisition orders are
// driven in serialized phases so the test itself can never hang, but the
// plugged LockOrderAspect must still report the cycle: the order graph
// remembers what a lucky schedule got away with.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "../aop/fixtures.hpp"
#include "apar/analysis/effects.hpp"
#include "apar/analysis/lock_order_aspect.hpp"
#include "apar/aop/aop.hpp"
#include "apar/concurrency/sync_observer.hpp"
#include "apar/strategies/concurrency_aspect.hpp"
#include "stress_common.hpp"

namespace an = apar::analysis;
namespace aop = apar::aop;
namespace acc = apar::concurrency;
namespace strategies = apar::strategies;
using apar::test::Worker;
using apar::test::announce_stress_seed;

namespace {

bool has_cycle(const an::Report& report) {
  for (const an::Finding& f : report.findings())
    if (f.kind == an::FindingKind::kLockOrderCycle) return true;
  return false;
}

/// The static effects pass's counterpart finding, if any: a
/// static-lock-order-cycle whose subject lists the aspects on the loop.
const an::Finding* static_cycle(const an::Report& report) {
  for (const an::Finding& f : report.findings())
    if (f.kind == an::FindingKind::kStaticLockOrderCycle) return &f;
  return nullptr;
}

}  // namespace

TEST(StressLockOrder, AbbaBetweenTwoSyncAspectsIsReported) {
#ifdef APAR_THREAD_SANITIZED
  GTEST_SKIP() << "TSan flags the deliberate lock-order inversion itself; "
                  "the aspect-level detection is covered without it";
#endif
  const std::uint64_t seed = announce_stress_seed(0x10C0);

  aop::Context ctx;

  // Each sync aspect owns a private SyncRegistry, so the same Worker is
  // guarded by two distinct monitors — the precondition for ABBA.
  auto sync_process =
      std::make_shared<strategies::ConcurrencyAspect<Worker>>("SyncProcess");
  sync_process->guarded_method<&Worker::process>();
  auto sync_compute =
      std::make_shared<strategies::ConcurrencyAspect<Worker>>("SyncCompute");
  sync_compute->guarded_method<&Worker::compute>();
  ctx.attach(sync_process);
  ctx.attach(sync_compute);

  // Bridges sit INSIDE the guards (kOptimisation > kConcurrencySync) and
  // cross-call the other guarded method. core_only keeps them off the
  // nested calls they make themselves, so the chains terminate:
  //   core process -> [SyncProcess] -> bridge -> compute -> [SyncCompute]
  //   core compute -> [SyncCompute] -> bridge -> process -> [SyncProcess]
  auto bridge_p = std::make_shared<aop::Aspect>("BridgeProcess");
  bridge_p
      ->around_method<&Worker::process>(
          aop::order::kOptimisation, aop::Scope::core_only(),
          [](auto& inv) {
            (void)inv.context().template call<&Worker::compute>(inv.target(),
                                                                1);
            return inv.proceed();
          })
      .mark_initiates({"Worker.compute"});
  auto bridge_c = std::make_shared<aop::Aspect>("BridgeCompute");
  bridge_c
      ->around_method<&Worker::compute>(
          aop::order::kOptimisation, aop::Scope::core_only(),
          [](auto& inv) {
            std::vector<int> nested{1, 2};
            inv.context().template call<&Worker::process>(inv.target(),
                                                          nested);
            return inv.proceed();
          })
      .mark_initiates({"Worker.process"});
  ctx.attach(bridge_p);
  ctx.attach(bridge_c);

  auto lock_order = std::make_shared<an::LockOrderAspect>();
  ctx.attach(lock_order);

  // The static effects pass must convict this plan before a single thread
  // runs: the mark_initiates declarations give it the same may-acquire
  // edges the dynamic observer will later record.
  const an::Report plan_report = an::analyze_effects(ctx);
  const an::Finding* predicted = static_cycle(plan_report);
  ASSERT_NE(predicted, nullptr) << "static pass missed the ABBA plan";
  EXPECT_EQ(predicted->severity, an::Severity::kError);
  EXPECT_NE(predicted->subject.find("SyncProcess"), std::string::npos)
      << predicted->subject;
  EXPECT_NE(predicted->subject.find("SyncCompute"), std::string::npos)
      << predicted->subject;

  auto worker = ctx.create<Worker>(1);

  // Drive both acquisition orders from distinct threads, serialized by
  // join so the hazard can never actually wedge the test. The seed only
  // perturbs which side goes first each round — the cycle must be found
  // regardless, and a failing seed replays exactly.
  const int rounds = 4;
  for (int round = 0; round < rounds; ++round) {
    auto rng = apar::common::rng_at(seed, static_cast<std::uint64_t>(round));
    const bool process_first = rng.uniform(0, 1) == 0;
    const std::function<void()> run_process = [&] {
      std::vector<int> pack{1, 2, 3};
      ctx.call<&Worker::process>(worker, pack);
    };
    const std::function<void()> run_compute = [&] {
      ctx.call<&Worker::compute>(worker, 5);
    };
    {
      std::thread t(process_first ? run_process : run_compute);
      t.join();
    }
    {
      std::thread t(process_first ? run_compute : run_process);
      t.join();
    }
  }

  // Both nesting orders were observed, so the graph has the ABBA cycle —
  // the dynamic observer confirms exactly what the static pass predicted
  // above from the weave plan alone.
  EXPECT_GE(lock_order->edges(), 2u) << "seed " << seed;
  const an::Report report = lock_order->report();
  EXPECT_TRUE(has_cycle(report)) << "seed " << seed << "\n" << report.table();

  // Unplug: the observer slot is released and later traffic is invisible.
  ctx.detach(lock_order->name());
  EXPECT_EQ(acc::sync_observer(), nullptr);
  const std::size_t frozen = lock_order->acquisitions();
  std::vector<int> pack{4};
  ctx.call<&Worker::process>(worker, pack);
  EXPECT_EQ(lock_order->acquisitions(), frozen);

  ctx.quiesce();
}

TEST(StressLockOrder, ConsistentBridgeOrderStaysClean) {
  // Control: only one bridge direction exists, so every thread nests the
  // monitors the same way — the analyzer must stay silent no matter how
  // the seeded schedule orders the rounds.
  const std::uint64_t seed = announce_stress_seed(0x10C1);

  aop::Context ctx;
  auto sync_process =
      std::make_shared<strategies::ConcurrencyAspect<Worker>>("SyncProcess");
  sync_process->guarded_method<&Worker::process>();
  auto sync_compute =
      std::make_shared<strategies::ConcurrencyAspect<Worker>>("SyncCompute");
  sync_compute->guarded_method<&Worker::compute>();
  ctx.attach(sync_process);
  ctx.attach(sync_compute);

  auto bridge_p = std::make_shared<aop::Aspect>("BridgeProcess");
  bridge_p
      ->around_method<&Worker::process>(
          aop::order::kOptimisation, aop::Scope::core_only(),
          [](auto& inv) {
            (void)inv.context().template call<&Worker::compute>(inv.target(),
                                                                1);
            return inv.proceed();
          })
      .mark_initiates({"Worker.compute"});
  ctx.attach(bridge_p);

  auto lock_order = std::make_shared<an::LockOrderAspect>();
  ctx.attach(lock_order);

  // One-directional bridging gives the static pass a single may-acquire
  // edge — no loop, so it must agree with the dynamic observer below.
  EXPECT_EQ(static_cycle(an::analyze_effects(ctx)), nullptr);

  auto worker = ctx.create<Worker>(2);
  for (int round = 0; round < 4; ++round) {
    auto rng = apar::common::rng_at(seed, static_cast<std::uint64_t>(round));
    const auto calls = 1 + rng.uniform(0, 2);
    for (std::uint64_t i = 0; i < calls; ++i) {
      std::thread t([&] {
        std::vector<int> pack{1, 2, 3};
        ctx.call<&Worker::process>(worker, pack);
      });
      t.join();
      std::thread u([&] { ctx.call<&Worker::compute>(worker, 5); });
      u.join();
    }
  }

  const an::Report report = lock_order->report();
  EXPECT_FALSE(has_cycle(report)) << "seed " << seed << "\n" << report.table();
  ctx.detach(lock_order->name());
  ctx.quiesce();
}
