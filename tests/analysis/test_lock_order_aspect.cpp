// The dynamic half of apar-analyze: LockOrderAspect builds a lock-order
// graph from SyncRegistry acquisitions, flags cycles and blocking waits
// under a monitor, and — like every aspect in this codebase — leaves zero
// residue once unplugged.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "../aop/fixtures.hpp"
#include "apar/analysis/lock_order_aspect.hpp"
#include "apar/aop/aop.hpp"
#include "apar/concurrency/future.hpp"
#include "apar/concurrency/sync_observer.hpp"
#include "apar/concurrency/sync_registry.hpp"

namespace an = apar::analysis;
namespace aop = apar::aop;
namespace acc = apar::concurrency;
using apar::test::Worker;

// Tests that script a deliberate ABBA acquisition order are exactly what
// TSan's lock-order-inversion detector exists to flag; under TSan they
// skip — the point of these tests is that the *aspect* catches the hazard
// without instrumentation. The other sanitizers run them.
#ifdef APAR_THREAD_SANITIZED
#define APAR_SKIP_DELIBERATE_INVERSION() \
  GTEST_SKIP() << "deliberate lock-order inversion; TSan reports it directly"
#else
#define APAR_SKIP_DELIBERATE_INVERSION() (void)0
#endif

namespace {

std::size_t count_kind(const an::Report& report, an::FindingKind kind) {
  return static_cast<std::size_t>(
      std::count_if(report.findings().begin(), report.findings().end(),
                    [&](const an::Finding& f) { return f.kind == kind; }));
}

/// Attach a fresh LockOrderAspect to a fresh context; both live for the
/// test body's scope, and detach runs even on early ASSERT exits.
struct Plugged {
  aop::Context ctx;
  std::shared_ptr<an::LockOrderAspect> aspect =
      std::make_shared<an::LockOrderAspect>();
  Plugged() { ctx.attach(aspect); }
  ~Plugged() { ctx.detach(aspect->name()); }
};

}  // namespace

TEST(LockOrderAspect, ConsistentOrderReportsNothing) {
  Plugged plugged;
  acc::SyncRegistry monitors;
  int a = 0, b = 0;
  for (int i = 0; i < 3; ++i) {
    auto first = monitors.acquire(&a);
    auto second = monitors.acquire(&b);
  }
  EXPECT_EQ(plugged.aspect->acquisitions(), 6u);
  EXPECT_EQ(plugged.aspect->edges(), 1u);  // a -> b, recorded once
  EXPECT_TRUE(plugged.aspect->report().empty());
}

TEST(LockOrderAspect, AbbaOrderIsACycle) {
  APAR_SKIP_DELIBERATE_INVERSION();
  Plugged plugged;
  acc::SyncRegistry monitors;
  int a = 0, b = 0;
  {
    auto first = monitors.acquire(&a);
    auto second = monitors.acquire(&b);
  }
  {
    auto first = monitors.acquire(&b);
    auto second = monitors.acquire(&a);
  }
  const an::Report report = plugged.aspect->report();
  ASSERT_EQ(count_kind(report, an::FindingKind::kLockOrderCycle), 1u)
      << report.table();
  const an::Finding& f = report.findings().front();
  EXPECT_EQ(f.severity, an::Severity::kError);
  EXPECT_EQ(f.subject, "monitor#1 -> monitor#2 -> monitor#1");
}

TEST(LockOrderAspect, SameObjectInTwoRegistriesIsTwoMonitors) {
  // Two sync aspects guarding one object hold distinct locks: conflicting
  // nesting across their registries is a real ABBA, and must be seen as
  // two graph nodes even though the object address is shared.
  APAR_SKIP_DELIBERATE_INVERSION();
  Plugged plugged;
  acc::SyncRegistry registry_a, registry_b;
  int object = 0;
  {
    auto first = registry_a.acquire(&object);
    auto second = registry_b.acquire(&object);
  }
  {
    auto first = registry_b.acquire(&object);
    auto second = registry_a.acquire(&object);
  }
  const an::Report report = plugged.aspect->report();
  EXPECT_EQ(count_kind(report, an::FindingKind::kLockOrderCycle), 1u)
      << report.table();
}

TEST(LockOrderAspect, RecursiveReentryIsNotAnEdge) {
  Plugged plugged;
  acc::SyncRegistry monitors;
  int a = 0;
  auto outer = monitors.acquire(&a);
  auto inner = monitors.acquire(&a);
  EXPECT_EQ(plugged.aspect->acquisitions(), 2u);
  EXPECT_EQ(plugged.aspect->edges(), 0u);
  EXPECT_TRUE(plugged.aspect->report().empty());
}

TEST(LockOrderAspect, WaitUnderMonitorIsFlagged) {
  Plugged plugged;
  acc::SyncRegistry monitors;
  int a = 0;
  acc::Promise<int> promise;
  auto future = promise.future();
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    promise.set_value(7);
  });
  {
    auto guard = monitors.acquire(&a);
    EXPECT_EQ(future.get(), 7);  // blocks while holding the monitor
  }
  producer.join();
  EXPECT_GE(plugged.aspect->waits_with_monitor_held(), 1u);
  const an::Report report = plugged.aspect->report();
  EXPECT_EQ(count_kind(report, an::FindingKind::kWaitWithMonitorHeld), 1u)
      << report.table();
}

TEST(LockOrderAspect, WaitWithoutMonitorIsClean) {
  Plugged plugged;
  acc::Promise<int> promise;
  auto future = promise.future();
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    promise.set_value(7);
  });
  EXPECT_EQ(future.get(), 7);
  producer.join();
  EXPECT_EQ(plugged.aspect->waits_with_monitor_held(), 0u);
  EXPECT_TRUE(plugged.aspect->report().empty());
}

TEST(LockOrderAspect, ResetDropsObservations) {
  APAR_SKIP_DELIBERATE_INVERSION();
  Plugged plugged;
  acc::SyncRegistry monitors;
  int a = 0, b = 0;
  {
    auto first = monitors.acquire(&a);
    auto second = monitors.acquire(&b);
  }
  {
    auto first = monitors.acquire(&b);
    auto second = monitors.acquire(&a);
  }
  ASSERT_FALSE(plugged.aspect->report().empty());
  plugged.aspect->reset();
  EXPECT_EQ(plugged.aspect->acquisitions(), 0u);
  EXPECT_EQ(plugged.aspect->edges(), 0u);
  EXPECT_TRUE(plugged.aspect->report().empty());
}

// The unpluggability acceptance test — the mirror of
// ProfilingAspect.UnpluggedMeansZeroWrites: once detached, monitor traffic
// leaves no trace in the aspect and the observer slot is released.
TEST(LockOrderAspect, UnpluggedMeansZeroWrites) {
  APAR_SKIP_DELIBERATE_INVERSION();  // the post-detach traffic inverts b/a
  aop::Context ctx;
  auto aspect = std::make_shared<an::LockOrderAspect>();
  ctx.attach(aspect);
  acc::SyncRegistry monitors;
  int a = 0, b = 0;
  {
    auto first = monitors.acquire(&a);
    auto second = monitors.acquire(&b);
  }
  const std::size_t plugged_acquisitions = aspect->acquisitions();
  const std::size_t plugged_edges = aspect->edges();
  ASSERT_EQ(plugged_acquisitions, 2u);
  ASSERT_EQ(plugged_edges, 1u);

  // Unplug; the observer slot must be empty again and every subsequent
  // acquisition — including new objects and conflicting orders — must
  // leave the aspect's state frozen.
  ASSERT_NE(ctx.detach("LockOrder"), nullptr);
  EXPECT_EQ(acc::sync_observer(), nullptr);
  int c = 0;
  {
    auto first = monitors.acquire(&b);
    auto second = monitors.acquire(&a);
    auto third = monitors.acquire(&c);
  }
  EXPECT_EQ(aspect->acquisitions(), plugged_acquisitions);
  EXPECT_EQ(aspect->edges(), plugged_edges);
  EXPECT_TRUE(aspect->report().empty());
}

TEST(LockOrderAspect, DetachRestoresPreviousObserver) {
  // Stacked plugging: the inner aspect restores the outer one on detach,
  // so observers nest like the aspects they belong to.
  aop::Context ctx;
  auto outer = std::make_shared<an::LockOrderAspect>("OuterLockOrder");
  auto inner = std::make_shared<an::LockOrderAspect>("InnerLockOrder");
  ctx.attach(outer);
  ctx.attach(inner);
  EXPECT_EQ(acc::sync_observer(), inner.get());
  ctx.detach("InnerLockOrder");
  EXPECT_EQ(acc::sync_observer(), outer.get());
  ctx.detach("OuterLockOrder");
  EXPECT_EQ(acc::sync_observer(), nullptr);
}
