#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <thread>

#include "apar/common/stopwatch.hpp"
#include "apar/strategies/concurrency_aspect.hpp"
#include "apar/strategies/optimisation_aspects.hpp"
#include "fixtures.hpp"

namespace aop = apar::aop;
namespace st = apar::strategies;
using apar::test::SlowStage;

using Conc = st::ConcurrencyAspect<SlowStage>;

namespace {
std::shared_ptr<Conc> make_conc() {
  auto conc = std::make_shared<Conc>("Concurrency");
  conc->async_method<&SlowStage::process>()
      .guarded_method<&SlowStage::collect>();
  return conc;
}
}  // namespace

TEST(ConcurrencyAspect, AsyncCallReturnsBeforeExecutionCompletes) {
  aop::Context ctx;
  ctx.attach(make_conc());
  auto stage = ctx.create<SlowStage>(0LL, 20'000LL);  // 20 ms per call
  std::vector<long long> pack{1};
  apar::common::Stopwatch sw;
  ctx.call<&SlowStage::process>(stage, pack);
  EXPECT_LT(sw.millis(), 15.0);  // returned before the 20 ms body ran
  ctx.quiesce();
  EXPECT_EQ(stage.local()->calls(), 2);  // filter + collect
}

TEST(ConcurrencyAspect, AsyncArgumentsAreCopiedByValue) {
  aop::Context ctx;
  ctx.attach(make_conc());
  auto stage = ctx.create<SlowStage>(5LL);
  std::vector<long long> pack{1, 2};
  ctx.call<&SlowStage::process>(stage, pack);
  ctx.quiesce();
  EXPECT_EQ(pack, (std::vector<long long>{1, 2}));  // caller's pack intact
  EXPECT_EQ(stage.local()->take_results(),
            (std::vector<long long>{6, 7}));
}

TEST(ConcurrencyAspect, MonitorPreventsConcurrentEntry) {
  aop::Context ctx;
  ctx.attach(make_conc());
  auto stage = ctx.create<SlowStage>(0LL, 1'000LL);
  std::vector<long long> pack{1};
  for (int i = 0; i < 16; ++i) ctx.call<&SlowStage::process>(stage, pack);
  ctx.quiesce();
  EXPECT_FALSE(stage.local()->overlapped());
  EXPECT_EQ(stage.local()->calls(), 32);
}

TEST(ConcurrencyAspect, WithoutAspectRacesAreExposed) {
  // Control experiment: driving the same object from raw threads without
  // the concurrency aspect's monitor does overlap — the aspect is what
  // prevents it. Only filter() runs here: process() would also append to
  // the stage's unguarded results vector from every thread at once, a
  // real data race that corrupts the heap.
  aop::Context ctx;
  auto stage = ctx.create<SlowStage>(0LL, 2'000LL);
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i)
    threads.emplace_back([&] {
      std::vector<long long> pack{1};
      stage.local()->filter(pack);
    });
  for (auto& t : threads) t.join();
  EXPECT_TRUE(stage.local()->overlapped());
}

TEST(ConcurrencyAspect, UnpluggedExecutionIsSequentialAndValid) {
  // Paper §4.2: "the program must be valid without concurrency".
  aop::Context ctx;
  auto conc = make_conc();
  ctx.attach(conc);
  ctx.detach("Concurrency");
  auto stage = ctx.create<SlowStage>(3LL);
  std::vector<long long> pack{1, 2, 3};
  ctx.call<&SlowStage::process>(stage, pack);
  // Synchronous: effects visible immediately, argument mutated in place.
  EXPECT_EQ(pack, (std::vector<long long>{4, 5, 6}));
  EXPECT_EQ(stage.local()->take_results(), (std::vector<long long>{4, 5, 6}));
}

TEST(ConcurrencyAspect, DisabledAspectBehavesAsUnplugged) {
  aop::Context ctx;
  auto conc = make_conc();
  ctx.attach(conc);
  conc->set_enabled(false);
  auto stage = ctx.create<SlowStage>(1LL);
  std::vector<long long> pack{0};
  ctx.call<&SlowStage::process>(stage, pack);
  EXPECT_EQ(pack, (std::vector<long long>{1}));
}

TEST(ConcurrencyAspect, PooledModeRunsAllCalls) {
  aop::Context ctx;
  auto conc = make_conc();
  conc->use_pool(3);
  EXPECT_TRUE(conc->pooled());
  ctx.attach(conc);
  auto stage = ctx.create<SlowStage>(0LL);
  std::vector<long long> pack{1};
  for (int i = 0; i < 25; ++i) ctx.call<&SlowStage::process>(stage, pack);
  ctx.quiesce();
  EXPECT_EQ(stage.local()->calls(), 50);
  EXPECT_FALSE(stage.local()->overlapped());
  EXPECT_EQ(conc->spawned(), 25u);
}

TEST(ConcurrencyAspect, ThreadPoolOptimisationFlipsNamedAspect) {
  aop::Context ctx;
  auto conc = make_conc();
  ctx.attach(conc);
  EXPECT_FALSE(conc->pooled());
  auto opt = std::make_shared<st::optimisation::ThreadPoolOptimisation>(
      "Concurrency", 4);
  ctx.attach(opt);
  EXPECT_TRUE(conc->pooled());
  ctx.detach("ThreadPoolOpt");
  EXPECT_FALSE(conc->pooled());
}

TEST(ConcurrencyAspect, ThreadPoolOptimisationIgnoresMissingTarget) {
  aop::Context ctx;
  auto opt = std::make_shared<st::optimisation::ThreadPoolOptimisation>(
      "NoSuchAspect", 4);
  EXPECT_NO_THROW(ctx.attach(opt));
  EXPECT_NO_THROW(ctx.detach("ThreadPoolOpt"));
}
