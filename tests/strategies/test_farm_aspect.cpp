#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "apar/strategies/concurrency_aspect.hpp"
#include "apar/strategies/farm_aspect.hpp"
#include "fixtures.hpp"

namespace aop = apar::aop;
namespace st = apar::strategies;
using apar::test::SlowStage;

using Farm = st::FarmAspect<SlowStage, long long, long long, long long>;

namespace {
Farm::Options farm_options(std::size_t workers, std::size_t pack_size) {
  Farm::Options opts;
  opts.duplicates = workers;
  opts.pack_size = pack_size;
  return opts;
}

std::vector<long long> iota_data(std::size_t n) {
  std::vector<long long> data(n);
  std::iota(data.begin(), data.end(), 0);
  return data;
}
}  // namespace

TEST(FarmAspect, BroadcastCtorArgsToAllWorkers) {
  aop::Context ctx;
  auto farm = std::make_shared<Farm>(farm_options(4, 10));
  ctx.attach(farm);
  auto first = ctx.create<SlowStage>(7LL, 0LL);
  ASSERT_EQ(farm->workers().size(), 4u);
  for (const auto& w : farm->workers()) EXPECT_EQ(w.local()->id(), 7);
  EXPECT_EQ(first.identity(), farm->workers().front().identity());
}

TEST(FarmAspect, RoundRobinSpreadsPacksEvenly) {
  aop::Context ctx;
  auto farm = std::make_shared<Farm>(farm_options(4, 10));
  ctx.attach(farm);
  auto first = ctx.create<SlowStage>(0LL, 0LL);
  auto data = iota_data(120);  // 12 packs over 4 workers
  ctx.call<&SlowStage::process>(first, data);
  ctx.quiesce();
  for (const auto& w : farm->workers()) EXPECT_EQ(w.local()->calls(), 3 * 2);
}

TEST(FarmAspect, ResultsMatchSequentialCore) {
  aop::Context ctx;
  auto farm = std::make_shared<Farm>(farm_options(3, 7));
  ctx.attach(farm);
  auto first = ctx.create<SlowStage>(100LL, 0LL);
  auto data = iota_data(50);
  ctx.call<&SlowStage::process>(first, data);
  ctx.quiesce();
  auto results = farm->gather_results(ctx);
  std::sort(results.begin(), results.end());

  SlowStage reference(100);
  auto ref_data = iota_data(50);
  reference.process(ref_data);
  auto expected = reference.take_results();
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(results, expected);
}

TEST(FarmAspect, ConcurrentFarmMatchesCore) {
  aop::Context ctx;
  auto farm = std::make_shared<Farm>(farm_options(4, 5));
  ctx.attach(farm);
  auto conc = std::make_shared<st::ConcurrencyAspect<SlowStage>>("Concurrency");
  conc->async_method<&SlowStage::process>();
  ctx.attach(conc);

  auto first = ctx.create<SlowStage>(10LL, 100LL);
  auto data = iota_data(100);
  ctx.call<&SlowStage::process>(first, data);
  ctx.quiesce();
  auto results = farm->gather_results(ctx);
  EXPECT_EQ(results.size(), 100u);
  for (const auto& w : farm->workers()) EXPECT_FALSE(w.local()->overlapped());
}

TEST(FarmAspect, RandomRoutingCoversAllWorkersEventually) {
  aop::Context ctx;
  auto opts = farm_options(4, 1);
  opts.routing = st::RoutingPolicy::kRandom;
  auto farm = std::make_shared<Farm>(opts);
  ctx.attach(farm);
  auto first = ctx.create<SlowStage>(0LL, 0LL);
  auto data = iota_data(200);  // 200 single-element packs
  ctx.call<&SlowStage::process>(first, data);
  ctx.quiesce();
  for (const auto& w : farm->workers()) EXPECT_GT(w.local()->calls(), 0);
  EXPECT_EQ(farm->gather_results(ctx).size(), 200u);
}

TEST(FarmAspect, SingleWorkerFarmEqualsCore) {
  aop::Context ctx;
  auto farm = std::make_shared<Farm>(farm_options(1, 1000));
  ctx.attach(farm);
  auto first = ctx.create<SlowStage>(5LL, 0LL);
  auto data = iota_data(20);
  ctx.call<&SlowStage::process>(first, data);
  ctx.quiesce();
  EXPECT_EQ(farm->gather_results(ctx).size(), 20u);
}

TEST(FarmAspect, SwappingPipelineForFarmIsAnAspectSwap) {
  // Paper §7: "exchanging a pipeline by a farm partition" is plugging a
  // different module — the core code below is identical in both runs.
  aop::Context ctx;
  auto farm = std::make_shared<Farm>(farm_options(2, 10));
  ctx.attach(farm);
  {
    auto first = ctx.create<SlowStage>(1LL, 0LL);
    auto data = iota_data(30);
    ctx.call<&SlowStage::process>(first, data);
    ctx.quiesce();
    EXPECT_EQ(farm->gather_results(ctx).size(), 30u);
  }
  ctx.detach("Farm");
  {
    // Same core lines, no partition: plain sequential behaviour.
    auto first = ctx.create<SlowStage>(1LL, 0LL);
    auto data = iota_data(30);
    ctx.call<&SlowStage::process>(first, data);
    ctx.quiesce();
    EXPECT_EQ(first.local()->take_results().size(), 30u);
  }
}

TEST(ForEachPack, HoldsOnlyThePackInHand) {
  // The farm and pipeline splits dispatch through for_each_pack: each pack
  // is handed on before the next is cut, so a dispatch that keeps its own
  // copy (an asynchronous call) never coexists with a copy of every pack.
  std::vector<std::shared_ptr<int>> data;
  for (int i = 0; i < 10; ++i) data.push_back(std::make_shared<int>(i));
  std::vector<std::size_t> sizes;
  std::vector<long> held_outside_pack;
  st::for_each_pack(data, 4, [&](std::vector<std::shared_ptr<int>>& pack) {
    sizes.push_back(pack.size());
    long extra = 0;
    for (const auto& e : data) extra += e.use_count() - 1;
    held_outside_pack.push_back(extra - static_cast<long>(pack.size()));
  });
  EXPECT_EQ(sizes, (std::vector<std::size_t>{4, 4, 2}));
  EXPECT_EQ(held_outside_pack, (std::vector<long>{0, 0, 0}));

  std::size_t packs = 0;
  st::for_each_pack(data, 0, [&](auto& pack) {
    EXPECT_EQ(pack.size(), 1u);  // a pack size of 0 cuts single elements
    ++packs;
  });
  EXPECT_EQ(packs, data.size());
  EXPECT_EQ(st::split_into_packs(data, 4).size(), 3u);
}
