#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "apar/cluster/middleware.hpp"
#include "apar/strategies/concurrency_aspect.hpp"
#include "apar/strategies/distribution_aspect.hpp"
#include "apar/strategies/farm_aspect.hpp"
#include "apar/strategies/pipeline_aspect.hpp"
#include "fixtures.hpp"

namespace aop = apar::aop;
namespace ac = apar::cluster;
namespace st = apar::strategies;
using apar::test::SlowStage;

using Dist = st::DistributionAspect<SlowStage, long long, long long>;

namespace {

void register_slow_stage(ac::rpc::Registry& registry) {
  registry.bind<SlowStage>("SlowStage")
      .ctor<long long, long long>()
      .method<&SlowStage::filter>("filter")
      .method<&SlowStage::process>("process")
      .method<&SlowStage::collect>("collect")
      .method<&SlowStage::take_results>("take_results");
}

struct DistFixture {
  DistFixture(bool mpp = false) {
    ac::Cluster::Options copts;
    copts.nodes = 3;
    copts.executors_per_node = 2;
    cluster = std::make_unique<ac::Cluster>(copts);
    register_slow_stage(cluster->registry());
    if (mpp)
      middleware = std::make_unique<ac::MppMiddleware>(
          *cluster, ac::CostModel::loopback());
    else
      middleware = std::make_unique<ac::RmiMiddleware>(
          *cluster, ac::CostModel::loopback());
  }

  std::shared_ptr<Dist> make_aspect(Dist::Options opts = {}) {
    auto dist =
        std::make_shared<Dist>("Distribution", *cluster, *middleware, opts);
    dist->distribute_method<&SlowStage::filter>()
        .distribute_method<&SlowStage::process>(/*allow_one_way=*/true)
        .distribute_method<&SlowStage::collect>()
        .distribute_method<&SlowStage::take_results>();
    return dist;
  }

  std::unique_ptr<ac::Cluster> cluster;
  std::unique_ptr<ac::Middleware> middleware;
};

}  // namespace

TEST(DistributionAspect, CreationIsPlacedRemotely) {
  DistFixture fx;
  aop::Context ctx;
  ctx.attach(fx.make_aspect());
  auto ref = ctx.create<SlowStage>(5LL, 0LL);
  EXPECT_TRUE(ref.is_remote());
  EXPECT_FALSE(ref.is_local());
  EXPECT_NE(ref.describe().find("SlowStage@node"), std::string::npos);
  ctx.detach("Distribution");
  // Unplugged: creations are local again (paper: shared-memory version).
  auto local = ctx.create<SlowStage>(5LL, 0LL);
  EXPECT_TRUE(local.is_local());
}

TEST(DistributionAspect, RoundRobinPlacement) {
  DistFixture fx;
  aop::Context ctx;
  ctx.attach(fx.make_aspect());
  for (int i = 0; i < 6; ++i) ctx.create<SlowStage>(0LL, 0LL);
  EXPECT_EQ(fx.cluster->node(0).object_count(), 2u);
  EXPECT_EQ(fx.cluster->node(1).object_count(), 2u);
  EXPECT_EQ(fx.cluster->node(2).object_count(), 2u);
}

TEST(DistributionAspect, RandomPlacementStaysInRange) {
  DistFixture fx;
  aop::Context ctx;
  Dist::Options opts;
  opts.placement = st::PlacementPolicy::kRandom;
  ctx.attach(fx.make_aspect(opts));
  for (int i = 0; i < 12; ++i) ctx.create<SlowStage>(0LL, 0LL);
  std::size_t total = 0;
  for (ac::NodeId n = 0; n < 3; ++n)
    total += fx.cluster->node(n).object_count();
  EXPECT_EQ(total, 12u);
}

TEST(DistributionAspect, RemoteCallRoundTripsWithCopyRestore) {
  DistFixture fx;
  aop::Context ctx;
  ctx.attach(fx.make_aspect());
  auto ref = ctx.create<SlowStage>(10LL, 0LL);
  std::vector<long long> pack{1, 2, 3};
  ctx.call<&SlowStage::filter>(ref, pack);
  // The remote filter added id=10 in place; copy-restore brought it back.
  EXPECT_EQ(pack, (std::vector<long long>{11, 12, 13}));
}

TEST(DistributionAspect, RemoteResultsReturn) {
  DistFixture fx;
  aop::Context ctx;
  ctx.attach(fx.make_aspect());
  auto ref = ctx.create<SlowStage>(1LL, 0LL);
  std::vector<long long> pack{5};
  ctx.call<&SlowStage::process>(ref, pack);
  ctx.quiesce();
  auto results = ctx.call<&SlowStage::take_results>(ref);
  EXPECT_EQ(results, (std::vector<long long>{6}));
}

TEST(DistributionAspect, OneWayUsedOnlyWhenMiddlewareSupportsIt) {
  {
    DistFixture rmi(false);
    aop::Context ctx;
    ctx.attach(rmi.make_aspect());
    auto ref = ctx.create<SlowStage>(0LL, 0LL);
    std::vector<long long> pack{1};
    ctx.call<&SlowStage::process>(ref, pack);
    EXPECT_EQ(rmi.middleware->stats().one_way_calls.value(), 0u);
    EXPECT_GT(rmi.middleware->stats().sync_calls.value(), 0u);
  }
  {
    DistFixture mpp(true);
    aop::Context ctx;
    ctx.attach(mpp.make_aspect());
    auto ref = ctx.create<SlowStage>(0LL, 0LL);
    std::vector<long long> pack{1};
    ctx.call<&SlowStage::process>(ref, pack);
    ctx.quiesce();
    EXPECT_EQ(mpp.middleware->stats().one_way_calls.value(), 1u);
  }
}

TEST(DistributionAspect, NamesRegisteredLikeFigure14) {
  DistFixture fx;
  aop::Context ctx;
  ctx.attach(fx.make_aspect());
  ctx.create<SlowStage>(0LL, 0LL);
  ctx.create<SlowStage>(0LL, 0LL);
  auto names = fx.cluster->name_server().names();
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"PS1", "PS2"}));
  EXPECT_GT(fx.middleware->stats().lookups.value(), 0u);
}

TEST(DistributionAspect, NameRegistrationCanBeDisabled) {
  DistFixture fx;
  aop::Context ctx;
  Dist::Options opts;
  opts.register_names = false;
  ctx.attach(fx.make_aspect(opts));
  ctx.create<SlowStage>(0LL, 0LL);
  EXPECT_EQ(fx.cluster->name_server().size(), 0u);
  EXPECT_EQ(fx.middleware->stats().lookups.value(), 0u);
}

TEST(DistributionAspect, LocalRefsPassThroughUntouched) {
  DistFixture fx;
  aop::Context ctx;
  // Create BEFORE attaching distribution: a local object.
  auto local = ctx.create<SlowStage>(3LL, 0LL);
  ctx.attach(fx.make_aspect());
  std::vector<long long> pack{1};
  ctx.call<&SlowStage::filter>(local, pack);
  EXPECT_EQ(pack, (std::vector<long long>{4}));
  EXPECT_EQ(fx.middleware->stats().sync_calls.value(), 0u);
}

TEST(DistributionAspect, PipelineOverMppUsesSyncForwardingCalls) {
  // A pipeline needs the filtered pack back at the client to forward it,
  // so its filter calls must stay synchronous even on a one-way-capable
  // middleware — the harness registers filter without allow_one_way, and
  // correctness follows.
  DistFixture mpp(true);
  aop::Context ctx;

  using Pipe = st::PipelineAspect<SlowStage, long long, long long, long long>;
  Pipe::Options popts;
  popts.duplicates = 3;
  popts.pack_size = 4;
  popts.ctor_args = [](std::size_t i, std::size_t,
                       const std::tuple<long long, long long>& orig) {
    // Stage i adds 10^i; the composition across stages is order-sensitive,
    // which catches any forwarding of stale (pre-filter) packs.
    long long id = 1;
    for (std::size_t j = 0; j < i; ++j) id *= 10;
    return std::make_tuple(id, std::get<1>(orig));
  };
  auto pipe = std::make_shared<Pipe>(popts);
  ctx.attach(pipe);
  ctx.attach(mpp.make_aspect());

  auto first = ctx.create<SlowStage>(0LL, 0LL);
  EXPECT_TRUE(first.is_remote());
  std::vector<long long> data(12, 0);
  ctx.call<&SlowStage::process>(first, data);
  ctx.quiesce();

  auto results = pipe->gather_results(ctx);
  ASSERT_EQ(results.size(), 12u);
  // Every element passed stages +1, +10, +100 in order.
  for (long long v : results) EXPECT_EQ(v, 111);
  // filter calls were synchronous; only collect may have gone one-way.
  EXPECT_GE(mpp.middleware->stats().sync_calls.value(), 9u);
}

TEST(DistributionAspect, ComposesWithFarmAndConcurrency) {
  // The full FarmRMI stack on a second domain class — every pack routed,
  // asynced, monitored and remoted, results exact.
  DistFixture fx;
  aop::Context ctx;

  using Farm = st::FarmAspect<SlowStage, long long, long long, long long>;
  Farm::Options fopts;
  fopts.duplicates = 3;
  fopts.pack_size = 4;
  auto farm = std::make_shared<Farm>(fopts);
  ctx.attach(farm);

  auto conc = std::make_shared<st::ConcurrencyAspect<SlowStage>>("Concurrency");
  conc->async_method<&SlowStage::process>();
  ctx.attach(conc);
  ctx.attach(fx.make_aspect());

  auto first = ctx.create<SlowStage>(100LL, 0LL);
  EXPECT_TRUE(first.is_remote());
  std::vector<long long> data(40);
  std::iota(data.begin(), data.end(), 0);
  ctx.call<&SlowStage::process>(first, data);
  ctx.quiesce();

  auto results = farm->gather_results(ctx);
  std::sort(results.begin(), results.end());
  std::vector<long long> expected(40);
  std::iota(expected.begin(), expected.end(), 100);
  EXPECT_EQ(results, expected);
}
