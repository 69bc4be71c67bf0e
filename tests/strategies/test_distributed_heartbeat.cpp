// Heartbeat + distribution: the bands live on simulated cluster nodes and
// every halo exchange crosses the middleware — the full composition the
// paper's methodology promises (partition aspects written for shared
// memory, distribution plugged afterwards, §4.3).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "apar/apps/heat_band.hpp"
#include "apar/cluster/middleware.hpp"
#include "apar/strategies/distribution_aspect.hpp"
#include "apar/strategies/heartbeat_aspect.hpp"

namespace aop = apar::aop;
namespace ac = apar::cluster;
namespace st = apar::strategies;
using apar::apps::HeatBand;

using Heart = st::HeartbeatAspect<HeatBand, long long, long long, long long,
                                  long long, double>;
using Dist = st::DistributionAspect<HeatBand, long long, long long, long long,
                                    long long, double>;

namespace {

Heart::Options heart_options(std::size_t bands) {
  Heart::Options opts;
  opts.bands = bands;
  opts.ctor_args =
      [](std::size_t i, std::size_t k,
         const std::tuple<long long, long long, long long, long long,
                          double>& original) {
        const auto [rows, cols, offset, total, ns] = original;
        (void)offset;
        const long long share = rows / static_cast<long long>(k);
        const long long extra = rows % static_cast<long long>(k);
        const long long my_rows =
            share + (static_cast<long long>(i) < extra ? 1 : 0);
        long long my_offset = 0;
        for (std::size_t j = 0; j < i; ++j)
          my_offset += share + (static_cast<long long>(j) < extra ? 1 : 0);
        return std::make_tuple(my_rows, cols, my_offset, total, ns);
      };
  return opts;
}

void register_heat_band(ac::rpc::Registry& registry) {
  registry.bind<HeatBand>("HeatBand")
      .ctor<long long, long long, long long, long long, double>()
      .method<&HeatBand::step>("step")
      .method<&HeatBand::run>("run")
      .method<&HeatBand::top_row>("top_row")
      .method<&HeatBand::bottom_row>("bottom_row")
      .method<&HeatBand::set_halo_above>("set_halo_above")
      .method<&HeatBand::set_halo_below>("set_halo_below")
      .method<&HeatBand::residual>("residual")
      .method<&HeatBand::snapshot>("snapshot");
}

std::shared_ptr<Dist> make_dist(ac::Cluster& cluster, ac::Middleware& mw) {
  auto dist = std::make_shared<Dist>("Distribution", cluster, mw);
  dist->distribute_method<&HeatBand::step>()
      .distribute_method<&HeatBand::run>()
      .distribute_method<&HeatBand::top_row>()
      .distribute_method<&HeatBand::bottom_row>()
      .distribute_method<&HeatBand::set_halo_above>()
      .distribute_method<&HeatBand::set_halo_below>()
      .distribute_method<&HeatBand::residual>()
      .distribute_method<&HeatBand::snapshot>();
  return dist;
}

}  // namespace

class DistributedHeartbeat : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(Middlewares, DistributedHeartbeat,
                         ::testing::Values("rmi", "mpp"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_P(DistributedHeartbeat, RemoteBandsMatchSequentialExactly) {
  constexpr long long kRows = 12, kCols = 5;
  constexpr int kIters = 15;

  HeatBand reference(kRows, kCols, 0, kRows, 0.0);
  reference.run(kIters);

  ac::Cluster cluster(ac::Cluster::Options{3, 2});
  register_heat_band(cluster.registry());
  std::unique_ptr<ac::Middleware> mw;
  if (std::string_view(GetParam()) == "mpp")
    mw = std::make_unique<ac::MppMiddleware>(cluster,
                                             ac::CostModel::loopback());
  else
    mw = std::make_unique<ac::RmiMiddleware>(cluster,
                                             ac::CostModel::loopback());

  aop::Context ctx;
  auto heart = std::make_shared<Heart>(heart_options(3));
  ctx.attach(heart);
  ctx.attach(make_dist(cluster, *mw));

  auto first = ctx.create<HeatBand>(kRows, kCols, 0LL, kRows, 0.0);
  EXPECT_TRUE(first.is_remote());
  ctx.call<&HeatBand::run>(first, kIters);
  ctx.quiesce();

  // Gather snapshots THROUGH the middleware and stitch.
  std::vector<double> stitched;
  for (auto& band : heart->bands()) {
    EXPECT_TRUE(band.is_remote());
    auto part = ctx.call<&HeatBand::snapshot>(band);
    stitched.insert(stitched.end(), part.begin(), part.end());
  }
  EXPECT_EQ(stitched, reference.snapshot());
  EXPECT_EQ(heart->beats(), static_cast<std::size_t>(kIters));

  // Every band landed on a node; halo traffic crossed the wire.
  EXPECT_GT(mw->stats().sync_calls.value(), 0u);
  ctx.detach("Distribution");
  ctx.quiesce();
}

TEST(DistributedHeartbeatResidual, ComputedAcrossRemoteBands) {
  ac::Cluster cluster(ac::Cluster::Options{2, 2});
  register_heat_band(cluster.registry());
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());
  aop::Context ctx;
  auto heart = std::make_shared<Heart>(heart_options(2));
  ctx.attach(heart);
  ctx.attach(make_dist(cluster, rmi));
  auto first = ctx.create<HeatBand>(8LL, 4LL, 0LL, 8LL, 0.0);
  ctx.call<&HeatBand::run>(first, 3);
  ctx.quiesce();
  EXPECT_GT(heart->residual(ctx), 0.0);
  ctx.detach("Distribution");
  ctx.quiesce();
}
