// Farm strategy under stress: chaos-perturbed schedules locally, and
// lossy/slow middleware remotely with retry+failover riding on top. In
// every configuration the farm's output must equal the sequential core's.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "../strategies/fixtures.hpp"
#include "apar/cluster/fault_injection.hpp"
#include "apar/cluster/middleware.hpp"
#include "apar/strategies/chaos_aspect.hpp"
#include "apar/strategies/concurrency_aspect.hpp"
#include "apar/strategies/distribution_aspect.hpp"
#include "apar/strategies/farm_aspect.hpp"
#include "apar/strategies/optimisation_aspects.hpp"
#include "stress_common.hpp"

namespace aop = apar::aop;
namespace ac = apar::cluster;
namespace st = apar::strategies;
namespace opt = apar::strategies::optimisation;
using apar::test::SlowStage;
using apar::test::announce_stress_seed;

namespace {

using Farm = st::FarmAspect<SlowStage, long long, long long, long long>;
using Dist = st::DistributionAspect<SlowStage, long long, long long>;

void register_slow_stage(ac::rpc::Registry& registry) {
  registry.bind<SlowStage>("SlowStage")
      .ctor<long long, long long>()
      .method<&SlowStage::filter>("filter")
      .method<&SlowStage::process>("process")
      .method<&SlowStage::collect>("collect")
      .method<&SlowStage::take_results>("take_results")
      .method<&SlowStage::query>("query");
}

std::vector<long long> gather(aop::Context& ctx, Farm& farm) {
  std::vector<long long> results;
  for (const auto& w : farm.workers()) {
    auto part = ctx.call<&SlowStage::take_results>(w);
    results.insert(results.end(), part.begin(), part.end());
  }
  std::sort(results.begin(), results.end());
  return results;
}

std::vector<long long> expected_range(long long n, long long base) {
  std::vector<long long> expected(static_cast<std::size_t>(n));
  std::iota(expected.begin(), expected.end(), base);
  return expected;
}

}  // namespace

TEST(StressFarm, ChaosPerturbedAsyncFarmMatchesReference) {
  const std::uint64_t seed = announce_stress_seed(0xFB01);
  aop::Context ctx;

  Farm::Options fopts;
  fopts.duplicates = 4;
  fopts.pack_size = 7;
  auto farm = std::make_shared<Farm>(fopts);
  ctx.attach(farm);

  auto conc =
      std::make_shared<st::ConcurrencyAspect<SlowStage>>("Concurrency");
  conc->async_method<&SlowStage::process>();
  ctx.attach(conc);

  auto schedule = std::make_shared<st::ChaosSchedule>(
      st::ChaosSchedule::Options{seed, 0.4, 0.25, 80});
  auto chaos = std::make_shared<st::ChaosAspect<SlowStage>>("Chaos", schedule);
  chaos->perturb_method<&SlowStage::process>()
      .perturb_method<&SlowStage::collect>();
  ctx.attach(chaos);

  auto first = ctx.create<SlowStage>(100LL, 20LL);
  std::vector<long long> data(60);
  std::iota(data.begin(), data.end(), 0);
  ctx.call<&SlowStage::process>(first, data);
  ctx.quiesce();

  EXPECT_EQ(gather(ctx, *farm), expected_range(60, 100));
  EXPECT_GT(schedule->decisions(), 0u);
}

TEST(StressFarm, FaultyMiddlewareWithFailoverStaysExact) {
  const std::uint64_t seed = announce_stress_seed(0xFB02);
  ac::Cluster cluster(ac::Cluster::Options{3, 2});
  register_slow_stage(cluster.registry());
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());
  ac::FaultInjectingMiddleware::Options iopts;
  iopts.seed = seed;
  iopts.drop_rate = 0.15;
  iopts.delay_rate = 0.3;
  iopts.max_delay_us = 100;
  ac::FaultInjectingMiddleware faulty(rmi, iopts);

  aop::Context ctx;
  Farm::Options fopts;
  fopts.duplicates = 3;  // one worker per node
  fopts.pack_size = 5;
  auto farm = std::make_shared<Farm>(fopts);
  ctx.attach(farm);

  auto conc =
      std::make_shared<st::ConcurrencyAspect<SlowStage>>("Concurrency");
  conc->async_method<&SlowStage::process>();
  ctx.attach(conc);

  // Six attempts against a 15% drop rate: the chance a pack exhausts all
  // of them is ~1e-5 — dropped packs re-route to the next worker instead.
  auto retry = std::make_shared<opt::RetryAspect<SlowStage>>(
      opt::RetryAspect<SlowStage>::Options{
          6, [farm](int attempt, const aop::Ref<SlowStage>& failed) {
            const auto& workers = farm->workers();
            for (std::size_t i = 0; i < workers.size(); ++i) {
              if (workers[i] == failed)
                return workers[(i + static_cast<std::size_t>(attempt)) %
                               workers.size()];
            }
            return workers.front();
          }});
  retry->retry_method<&SlowStage::process>();
  ctx.attach(retry);

  auto dist = std::make_shared<Dist>("Distribution", cluster, faulty);
  dist->distribute_method<&SlowStage::process>()
      .distribute_method<&SlowStage::take_results>();
  ctx.attach(dist);

  auto first = ctx.create<SlowStage>(200LL, 0LL);
  std::vector<long long> data(45);
  std::iota(data.begin(), data.end(), 0);
  ctx.call<&SlowStage::process>(first, data);
  ctx.quiesce();

  // Quiet the wire before collecting: injection exercised steady state,
  // the harvest must be loss-free to audit it.
  faulty.set_armed(false);
  EXPECT_EQ(gather(ctx, *farm), expected_range(45, 200));
  EXPECT_GT(faulty.fault_stats().intercepted.value(), 0u);
  if (faulty.fault_stats().dropped.value() > 0) {
    EXPECT_GT(retry->retries(), 0u);
  }
}
