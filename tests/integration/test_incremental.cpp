// The paper's central workflow (§1, §7): develop a sequential core, then
// INCREMENTALLY plug partition -> concurrency -> distribution, verifying at
// every stage that the application still computes the same thing — and that
// any stage can be unplugged again "on the fly".
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>

#include "apar/cluster/middleware.hpp"
#include "apar/sieve/prime_filter.hpp"
#include "apar/sieve/workload.hpp"
#include "apar/strategies/strategies.hpp"

namespace aop = apar::aop;
namespace ac = apar::cluster;
namespace st = apar::strategies;
namespace sv = apar::sieve;
using sv::PrimeFilter;

namespace {

constexpr long long kMax = 20'000;

using Farm = st::FarmAspect<PrimeFilter, long long, long long, long long,
                            double>;
using Conc = st::ConcurrencyAspect<PrimeFilter>;
using Dist =
    st::DistributionAspect<PrimeFilter, long long, long long, double>;

/// The application's core functionality: identical at every increment.
long long run_core(aop::Context& ctx,
                   std::function<std::vector<long long>(aop::Context&)>
                       gather = nullptr) {
  auto candidates = sv::odd_candidates(kMax);
  auto p = ctx.create<PrimeFilter>(2LL, sv::isqrt(kMax), 0.0);
  ctx.call<&PrimeFilter::process>(p, candidates);
  ctx.quiesce();
  auto survivors =
      gather ? gather(ctx) : ctx.call<&PrimeFilter::take_results>(p);
  return sv::count_primes_up_to(sv::isqrt(kMax)) +
         static_cast<long long>(survivors.size());
}

std::shared_ptr<Farm> make_farm() {
  Farm::Options opts;
  opts.duplicates = 3;
  opts.pack_size = 1'500;
  return std::make_shared<Farm>("Partition", opts);
}

std::shared_ptr<Conc> make_conc() {
  auto conc = std::make_shared<Conc>("Concurrency");
  conc->async_method<&PrimeFilter::process>()
      .async_method<&PrimeFilter::filter>()
      .guarded_method<&PrimeFilter::collect>();
  return conc;
}

}  // namespace

TEST(IncrementalDevelopment, EachPluggingStepPreservesTheResult) {
  const long long expected = sv::count_primes_up_to(kMax);

  aop::Context ctx;

  // Stage 0: pure sequential core.
  EXPECT_EQ(run_core(ctx), expected);

  // Stage 1: plug the partition module. Still single-threaded.
  auto farm = make_farm();
  ctx.attach(farm);
  auto gather = [farm](aop::Context& c) { return farm->gather_results(c); };
  EXPECT_EQ(run_core(ctx, gather), expected);

  // Stage 2: plug concurrency. Now parallel on shared memory.
  ctx.attach(make_conc());
  EXPECT_EQ(run_core(ctx, gather), expected);

  // Stage 3: plug distribution. Now the farm spans simulated nodes.
  ac::Cluster::Options copts;
  copts.nodes = 3;
  copts.executors_per_node = 2;
  ac::Cluster cluster(copts);
  cluster.registry()
      .bind<PrimeFilter>("PrimeFilter")
      .ctor<long long, long long, double>()
      .method<&PrimeFilter::filter>("filter")
      .method<&PrimeFilter::process>("process")
      .method<&PrimeFilter::collect>("collect")
      .method<&PrimeFilter::take_results>("take_results");
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());
  auto dist = std::make_shared<Dist>("Distribution", cluster, rmi);
  dist->distribute_method<&PrimeFilter::filter>()
      .distribute_method<&PrimeFilter::process>(true)
      .distribute_method<&PrimeFilter::collect>(true)
      .distribute_method<&PrimeFilter::take_results>();
  ctx.attach(dist);
  EXPECT_EQ(run_core(ctx, gather), expected);
  EXPECT_GT(rmi.stats().sync_calls.value(), 0u);

  // Unplug everything, inner-first: back to the sequential core.
  ctx.detach("Distribution");
  ctx.detach("Concurrency");
  ctx.detach("Partition");
  EXPECT_EQ(run_core(ctx), expected);
}

TEST(IncrementalDevelopment, DebuggingByUnpluggingConcurrencyOnly) {
  // Paper §4.2: "it is possible to (un)plug concurrency for debugging" —
  // partition stays in, execution is deterministic single-threaded.
  const long long expected = sv::count_primes_up_to(kMax);
  aop::Context ctx;
  auto farm = make_farm();
  auto conc = make_conc();
  ctx.attach(farm);
  ctx.attach(conc);
  auto gather = [farm](aop::Context& c) { return farm->gather_results(c); };
  EXPECT_EQ(run_core(ctx, gather), expected);

  conc->set_enabled(false);  // unplug concurrency on the fly
  EXPECT_EQ(run_core(ctx, gather), expected);

  conc->set_enabled(true);
  EXPECT_EQ(run_core(ctx, gather), expected);
}

TEST(IncrementalDevelopment, SwapPipelineForFarmWithoutTouchingCore) {
  // Paper §7: "exchanging a pipeline by a farm partition".
  const long long expected = sv::count_primes_up_to(kMax);
  aop::Context ctx;

  using Pipe = st::PipelineAspect<PrimeFilter, long long, long long,
                                  long long, double>;
  Pipe::Options popts;
  popts.duplicates = 3;
  popts.pack_size = 1'500;
  popts.ctor_args = [](std::size_t i, std::size_t k,
                       const std::tuple<long long, long long, double>& orig) {
    const auto ranges = sv::balanced_prime_ranges(kMax, k);
    return std::make_tuple(ranges[i].first, ranges[i].second,
                           std::get<2>(orig));
  };
  auto pipe = std::make_shared<Pipe>("Partition", popts);
  ctx.attach(pipe);
  EXPECT_EQ(run_core(ctx, [pipe](aop::Context& c) {
              return pipe->gather_results(c);
            }),
            expected);

  ctx.detach("Partition");
  auto farm = make_farm();
  ctx.attach(farm);
  EXPECT_EQ(run_core(ctx, [farm](aop::Context& c) {
              return farm->gather_results(c);
            }),
            expected);
}

TEST(IncrementalDevelopment, MiddlewareSwapIsOneAspectConstructorArgument) {
  // Paper §4.3: "easier to switch among underlying middleware
  // implementations" — RMI vs MPP differ only in the middleware object
  // handed to the distribution aspect.
  const long long expected = sv::count_primes_up_to(kMax);
  for (const bool use_mpp : {false, true}) {
    aop::Context ctx;
    ctx.attach(make_farm());
    auto farm = std::static_pointer_cast<Farm>(ctx.find("Partition"));
    ctx.attach(make_conc());

    ac::Cluster cluster(ac::Cluster::Options{3, 2});
    cluster.registry()
        .bind<PrimeFilter>("PrimeFilter")
        .ctor<long long, long long, double>()
        .method<&PrimeFilter::filter>("filter")
        .method<&PrimeFilter::process>("process")
        .method<&PrimeFilter::collect>("collect")
        .method<&PrimeFilter::take_results>("take_results");
    std::unique_ptr<ac::Middleware> mw;
    if (use_mpp)
      mw = std::make_unique<ac::MppMiddleware>(cluster,
                                               ac::CostModel::loopback());
    else
      mw = std::make_unique<ac::RmiMiddleware>(cluster,
                                               ac::CostModel::loopback());
    auto dist = std::make_shared<Dist>("Distribution", cluster, *mw);
    dist->distribute_method<&PrimeFilter::filter>()
        .distribute_method<&PrimeFilter::process>(true)
        .distribute_method<&PrimeFilter::collect>(true)
        .distribute_method<&PrimeFilter::take_results>();
    ctx.attach(dist);

    EXPECT_EQ(run_core(ctx, [farm](aop::Context& c) {
                return farm->gather_results(c);
              }),
              expected)
        << (use_mpp ? "MPP" : "RMI");

    // The context must release the distribution aspect (and quiesce) before
    // the cluster goes away.
    ctx.detach("Distribution");
    ctx.quiesce();
  }
}
