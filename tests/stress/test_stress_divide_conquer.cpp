// Divide-and-conquer under stress: chaos in the recursion tree and
// injected wire delays under the distributed variant — sorting must stay
// bit-for-bit equal to std::sort on the same (seed-reproducible) input.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "apar/apps/sort_solver.hpp"
#include "apar/cluster/fault_injection.hpp"
#include "apar/cluster/middleware.hpp"
#include "apar/common/stress.hpp"
#include "apar/strategies/chaos_aspect.hpp"
#include "apar/strategies/distribution_aspect.hpp"
#include "apar/strategies/divide_conquer_aspect.hpp"
#include "stress_common.hpp"

namespace aop = apar::aop;
namespace ac = apar::cluster;
namespace st = apar::strategies;
using apar::apps::SortSolver;
using apar::test::announce_stress_seed;

namespace {

using Dnc = st::DivideAndConquerAspect<SortSolver, std::vector<long long>,
                                       std::vector<long long>, long long,
                                       double>;
using Dist = st::DistributionAspect<SortSolver, long long, double>;

std::vector<long long> random_problem(std::size_t n, std::uint64_t seed) {
  apar::common::Rng rng(seed);
  std::vector<long long> v(n);
  for (auto& x : v)
    x = static_cast<long long>(rng.uniform(0, 1'000'000));
  return v;
}

std::vector<long long> sorted_copy(std::vector<long long> v) {
  std::sort(v.begin(), v.end());
  return v;
}

void register_solver(ac::rpc::Registry& registry) {
  registry.bind<SortSolver>("SortSolver")
      .ctor<long long, double>()
      .method<&SortSolver::solve>("solve")
      .method<&SortSolver::merge>("merge");
}

}  // namespace

TEST(StressDivideConquer, ChaoticRecursionTreeSortsExactly) {
  const std::uint64_t seed = announce_stress_seed(0xFD01);
  aop::Context ctx;
  auto dnc = std::make_shared<Dnc>();
  dnc->set_sub_solver_args(64, 0.0);
  ctx.attach(dnc);

  auto schedule = std::make_shared<st::ChaosSchedule>(
      st::ChaosSchedule::Options{seed, 0.4, 0.25, 60});
  auto chaos =
      std::make_shared<st::ChaosAspect<SortSolver>>("Chaos", schedule);
  chaos->perturb_method<&SortSolver::solve>()
      .perturb_method<&SortSolver::merge>()
      .perturb_new<long long, double>();
  ctx.attach(chaos);

  auto solver = ctx.create<SortSolver>(64LL, 0.0);
  const auto problem = random_problem(1500, seed);
  EXPECT_EQ(ctx.call<&SortSolver::solve>(solver, problem),
            sorted_copy(problem));
  EXPECT_GE(dnc->solvers_created(), 2u);
  EXPECT_GT(schedule->decisions(), 0u);
  ctx.quiesce();
}

TEST(StressDivideConquer, DistributedSortUnderInjectedDelaysStaysExact) {
  const std::uint64_t seed = announce_stress_seed(0xFD02);
  ac::Cluster cluster(ac::Cluster::Options{3, 2});
  register_solver(cluster.registry());
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());
  // Delay-only injection: a slow wire must never change the sorted result.
  ac::FaultInjectingMiddleware::Options iopts;
  iopts.seed = seed;
  iopts.delay_rate = 0.5;
  iopts.max_delay_us = 80;
  ac::FaultInjectingMiddleware faulty(rmi, iopts);

  aop::Context ctx;
  auto dnc = std::make_shared<Dnc>();
  dnc->set_sub_solver_args(128, 0.0);
  ctx.attach(dnc);
  auto dist = std::make_shared<Dist>("Distribution", cluster, faulty);
  dist->distribute_method<&SortSolver::solve>();
  ctx.attach(dist);

  auto root = ctx.create<SortSolver>(128LL, 0.0);
  EXPECT_TRUE(root.is_remote());
  const auto problem = random_problem(1000, seed + 1);
  EXPECT_EQ(ctx.call<&SortSolver::solve>(root, problem),
            sorted_copy(problem));
  EXPECT_GE(dnc->solvers_created(), 2u);
  EXPECT_GT(faulty.fault_stats().intercepted.value(), 0u);
  ctx.detach("Distribution");
  ctx.quiesce();
}
