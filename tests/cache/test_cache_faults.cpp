// CacheAspect composed with the fault-injecting middleware decorator:
// remote failures must surface to the caller and never be memoized, and
// a warm cache must answer hits without the call ever reaching the fault
// layer (the cache sits in front of the wire).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../strategies/fixtures.hpp"
#include "apar/cluster/fault_injection.hpp"
#include "apar/cluster/middleware.hpp"
#include "apar/cache/cache_aspect.hpp"
#include "apar/strategies/distribution_aspect.hpp"

namespace aop = apar::aop;
namespace ac = apar::cluster;
namespace cache = apar::cache;
namespace st = apar::strategies;
using apar::test::SlowStage;

namespace {

using Dist = st::DistributionAspect<SlowStage, long long, long long>;

/// In-process cluster behind a fault decorator, with the memoization
/// aspect (order 450) layered in front of distribution (order 500): a
/// cache miss pays the faulty wire, a hit never reaches it.
struct FaultRig {
  explicit FaultRig(ac::FaultInjectingMiddleware::Options fopts) {
    ac::Cluster::Options copts;
    copts.nodes = 2;
    cluster = std::make_unique<ac::Cluster>(copts);
    cluster->registry()
        .bind<SlowStage>("SlowStage")
        .ctor<long long, long long>()
        .method<&SlowStage::query>("query");
    inner = std::make_unique<ac::RmiMiddleware>(*cluster,
                                                ac::CostModel::loopback());
    faulty = std::make_unique<ac::FaultInjectingMiddleware>(*inner, fopts);

    auto dist = std::make_shared<Dist>("Distribution", *cluster, *faulty);
    dist->distribute_method<&SlowStage::query>();
    memo = std::make_shared<cache::CacheAspect<SlowStage>>("Memo");
    memo->cache_method<&SlowStage::query>();
    ctx.attach(memo);
    ctx.attach(dist);
  }

  std::unique_ptr<ac::Cluster> cluster;
  std::unique_ptr<ac::RmiMiddleware> inner;
  std::unique_ptr<ac::FaultInjectingMiddleware> faulty;
  std::shared_ptr<cache::CacheAspect<SlowStage>> memo;
  aop::Context ctx;
};

}  // namespace

TEST(CacheFaults, DroppedRemoteCallIsNeverCached) {
  ac::FaultInjectingMiddleware::Options fopts;
  fopts.seed = 11;
  fopts.drop_rate = 1.0;  // every message is lost
  FaultRig rig(fopts);

  auto ref = rig.ctx.create<SlowStage>(7LL, 0LL);  // creates are unfaulted
  ASSERT_TRUE(ref.is_remote());
  EXPECT_THROW((void)rig.ctx.call<&SlowStage::query>(ref, 1LL),
               ac::rpc::RpcError);
  // The failure flowed through get_or_compute: counted as the computing
  // miss, memoized never.
  const auto after_failure = rig.memo->stats().snapshot();
  EXPECT_EQ(after_failure.misses, 1u);
  EXPECT_EQ(after_failure.inserts, 0u);

  // Heal the wire: the same call recomputes (no poisoned entry), then a
  // third call hits without another remote dispatch.
  rig.faulty->set_armed(false);
  EXPECT_EQ(rig.ctx.call<&SlowStage::query>(ref, 1LL), 8LL);
  const auto wire_calls = rig.inner->stats().sync_calls.value();
  EXPECT_EQ(rig.ctx.call<&SlowStage::query>(ref, 1LL), 8LL);
  EXPECT_EQ(rig.inner->stats().sync_calls.value(), wire_calls);
  const auto s = rig.memo->stats().snapshot();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.inserts, 1u);
}

TEST(CacheFaults, WarmHitNeverReachesTheFaultLayer) {
  ac::FaultInjectingMiddleware::Options fopts;
  fopts.seed = 12;
  fopts.drop_rate = 1.0;
  FaultRig rig(fopts);
  rig.faulty->set_armed(false);  // calm wire while priming

  auto ref = rig.ctx.create<SlowStage>(3LL, 0LL);
  EXPECT_EQ(rig.ctx.call<&SlowStage::query>(ref, 10LL), 13LL);

  // Wire goes fully lossy. The cached key still answers — and the fault
  // layer never even decided on the call, because it never saw it.
  rig.faulty->set_armed(true);
  const auto intercepted = rig.faulty->fault_stats().intercepted.value();
  EXPECT_EQ(rig.ctx.call<&SlowStage::query>(ref, 10LL), 13LL);
  EXPECT_EQ(rig.faulty->fault_stats().intercepted.value(), intercepted);
  EXPECT_EQ(rig.memo->hits(), 1u);
}

TEST(CacheFaults, ColdKeySurfacesTheFaultInsteadOfStaleData) {
  ac::FaultInjectingMiddleware::Options fopts;
  fopts.seed = 13;
  fopts.drop_rate = 1.0;
  FaultRig rig(fopts);
  rig.faulty->set_armed(false);

  auto ref = rig.ctx.create<SlowStage>(3LL, 0LL);
  EXPECT_EQ(rig.ctx.call<&SlowStage::query>(ref, 10LL), 13LL);

  // A DIFFERENT argument is a different key: no silent substitution of a
  // nearby cached value — the miss pays the (now dead) wire and throws.
  rig.faulty->set_armed(true);
  EXPECT_THROW((void)rig.ctx.call<&SlowStage::query>(ref, 11LL),
               ac::rpc::RpcError);
  EXPECT_EQ(rig.memo->stats().snapshot().inserts, 1u);  // only the primed key
}

TEST(CacheFaults, RetryAfterTransientDropsEventuallyCaches) {
  ac::FaultInjectingMiddleware::Options fopts;
  fopts.seed = 21;
  fopts.drop_rate = 0.5;  // transient: some calls get through
  FaultRig rig(fopts);

  auto ref = rig.ctx.create<SlowStage>(1LL, 0LL);
  long long value = 0;
  int attempts = 0;
  for (; attempts < 64; ++attempts) {
    try {
      value = rig.ctx.call<&SlowStage::query>(ref, 5LL);
      break;
    } catch (const ac::rpc::RpcError&) {
      // injected drop: retry the same key
    }
  }
  ASSERT_LT(attempts, 64) << "seeded 50% drop never let a call through";
  EXPECT_EQ(value, 6LL);

  // First success populated the cache; from here on the lossy wire is
  // irrelevant for this key.
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(rig.ctx.call<&SlowStage::query>(ref, 5LL), 6LL);
  const auto s = rig.memo->stats().snapshot();
  EXPECT_EQ(s.hits, 10u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.misses, static_cast<std::uint64_t>(attempts) + 1u);
}
