// CacheAspect over the real TCP transport: a memoized hit must skip the
// socket round-trip entirely (frame counters frozen). Loopback-only; skips
// where the sandbox forbids sockets.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../net/net_fixtures.hpp"
#include "../strategies/fixtures.hpp"
#include "apar/cache/cache_aspect.hpp"
#include "apar/strategies/distribution_aspect.hpp"

namespace aop = apar::aop;
namespace ac = apar::cluster;
namespace cache = apar::cache;
namespace net = apar::net;
namespace st = apar::strategies;
using apar::test::SlowStage;

namespace {

void register_slow_stage(ac::rpc::Registry& registry) {
  registry.bind<SlowStage>("SlowStage")
      .ctor<long long, long long>()
      .method<&SlowStage::filter>("filter")
      .method<&SlowStage::query>("query");
}

}  // namespace

TEST(CacheTcp, CachedRemoteCallSkipsTheWire) {
  APAR_REQUIRE_LOOPBACK();
  ac::rpc::Registry registry;
  register_slow_stage(registry);
  net::TcpServer server(registry);

  net::TcpMiddleware::Options mopts;
  mopts.endpoints = {{"127.0.0.1", server.port()}};
  net::TcpMiddleware mw(mopts);
  net::TcpFabric fabric(mw);

  using Dist = st::DistributionAspect<SlowStage, long long, long long>;
  aop::Context ctx;
  auto dist = std::make_shared<Dist>("Distribution", fabric, mw);
  dist->distribute_method<&SlowStage::filter>()
      .distribute_method<&SlowStage::query>();
  auto memo = std::make_shared<cache::CacheAspect<SlowStage>>("Memo");
  memo->cache_method<&SlowStage::filter>().cache_method<&SlowStage::query>();
  ctx.attach(memo);
  ctx.attach(dist);

  auto ref = ctx.create<SlowStage>(5LL, 0LL);
  ASSERT_TRUE(ref.is_remote());

  // Miss: the call crosses the socket. Hit: identical result, and the
  // frame counters prove not one byte moved — the RTT the paper's
  // optimisation family is meant to save.
  EXPECT_EQ(ctx.call<&SlowStage::query>(ref, 37LL), 42LL);
  const auto after_miss = mw.net_counters();
  EXPECT_EQ(ctx.call<&SlowStage::query>(ref, 37LL), 42LL);
  const auto after_hit = mw.net_counters();
  EXPECT_EQ(after_hit.frames_sent, after_miss.frames_sent);
  EXPECT_EQ(after_hit.wire_bytes_sent, after_miss.wire_bytes_sent);
  EXPECT_EQ(memo->hits(), 1u);
  EXPECT_EQ(memo->misses(), 1u);

  // Copy-restore effects replay on hits too: the in-place pack mutation
  // recorded on the miss comes back byte-identical without a dispatch.
  std::vector<long long> pack{1, 2, 3};
  ctx.call<&SlowStage::filter>(ref, pack);
  EXPECT_EQ(pack, (std::vector<long long>{6, 7, 8}));
  const auto before_replay = mw.net_counters();
  std::vector<long long> again{1, 2, 3};
  ctx.call<&SlowStage::filter>(ref, again);
  EXPECT_EQ(again, (std::vector<long long>{6, 7, 8}));
  EXPECT_EQ(mw.net_counters().frames_sent, before_replay.frames_sent);
}
