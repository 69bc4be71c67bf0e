// CacheAspect over the real TCP transport: a memoized hit must skip the
// socket round-trip entirely (frame counters frozen), and the
// TcpMiddleware registry-lookup cache must answer repeat lookups locally
// while bind_name invalidates its own entry. Loopback-only; skips where
// the sandbox forbids sockets.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "../net/net_fixtures.hpp"
#include "../strategies/fixtures.hpp"
#include "apar/cache/cache_aspect.hpp"
#include "apar/strategies/distribution_aspect.hpp"

namespace aop = apar::aop;
namespace ac = apar::cluster;
namespace as = apar::serial;
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

TEST(CacheTcp, LookupCacheAnswersRepeatLookupsLocally) {
  APAR_REQUIRE_LOOPBACK();
  apar::test::TcpRig rig;  // plain middleware hosts the shared server
  net::TcpMiddleware::Options mopts;
  mopts.endpoints = {{"127.0.0.1", rig.server->port()}};
  mopts.lookup_cache_entries = 16;
  net::TcpMiddleware mw(mopts);

  const auto handle =
      mw.create(0, "Counter", as::encode(mw.wire_format(), 0LL));
  mw.bind_name("shared", handle);

  const auto first = mw.lookup("shared");
  ASSERT_TRUE(first.has_value());
  const auto after_first = mw.net_counters();
  const auto second = mw.lookup("shared");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, *first);
  // The repeat lookup never touched the registry server.
  EXPECT_EQ(mw.net_counters().frames_sent, after_first.frames_sent);
  ASSERT_NE(mw.lookup_cache_stats(), nullptr);
  EXPECT_EQ(mw.lookup_cache_stats()->snapshot().hits, 1u);
  // stats().lookups still counts every call — the cache is invisible to
  // the accounting the distribution aspect asserts on.
  EXPECT_EQ(mw.stats().lookups.value(), 2u);
}

TEST(CacheTcp, BindNameInvalidatesOwnCacheEntry) {
  APAR_REQUIRE_LOOPBACK();
  apar::test::TcpRig rig;
  net::TcpMiddleware::Options mopts;
  mopts.endpoints = {{"127.0.0.1", rig.server->port()}};
  mopts.lookup_cache_entries = 16;
  net::TcpMiddleware mw(mopts);

  const auto a = mw.create(0, "Counter", as::encode(mw.wire_format(), 1LL));
  const auto b = mw.create(0, "Counter", as::encode(mw.wire_format(), 2LL));
  ASSERT_NE(a, b);

  mw.bind_name("svc", a);
  ASSERT_EQ(*mw.lookup("svc"), a);  // now cached

  // Rebinding through this middleware must not leave the stale handle
  // cached: the next lookup goes back to the wire and sees b.
  mw.bind_name("svc", b);
  const auto before = mw.net_counters();
  const auto rebound = mw.lookup("svc");
  ASSERT_TRUE(rebound.has_value());
  EXPECT_EQ(*rebound, b);
  EXPECT_GT(mw.net_counters().frames_sent, before.frames_sent);
}

TEST(CacheTcp, NegativeLookupsAreNotCached) {
  APAR_REQUIRE_LOOPBACK();
  apar::test::TcpRig rig;
  net::TcpMiddleware::Options mopts;
  mopts.endpoints = {{"127.0.0.1", rig.server->port()}};
  mopts.lookup_cache_entries = 16;
  net::TcpMiddleware mw(mopts);

  // A miss may be a race with a concurrent bind: it must never be
  // memoized, so the name is found the moment it exists.
  EXPECT_FALSE(mw.lookup("late").has_value());
  const auto handle =
      mw.create(0, "Counter", as::encode(mw.wire_format(), 0LL));
  mw.bind_name("late", handle);
  const auto found = mw.lookup("late");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, handle);
}
