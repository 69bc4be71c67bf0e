// Concurrent clients, client/server byte parity, and composition: the
// distribution aspect, the fault-injection decorator and the hybrid
// router all run over real sockets unchanged.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "../strategies/fixtures.hpp"
#include "apar/cluster/fault_injection.hpp"
#include "apar/cluster/rpc.hpp"
#include "apar/strategies/distribution_aspect.hpp"
#include "net_fixtures.hpp"

namespace aop = apar::aop;
namespace ac = apar::cluster;
namespace as = apar::serial;
namespace net = apar::net;
namespace st = apar::strategies;
using apar::test::SlowStage;
using apar::test::TcpRig;

TEST(TcpConcurrency, HammerFromManyThreadsAndByteParity) {
  APAR_REQUIRE_LOOPBACK();
  net::TcpServer::Options sopts;
  sopts.workers = 4;
  TcpRig rig(as::Format::kCompact, sopts);
  auto& mw = *rig.middleware;

  // One client thread per server worker (Reactor.ServesManyMoreClients-
  // ThanWorkers has more clients than workers).
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 50;
  std::vector<ac::RemoteHandle> handles;
  for (int t = 0; t < kThreads; ++t)
    handles.push_back(
        mw.create(0, "Counter", as::encode(mw.wire_format(), 0LL)));

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i)
        mw.invoke(handles[t], "add", as::encode(mw.wire_format(), 1LL));
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    const auto [value] = as::decode<long long>(
        mw.invoke(handles[t], "get", as::encode(mw.wire_format())),
        mw.wire_format());
    EXPECT_EQ(value, kCallsPerThread);
  }

  // Everything the client put on the wire arrived, and vice versa —
  // headers included. This is the both-directions accounting check made
  // literal by a real transport. The server increments its counters
  // AFTER send() returns, so a client can observe a reply a beat before
  // the serving thread's fetch_add lands — give the stats a moment to
  // settle before comparing.
  const auto counters = mw.net_counters();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (rig.server->stats().bytes_out < counters.wire_bytes_received &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const auto server = rig.server->stats();
  EXPECT_EQ(counters.wire_bytes_sent, server.bytes_in);
  EXPECT_EQ(counters.wire_bytes_received, server.bytes_out);
  EXPECT_EQ(counters.frames_sent, server.frames_in);
  EXPECT_EQ(counters.frames_received, server.frames_out);
}

namespace {

void register_slow_stage(ac::rpc::Registry& registry) {
  registry.bind<SlowStage>("SlowStage")
      .ctor<long long, long long>()
      .method<&SlowStage::filter>("filter")
      .method<&SlowStage::process>("process")
      .method<&SlowStage::collect>("collect")
      .method<&SlowStage::take_results>("take_results");
}

}  // namespace

TEST(TcpConcurrency, DistributionAspectRunsOverSockets) {
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
      .distribute_method<&SlowStage::process>(/*allow_one_way=*/true)
      .distribute_method<&SlowStage::take_results>();
  ctx.attach(dist);

  auto ref = ctx.create<SlowStage>(5LL, 0LL);
  EXPECT_TRUE(ref.is_remote());
  std::vector<long long> pack{1, 2, 3};
  ctx.call<&SlowStage::process>(ref, pack);
  ctx.quiesce();
  auto results = ctx.call<&SlowStage::take_results>(ref);
  EXPECT_EQ(results, (std::vector<long long>{6, 7, 8}));

  // The object genuinely lives behind the socket, not in this process.
  EXPECT_EQ(server.dispatcher().object_count(), 1u);
  EXPECT_EQ(dist->placed(), 1u);
  // Name registration travelled the wire too (Figure 14's bind+lookup).
  EXPECT_EQ(server.name_server().size(), 1u);
  EXPECT_GE(mw.stats().lookups.value(), 1u);
}

TEST(TcpConcurrency, FaultInjectionComposesOverTcp) {
  APAR_REQUIRE_LOOPBACK();
  TcpRig rig;
  auto& tcp = *rig.middleware;

  ac::FaultInjectingMiddleware::Options fopts;
  fopts.seed = 42;
  fopts.drop_rate = 0.3;
  ac::FaultInjectingMiddleware faulty(tcp, fopts);

  const auto handle =
      faulty.create(0, "Counter", as::encode(faulty.wire_format(), 0LL));
  int delivered = 0;
  for (int i = 0; i < 30; ++i) {
    try {
      faulty.invoke(handle, "add", as::encode(faulty.wire_format(), 1LL));
      ++delivered;
    } catch (const ac::rpc::RpcError&) {
      // Injected drop — decided by the decorator, not the socket.
    }
  }
  const auto [value] = as::decode<long long>(
      faulty.invoke(handle, "get", as::encode(faulty.wire_format())),
      faulty.wire_format());
  // Dropped calls were never forwarded: server state counts exactly the
  // delivered ones.
  EXPECT_EQ(value, delivered);
  EXPECT_GT(faulty.fault_stats().dropped.value(), 0u);
  EXPECT_TRUE(faulty.wire_transport());
}

TEST(TcpConcurrency, HybridRoutesAcrossTwoTcpBackendsWithStatParity) {
  APAR_REQUIRE_LOOPBACK();
  TcpRig rig;  // shared server

  net::TcpMiddleware::Options verbose_opts;
  verbose_opts.endpoints = {{"127.0.0.1", rig.server->port()}};
  verbose_opts.format = as::Format::kVerbose;
  net::TcpMiddleware control(verbose_opts);

  net::TcpMiddleware::Options compact_opts;
  compact_opts.endpoints = {{"127.0.0.1", rig.server->port()}};
  compact_opts.format = as::Format::kCompact;
  net::TcpMiddleware fast(compact_opts);

  ac::HybridMiddleware hybrid(control, fast, {"add"});
  EXPECT_TRUE(hybrid.wire_transport());

  const auto handle = hybrid.create(
      0, "Counter", as::encode(hybrid.wire_format(), 0LL));
  for (int i = 0; i < 5; ++i) {
    auto& routed = hybrid.route_for("add");
    hybrid.invoke(handle, "add", as::encode(routed.wire_format(), 2LL));
  }
  const auto [value] = as::decode<long long>(
      hybrid.invoke(handle, "get", as::encode(hybrid.wire_format())),
      hybrid.wire_format());
  EXPECT_EQ(value, 10);

  // Fast-path traffic went compact, control traffic verbose.
  EXPECT_EQ(fast.stats().sync_calls.value(), 5u);
  EXPECT_EQ(control.stats().sync_calls.value(), 1u);
  EXPECT_EQ(control.stats().creates.value(), 1u);

  // Satellite check: the hybrid aggregate equals the per-backend sum on
  // EVERY field (Snapshot-based aggregation cannot drop a counter).
  const auto expected =
      control.stats().snapshot() + fast.stats().snapshot();
  EXPECT_EQ(hybrid.stats().snapshot(), expected);
}
