#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "fixtures.hpp"

namespace ac = apar::cluster;
namespace as = apar::serial;
using apar::test::Counter;
using apar::test::register_counter;

namespace {
ac::Cluster::Options small_cluster() {
  ac::Cluster::Options o;
  o.nodes = 3;
  o.executors_per_node = 2;
  return o;
}

/// Holds its executor long enough for a crash to land mid-call.
class Sleeper {
 public:
  explicit Sleeper(long long) {}
  long long nap(long long ms) {
    started().store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return ms;
  }
  static std::atomic<bool>& started() {
    static std::atomic<bool> flag{false};
    return flag;
  }
};

void register_sleeper(ac::rpc::Registry& registry) {
  registry.bind<Sleeper>("Sleeper").ctor<long long>().method<&Sleeper::nap>(
      "nap");
}
}  // namespace

TEST(HybridMiddleware, RoutesFastMethodsToFastBackend) {
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());
  ac::MppMiddleware mpp(cluster, ac::CostModel::loopback());
  ac::HybridMiddleware hybrid(rmi, mpp, {"add"});

  EXPECT_EQ(&hybrid.route_for("add"), &mpp);
  EXPECT_EQ(&hybrid.route_for("get"), &rmi);
  EXPECT_EQ(&hybrid.route_for("new"), &rmi);
  EXPECT_NE(hybrid.name().find("Hybrid"), std::string_view::npos);
}

TEST(HybridMiddleware, SplitsTrafficAcrossBackends) {
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());
  ac::MppMiddleware mpp(cluster, ac::CostModel::loopback());
  ac::HybridMiddleware hybrid(rmi, mpp, {"add"});

  // Create via control (RMI); note the routed backend defines the format.
  const auto handle =
      hybrid.create(0, "Counter", as::encode(rmi.wire_format(), 0LL));
  EXPECT_EQ(rmi.stats().creates.value(), 1u);
  EXPECT_EQ(mpp.stats().creates.value(), 0u);

  // Fast-path method goes over MPP one-way.
  auto& fast = hybrid.route_for("add");
  fast.invoke_one_way(handle, "add", as::encode(fast.wire_format(), 5LL));
  cluster.drain();
  EXPECT_EQ(mpp.stats().one_way_calls.value(), 1u);
  EXPECT_EQ(rmi.stats().one_way_calls.value(), 0u);

  // Control method over RMI; the object state reflects both paths.
  auto& slow = hybrid.route_for("get");
  const auto reply =
      slow.invoke(handle, "get", as::encode(slow.wire_format()));
  const auto [value] = as::decode<long long>(reply, slow.wire_format());
  EXPECT_EQ(value, 5);
  EXPECT_GE(rmi.stats().sync_calls.value(), 1u);
}

TEST(NodeCrash, QueuedSyncRequestsFailLoudly) {
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());
  const auto handle =
      rmi.create(1, "Counter", as::encode(rmi.wire_format(), 0LL));
  cluster.node(1).crash();
  EXPECT_TRUE(cluster.node(1).crashed());
  EXPECT_THROW(rmi.invoke(handle, "get", as::encode(rmi.wire_format())),
               ac::rpc::RpcError);
}

TEST(NodeCrash, OneWayToCrashedNodeSurfacesAtDrain) {
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  ac::MppMiddleware mpp(cluster, ac::CostModel::loopback());
  const auto handle =
      mpp.create(2, "Counter", as::encode(mpp.wire_format(), 0LL));
  cluster.node(2).crash();
  mpp.invoke_one_way(handle, "add", as::encode(mpp.wire_format(), 1LL));
  EXPECT_THROW(cluster.drain(), ac::rpc::RpcError);
  EXPECT_NO_THROW(cluster.drain());  // error consumed
}

TEST(NodeCrash, CrashDoesNotHangPendingCounters) {
  // Even if one-ways were queued before the crash, drain() must return.
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  ac::MppMiddleware mpp(cluster, ac::CostModel::loopback());
  const auto handle =
      mpp.create(0, "Counter", as::encode(mpp.wire_format(), 0LL));
  for (int i = 0; i < 5; ++i)
    mpp.invoke_one_way(handle, "add", as::encode(mpp.wire_format(), 1LL));
  cluster.node(0).crash();
  // Either everything executed before the crash (no throw) or the dropped
  // remainder is reported; in both cases drain terminates.
  try {
    cluster.drain();
  } catch (const ac::rpc::RpcError&) {
  }
  EXPECT_EQ(cluster.one_way_pending(), 0u);
}

TEST(NodeCrash, CrashRacingInFlightCallErrorsTheCallerNotHangs) {
  // The call is already executing on the node when crash() lands from
  // another thread. The caller must get an error reply — the produced
  // result was "lost in the crash" — and must never block forever.
  ac::Cluster cluster(small_cluster());
  register_sleeper(cluster.registry());
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());
  const auto handle =
      rmi.create(0, "Sleeper", as::encode(rmi.wire_format(), 0LL));

  Sleeper::started().store(false);
  std::atomic<bool> got_error{false};
  std::thread caller([&] {
    try {
      rmi.invoke(handle, "nap", as::encode(rmi.wire_format(), 100LL));
    } catch (const ac::rpc::RpcError&) {
      got_error = true;
    }
  });
  while (!Sleeper::started().load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  cluster.node(0).crash();  // races the in-flight nap()
  caller.join();
  EXPECT_TRUE(got_error.load());
  EXPECT_TRUE(cluster.node(0).crashed());
}

TEST(NodeCrash, OtherNodesKeepWorking) {
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());
  const auto ok =
      rmi.create(0, "Counter", as::encode(rmi.wire_format(), 7LL));
  cluster.node(1).crash();
  const auto reply = rmi.invoke(ok, "get", as::encode(rmi.wire_format()));
  const auto [value] = as::decode<long long>(reply, rmi.wire_format());
  EXPECT_EQ(value, 7);
}
