// FaultInjectingMiddleware semantics under load: every injected fault is
// accounted for, every perturbed operation either completes correctly or
// fails with a clean RpcError — never a hang, never a half-applied write.
#include <gtest/gtest.h>

#include <cstdint>

#include "../cluster/fixtures.hpp"
#include "apar/cluster/fault_injection.hpp"
#include "stress_common.hpp"

namespace ac = apar::cluster;
namespace as = apar::serial;
using apar::test::Counter;
using apar::test::announce_stress_seed;
using apar::test::register_counter;

namespace {

ac::Cluster::Options small_cluster() {
  ac::Cluster::Options o;
  o.nodes = 3;
  o.executors_per_node = 2;
  return o;
}

void add_one(ac::Middleware& mw, const ac::RemoteHandle& handle) {
  mw.invoke(handle, "add", as::encode(mw.wire_format(), 1LL));
}

long long read_value(ac::Middleware& mw, const ac::RemoteHandle& handle) {
  const auto reply = mw.invoke(handle, "get", as::encode(mw.wire_format()));
  const auto [value] = as::decode<long long>(reply, mw.wire_format());
  return value;
}

}  // namespace

TEST(FaultInjection, SyncDropsFailCleanlyAndStateMatchesSuccesses) {
  const std::uint64_t seed = announce_stress_seed(0xFA01);
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());
  ac::FaultInjectingMiddleware::Options fopts;
  fopts.seed = seed;
  fopts.drop_rate = 0.3;
  ac::FaultInjectingMiddleware faulty(rmi, fopts);

  const auto handle =
      faulty.create(0, "Counter", as::encode(faulty.wire_format(), 0LL));
  long long successes = 0;
  for (int i = 0; i < 100; ++i) {
    try {
      add_one(faulty, handle);
      ++successes;
    } catch (const ac::rpc::RpcError&) {
      // a dropped reply: the add never reached the node (clean failure)
    }
  }
  const auto dropped =
      static_cast<long long>(faulty.fault_stats().dropped.value());
  EXPECT_EQ(successes, 100 - dropped);
  EXPECT_GT(dropped, 0) << "seed " << seed << " injected no drops at 30%";

  faulty.set_armed(false);  // read back through the quiet wire
  EXPECT_EQ(read_value(faulty, handle), successes);
}

TEST(FaultInjection, DuplicatedSyncCallsAreAtLeastOnce) {
  const std::uint64_t seed = announce_stress_seed(0xFA02);
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());
  ac::FaultInjectingMiddleware::Options fopts;
  fopts.seed = seed;
  fopts.duplicate_rate = 0.5;
  ac::FaultInjectingMiddleware faulty(rmi, fopts);

  const auto handle =
      faulty.create(1, "Counter", as::encode(faulty.wire_format(), 0LL));
  for (int i = 0; i < 50; ++i) add_one(faulty, handle);

  const auto duplicated =
      static_cast<long long>(faulty.fault_stats().duplicated.value());
  faulty.set_armed(false);
  // At-least-once delivery: every duplicate executed the add a second time.
  EXPECT_EQ(read_value(faulty, handle), 50 + duplicated);
  EXPECT_GT(duplicated, 0) << "seed " << seed << " injected no dups at 50%";
}

TEST(FaultInjection, OneWayLossIsSilentAndFullyAccounted) {
  const std::uint64_t seed = announce_stress_seed(0xFA03);
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  ac::MppMiddleware mpp(cluster, ac::CostModel::loopback());
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());
  ac::FaultInjectingMiddleware::Options fopts;
  fopts.seed = seed;
  fopts.drop_rate = 0.25;
  fopts.delay_rate = 0.3;
  fopts.max_delay_us = 100;
  fopts.duplicate_rate = 0.2;
  ac::FaultInjectingMiddleware faulty(mpp, fopts);

  const auto handle =
      faulty.create(2, "Counter", as::encode(faulty.wire_format(), 0LL));
  for (int i = 0; i < 80; ++i)
    faulty.invoke_one_way(handle, "add",
                          as::encode(faulty.wire_format(), 1LL));
  // Lost one-ways never become pending completions, so drain terminates
  // cleanly — a lossy wire must not wedge the cluster.
  EXPECT_NO_THROW(cluster.drain());

  const auto dropped =
      static_cast<long long>(faulty.fault_stats().dropped.value());
  const auto duplicated =
      static_cast<long long>(faulty.fault_stats().duplicated.value());
  EXPECT_EQ(read_value(rmi, handle), 80 - dropped + duplicated);
  EXPECT_EQ(faulty.fault_stats().intercepted.value(), 80u);
}

TEST(FaultInjection, CrashOnNthCallKillsTargetNodeWithoutHanging) {
  const std::uint64_t seed = announce_stress_seed(0xFA04);
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());
  ac::FaultInjectingMiddleware::Options fopts;
  fopts.seed = seed;
  fopts.crash_on_call = 5;  // the 5th operation crashes its target node
  fopts.cluster = &cluster;
  ac::FaultInjectingMiddleware faulty(rmi, fopts);

  const auto handle =
      faulty.create(1, "Counter", as::encode(faulty.wire_format(), 0LL));
  int successes = 0, failures = 0;
  for (int i = 0; i < 10; ++i) {
    try {
      add_one(faulty, handle);
      ++successes;
    } catch (const ac::rpc::RpcError&) {
      ++failures;
    }
  }
  // Deterministic split: ops 1-4 land, op 5 crashes the node first, and
  // every later call to the dead node fails loudly.
  EXPECT_EQ(successes, 4);
  EXPECT_EQ(failures, 6);
  EXPECT_TRUE(cluster.node(1).crashed());
  EXPECT_EQ(faulty.fault_stats().crashes.value(), 1u);
}

TEST(FaultInjection, DisarmedInjectionIsTransparent) {
  announce_stress_seed(0xFA05);
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());
  ac::FaultInjectingMiddleware faulty(
      rmi, ac::FaultInjectingMiddleware::Options{});
  faulty.set_armed(false);  // the unplugged configuration

  const auto handle =
      faulty.create(0, "Counter", as::encode(faulty.wire_format(), 0LL));
  for (int i = 0; i < 20; ++i) add_one(faulty, handle);
  EXPECT_EQ(read_value(faulty, handle), 20);
  // Not a single decision was consumed or logged.
  EXPECT_EQ(faulty.fault_stats().intercepted.value(), 0u);
  EXPECT_TRUE(faulty.schedule_dump().empty());
  EXPECT_GE(rmi.stats().sync_calls.value(), 21u);  // 20 adds + 1 get
}

TEST(FaultInjection, HybridOverWrappedBackendsKeepsRoutedCallsFaulty) {
  const std::uint64_t seed = announce_stress_seed(0xFA06);
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());
  ac::MppMiddleware mpp(cluster, ac::CostModel::loopback());
  // Wrap the CONCRETE middlewares, then compose the hybrid over the
  // wrappers — routed traffic cannot escape the fault layer.
  ac::FaultInjectingMiddleware::Options fopts;
  fopts.seed = seed;
  fopts.delay_rate = 0.5;
  fopts.max_delay_us = 50;
  ac::FaultInjectingMiddleware faulty_rmi(rmi, fopts);
  ac::FaultInjectingMiddleware faulty_mpp(mpp, fopts);
  ac::HybridMiddleware hybrid(faulty_rmi, faulty_mpp, {"add"});

  EXPECT_EQ(&hybrid.route_for("add"), &faulty_mpp);
  EXPECT_EQ(&hybrid.route_for("get"), &faulty_rmi);
  // A fault wrapper routes to itself: there is no way around it.
  EXPECT_EQ(&faulty_mpp.route_for("add"), &faulty_mpp);

  const auto handle =
      hybrid.create(0, "Counter", as::encode(rmi.wire_format(), 0LL));
  auto& fast = hybrid.route_for("add");
  for (int i = 0; i < 10; ++i)
    fast.invoke_one_way(handle, "add", as::encode(fast.wire_format(), 1LL));
  cluster.drain();
  EXPECT_EQ(faulty_mpp.fault_stats().intercepted.value(), 10u);
  EXPECT_EQ(read_value(hybrid.route_for("get"), handle), 10);
  EXPECT_GE(faulty_rmi.fault_stats().intercepted.value(), 1u);
}
