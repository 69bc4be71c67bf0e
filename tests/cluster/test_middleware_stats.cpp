// MiddlewareStats accounting invariants: snapshot/aggregate symmetry and
// both-direction byte counting across the simulated middlewares.
#include <gtest/gtest.h>

#include <memory>

#include "fixtures.hpp"

namespace ac = apar::cluster;
namespace as = apar::serial;
using apar::test::register_counter;

namespace {

ac::Cluster::Options small_cluster() {
  ac::Cluster::Options o;
  o.nodes = 2;
  o.executors_per_node = 2;
  return o;
}

}  // namespace

TEST(MiddlewareStats, SnapshotArithmeticCoversEveryField) {
  ac::MiddlewareStats::Snapshot a;
  a.creates = 1;
  a.sync_calls = 2;
  a.one_way_calls = 3;
  a.bytes_sent = 4;
  a.bytes_received = 5;
  a.lookups = 6;
  ac::MiddlewareStats::Snapshot b = a;
  b += a;
  EXPECT_EQ(b.creates, 2u);
  EXPECT_EQ(b.sync_calls, 4u);
  EXPECT_EQ(b.one_way_calls, 6u);
  EXPECT_EQ(b.bytes_sent, 8u);
  EXPECT_EQ(b.bytes_received, 10u);
  EXPECT_EQ(b.lookups, 12u);
  EXPECT_EQ(a + a, b);

  // store() mirrors snapshot(): writing a snapshot into live counters and
  // reading it back is the identity.
  ac::MiddlewareStats stats;
  stats.store(b);
  EXPECT_EQ(stats.snapshot(), b);
}

TEST(MiddlewareStats, SyncCallsCountBothDirections) {
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());

  const auto handle =
      rmi.create(0, "Counter", as::encode(rmi.wire_format(), 0LL));
  const auto request = as::encode(rmi.wire_format(), 7LL);
  const auto reply = rmi.invoke(handle, "add", request);

  const auto s = rmi.stats().snapshot();
  EXPECT_EQ(s.creates, 1u);
  EXPECT_EQ(s.sync_calls, 1u);
  // Request payloads went out; the create ack and the copy-restore reply
  // came back. Both directions must move, and the reply direction must
  // account exactly the payloads the caller saw.
  EXPECT_GT(s.bytes_sent, 0u);
  EXPECT_GT(s.bytes_received, 0u);
  EXPECT_GE(s.bytes_received, reply.size());
}

TEST(MiddlewareStats, DegradedOneWayStillCountsReplyBytes) {
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  // RMI has no one-way support: invoke_one_way degrades to a synchronous
  // call whose reply is discarded — but the reply bytes still crossed the
  // wire and must be accounted.
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());
  const auto handle =
      rmi.create(0, "Counter", as::encode(rmi.wire_format(), 0LL));
  const auto after_create = rmi.stats().snapshot();
  rmi.invoke_one_way(handle, "add", as::encode(rmi.wire_format(), 1LL));
  const auto after_call = rmi.stats().snapshot();
  EXPECT_GT(after_call.bytes_received, after_create.bytes_received);
  EXPECT_EQ(after_call.sync_calls, after_create.sync_calls + 1);
}

TEST(MiddlewareStats, HybridAggregateEqualsBackendSumOnEveryField) {
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());
  ac::MppMiddleware mpp(cluster, ac::CostModel::loopback());
  ac::HybridMiddleware hybrid(rmi, mpp, {"add"});

  const auto handle =
      hybrid.create(0, "Counter", as::encode(hybrid.wire_format(), 0LL));
  cluster.name_server().bind("PS1", handle);
  (void)hybrid.lookup("PS1");
  for (int i = 0; i < 3; ++i) {
    auto& routed = hybrid.route_for("add");
    hybrid.invoke_one_way(handle, "add",
                          as::encode(routed.wire_format(), 1LL));
  }
  (void)hybrid.invoke(handle, "get", as::encode(hybrid.wire_format()));
  cluster.drain();

  const auto control = rmi.stats().snapshot();
  const auto fast = mpp.stats().snapshot();
  const auto aggregate = hybrid.stats().snapshot();
  EXPECT_EQ(aggregate, control + fast);
  // Sanity: the split actually exercised both backends.
  EXPECT_EQ(fast.one_way_calls, 3u);
  EXPECT_EQ(control.creates, 1u);
  EXPECT_EQ(control.sync_calls, 1u);
  EXPECT_EQ(control.lookups, 1u);
}

TEST(MiddlewareStats, RegistryExportsTheSameCounters) {
  // What tests assert on (stats()) and what telemetry scrapes
  // (middleware.<field>{middleware}) are one set of atomics, so the
  // both-directions byte parity holds in the export too.
  auto& registry = apar::obs::MetricsRegistry::global();
  const apar::obs::Labels labels{{"middleware", "MPP"}};
  const auto exported = [&] {
    ac::MiddlewareStats::Snapshot s;
    s.creates = registry.value("middleware.creates", labels);
    s.sync_calls = registry.value("middleware.sync_calls", labels);
    s.one_way_calls = registry.value("middleware.one_way_calls", labels);
    s.bytes_sent = registry.value("middleware.bytes_sent", labels);
    s.bytes_received = registry.value("middleware.bytes_received", labels);
    s.lookups = registry.value("middleware.lookups", labels);
    return s;
  };
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  const auto before = exported();
  {
    ac::MppMiddleware mpp(cluster, ac::CostModel::loopback());
    const auto handle =
        mpp.create(0, "Counter", as::encode(mpp.wire_format(), 0LL));
    (void)mpp.invoke(handle, "add", as::encode(mpp.wire_format(), 2LL));
    mpp.invoke_one_way(handle, "add", as::encode(mpp.wire_format(), 3LL));
    cluster.drain();
    EXPECT_EQ(exported() - before, mpp.stats().snapshot());
  }
  // The middleware is gone; its counts stay in the series.
  const auto after = exported() - before;
  EXPECT_EQ(after.creates, 1u);
  EXPECT_EQ(after.sync_calls, 1u);
  EXPECT_EQ(after.one_way_calls, 1u);
  EXPECT_GT(after.bytes_received, 0u);
}
