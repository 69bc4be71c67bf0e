#include <gtest/gtest.h>

#include <thread>
#include <vector>

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
}  // namespace

/// Middleware-parameterized end-to-end tests: everything must behave
/// identically (modulo cost) over RMI-like and MPP-like transports.
class MiddlewareEndToEnd : public ::testing::TestWithParam<const char*> {
 protected:
  MiddlewareEndToEnd() : cluster_(small_cluster()) {
    register_counter(cluster_.registry());
    if (std::string_view(GetParam()) == "rmi")
      mw_ = std::make_unique<ac::RmiMiddleware>(cluster_,
                                                ac::CostModel::loopback());
    else
      mw_ = std::make_unique<ac::MppMiddleware>(cluster_,
                                                ac::CostModel::loopback());
  }

  ac::Cluster cluster_;
  std::unique_ptr<ac::Middleware> mw_;
};

INSTANTIATE_TEST_SUITE_P(Middlewares, MiddlewareEndToEnd,
                         ::testing::Values("rmi", "mpp"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_P(MiddlewareEndToEnd, CreateAndInvoke) {
  const auto handle =
      mw_->create(1, "Counter", as::encode(mw_->wire_format(), 10LL));
  EXPECT_EQ(handle.node, 1u);
  mw_->invoke(handle, "add", as::encode(mw_->wire_format(), 5LL));
  const auto reply =
      mw_->invoke(handle, "get", as::encode(mw_->wire_format()));
  const auto [value] = as::decode<long long>(reply, mw_->wire_format());
  EXPECT_EQ(value, 15);
}

TEST_P(MiddlewareEndToEnd, CopyRestoreThroughTheWire) {
  const auto handle =
      mw_->create(0, "Counter", as::encode(mw_->wire_format(), 0LL));
  const std::vector<long long> pack{5, 6, 7};
  const auto reply =
      mw_->invoke(handle, "absorb", as::encode(mw_->wire_format(), pack));
  const auto [restored] =
      as::decode<std::vector<long long>>(reply, mw_->wire_format());
  EXPECT_EQ(restored, (std::vector<long long>{0, 0, 0}));
}

TEST_P(MiddlewareEndToEnd, ObjectsAreIndependent) {
  const auto a = mw_->create(0, "Counter", as::encode(mw_->wire_format(), 1LL));
  const auto b = mw_->create(0, "Counter", as::encode(mw_->wire_format(), 2LL));
  EXPECT_NE(a.object, b.object);
  mw_->invoke(a, "add", as::encode(mw_->wire_format(), 10LL));
  const auto [va] = as::decode<long long>(
      mw_->invoke(a, "get", as::encode(mw_->wire_format())),
      mw_->wire_format());
  const auto [vb] = as::decode<long long>(
      mw_->invoke(b, "get", as::encode(mw_->wire_format())),
      mw_->wire_format());
  EXPECT_EQ(va, 11);
  EXPECT_EQ(vb, 2);
}

TEST_P(MiddlewareEndToEnd, UnknownClassErrorPropagates) {
  EXPECT_THROW(mw_->create(0, "Nope", as::encode(mw_->wire_format())),
               ac::rpc::RpcError);
}

TEST_P(MiddlewareEndToEnd, UnknownObjectErrorPropagates) {
  ac::RemoteHandle bogus{0, 999};
  EXPECT_THROW(mw_->invoke(bogus, "get", as::encode(mw_->wire_format())),
               ac::rpc::RpcError);
}

TEST_P(MiddlewareEndToEnd, UnknownMethodErrorPropagates) {
  const auto handle =
      mw_->create(0, "Counter", as::encode(mw_->wire_format(), 0LL));
  EXPECT_THROW(mw_->invoke(handle, "nope", as::encode(mw_->wire_format())),
               ac::rpc::RpcError);
}

TEST_P(MiddlewareEndToEnd, OneWayCallsEventuallyExecute) {
  const auto handle =
      mw_->create(2, "Counter", as::encode(mw_->wire_format(), 0LL));
  for (int i = 0; i < 20; ++i)
    mw_->invoke_one_way(handle, "add", as::encode(mw_->wire_format(), 1LL));
  cluster_.drain();
  const auto [value] = as::decode<long long>(
      mw_->invoke(handle, "get", as::encode(mw_->wire_format())),
      mw_->wire_format());
  EXPECT_EQ(value, 20);
}

TEST_P(MiddlewareEndToEnd, ConcurrentCallsToOneObjectStayConsistent) {
  // Node-side per-object monitors must serialize execution even when many
  // client threads hammer the same object.
  const auto handle =
      mw_->create(0, "Counter", as::encode(mw_->wire_format(), 0LL));
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t)
    clients.emplace_back([&] {
      for (int i = 0; i < 50; ++i)
        mw_->invoke(handle, "add", as::encode(mw_->wire_format(), 1LL));
    });
  for (auto& t : clients) t.join();
  const auto [value] = as::decode<long long>(
      mw_->invoke(handle, "get", as::encode(mw_->wire_format())),
      mw_->wire_format());
  EXPECT_EQ(value, 200);
}

TEST_P(MiddlewareEndToEnd, StatsCountTraffic) {
  const auto handle =
      mw_->create(0, "Counter", as::encode(mw_->wire_format(), 0LL));
  mw_->invoke(handle, "get", as::encode(mw_->wire_format()));
  const auto& stats = mw_->stats();
  EXPECT_EQ(stats.creates.value(), 1u);
  EXPECT_GE(stats.sync_calls.value(), 1u);
}

TEST(MiddlewareProperties, RmiHasNoOneWay) {
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());
  EXPECT_FALSE(rmi.supports_one_way());
  EXPECT_EQ(rmi.wire_format(), as::Format::kVerbose);

  const auto handle = rmi.create(0, "Counter", as::encode(rmi.wire_format(), 0LL));
  rmi.invoke_one_way(handle, "add", as::encode(rmi.wire_format(), 3LL));
  // Degraded to synchronous: nothing pending, effect already visible.
  EXPECT_EQ(cluster.one_way_pending(), 0u);
  const auto [value] = as::decode<long long>(
      rmi.invoke(handle, "get", as::encode(rmi.wire_format())),
      rmi.wire_format());
  EXPECT_EQ(value, 3);
}

TEST(MiddlewareProperties, MppSupportsOneWayAndCompactFormat) {
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  ac::MppMiddleware mpp(cluster, ac::CostModel::loopback());
  EXPECT_TRUE(mpp.supports_one_way());
  EXPECT_EQ(mpp.wire_format(), as::Format::kCompact);
}

TEST(MiddlewareProperties, MppPerMessageCostBelowRmi) {
  const auto rmi = ac::CostModel::rmi();
  const auto mpp = ac::CostModel::mpp();
  for (std::size_t bytes : {0u, 1024u, 100u * 1024u}) {
    EXPECT_LT(mpp.message_cost_us(bytes) + mpp.handshake_us,
              rmi.message_cost_us(bytes) + rmi.handshake_us)
        << "at " << bytes << " bytes";
  }
}

TEST(MiddlewareProperties, LookupGoesThroughNameServer) {
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());
  EXPECT_FALSE(rmi.lookup("PS1").has_value());
  cluster.name_server().bind("PS1", ac::RemoteHandle{1, 7});
  const auto found = rmi.lookup("PS1");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->node, 1u);
  EXPECT_EQ(found->object, 7u);
  EXPECT_EQ(rmi.stats().lookups.value(), 2u);
}

TEST(NameServer, BindLookupUnbind) {
  ac::NameServer ns;
  EXPECT_EQ(ns.size(), 0u);
  ns.bind("a", {0, 1});
  ns.bind("b", {1, 2});
  EXPECT_EQ(ns.size(), 2u);
  EXPECT_EQ(ns.lookup("a")->object, 1u);
  ns.bind("a", {2, 9});  // rebind
  EXPECT_EQ(ns.lookup("a")->node, 2u);
  ns.unbind("a");
  EXPECT_FALSE(ns.lookup("a").has_value());
  EXPECT_EQ(ns.names(), std::vector<std::string>{"b"});
}

TEST(ClusterLifecycle, ShutdownRefusesNewWork) {
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  ac::MppMiddleware mpp(cluster, ac::CostModel::loopback());
  const auto handle =
      mpp.create(0, "Counter", as::encode(mpp.wire_format(), 0LL));
  cluster.shutdown();
  EXPECT_THROW(mpp.invoke(handle, "get", as::encode(mpp.wire_format())),
               ac::rpc::RpcError);
}

TEST(ClusterLifecycle, DrainOnIdleClusterReturnsImmediately) {
  ac::Cluster cluster(small_cluster());
  EXPECT_NO_THROW(cluster.drain());
  EXPECT_EQ(cluster.one_way_pending(), 0u);
}

TEST(ClusterLifecycle, OneWayErrorSurfacesInDrain) {
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  ac::MppMiddleware mpp(cluster, ac::CostModel::loopback());
  ac::RemoteHandle bogus{0, 12345};
  mpp.invoke_one_way(bogus, "add", as::encode(mpp.wire_format(), 1LL));
  EXPECT_THROW(cluster.drain(), ac::rpc::RpcError);
  // The error is consumed; a second drain is clean.
  EXPECT_NO_THROW(cluster.drain());
}

TEST(ClusterLifecycle, NodeObjectCountTracksCreates) {
  ac::Cluster cluster(small_cluster());
  register_counter(cluster.registry());
  ac::MppMiddleware mpp(cluster, ac::CostModel::loopback());
  EXPECT_EQ(cluster.node(1).object_count(), 0u);
  mpp.create(1, "Counter", as::encode(mpp.wire_format(), 0LL));
  mpp.create(1, "Counter", as::encode(mpp.wire_format(), 0LL));
  EXPECT_EQ(cluster.node(1).object_count(), 2u);
  EXPECT_EQ(cluster.node(1).executed_calls(), 2u);
}
