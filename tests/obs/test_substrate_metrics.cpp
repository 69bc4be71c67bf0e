// Substrate instrumentation end to end: thread pools, work queues,
// middlewares, nodes and the fault injector export their own counters to
// the global registry at all times — the registry reads the same atomics
// the components' stats() report — while latency/size histograms, and the
// per-task and per-item counts recorded beside them, record only while the
// metrics switch is on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../cluster/fixtures.hpp"
#include "apar/cluster/fault_injection.hpp"
#include "apar/cluster/middleware.hpp"
#include "apar/concurrency/thread_pool.hpp"
#include "apar/concurrency/work_queue.hpp"
#include "apar/obs/metrics.hpp"
#include "apar/sieve/versions.hpp"
#include "apar/sieve/workload.hpp"

namespace cl = apar::cluster;
namespace cc = apar::concurrency;
namespace obs = apar::obs;
namespace se = apar::serial;
namespace sv = apar::sieve;
using apar::test::register_counter;

namespace {

/// Turns the gate on for the test body and always restores "off" (the
/// suite-wide default other test binaries assume).
struct MetricsOn {
  MetricsOn() { obs::set_metrics_enabled(true); }
  ~MetricsOn() { obs::set_metrics_enabled(false); }
};

std::uint64_t counter_value(const char* name, obs::Labels labels = {}) {
  return static_cast<std::uint64_t>(
      obs::MetricsRegistry::global().value(name, std::move(labels)));
}

std::int64_t level(const char* name, obs::Labels labels = {}) {
  return obs::MetricsRegistry::global().value(name, std::move(labels));
}

sv::SieveConfig small_config(std::size_t filters) {
  sv::SieveConfig cfg;
  cfg.max = 20'000;
  cfg.filters = filters;
  cfg.pack_size = 2'000;
  cfg.ns_per_op = 0.0;
  cfg.nodes = 2;
  cfg.node_executors = 2;
  return cfg;
}

}  // namespace

TEST(SubstrateMetrics, ThreadPoolFeedsRegistry) {
  MetricsOn on;
  auto& reg = obs::MetricsRegistry::global();
  const auto tasks0 = counter_value("threadpool.tasks");
  const auto wait0 = reg.histogram("threadpool.queue_wait")->count();
  {
    cc::ThreadPool pool(2);
    EXPECT_EQ(level("threadpool.workers"), 2);
    for (int i = 0; i < 10; ++i) pool.post([] {});
    pool.drain();
  }
  EXPECT_EQ(counter_value("threadpool.tasks"), tasks0 + 10);
  EXPECT_EQ(reg.histogram("threadpool.queue_wait")->count(), wait0 + 10);
  EXPECT_EQ(level("threadpool.workers"), 0);
  EXPECT_EQ(level("threadpool.queue_depth"), 0);
}

TEST(SubstrateMetrics, ThreadPoolSilentWhenDisabled) {
  // The run-path series (tasks, busy_us and the histograms) need clock
  // reads, so they stay silent with the switch off.
  obs::set_metrics_enabled(false);
  auto& reg = obs::MetricsRegistry::global();
  const auto tasks0 = counter_value("threadpool.tasks");
  const auto busy0 = counter_value("threadpool.busy_us");
  const auto wait0 = reg.histogram("threadpool.queue_wait")->count();
  const auto run0 = reg.histogram("threadpool.run_us")->count();
  cc::ThreadPool pool(2);
  for (int i = 0; i < 5; ++i) pool.post([] {});
  pool.drain();
  EXPECT_EQ(counter_value("threadpool.tasks"), tasks0);
  EXPECT_EQ(counter_value("threadpool.busy_us"), busy0);
  EXPECT_EQ(reg.histogram("threadpool.queue_wait")->count(), wait0);
  EXPECT_EQ(reg.histogram("threadpool.run_us")->count(), run0);
}

TEST(SubstrateMetrics, SwitchReachesPoolsBuiltBeforeIt) {
  // The switch is read per record, not latched at construction: turning it
  // on mid-run needs no environment variable and no rebuilt component.
  obs::set_metrics_enabled(false);
  auto& reg = obs::MetricsRegistry::global();
  cc::ThreadPool pool(2);
  const auto run0 = reg.histogram("threadpool.run_us")->count();
  {
    MetricsOn on;
    for (int i = 0; i < 4; ++i) pool.post([] {});
    pool.drain();
  }
  EXPECT_EQ(reg.histogram("threadpool.run_us")->count(), run0 + 4);
}

TEST(SubstrateMetrics, WorkQueueDepthAndThroughput) {
  MetricsOn on;
  cc::WorkQueue<int> queue;
  queue.enable_metrics("test.queue");
  const obs::Labels labels{{"queue", "test.queue"}};
  queue.push(1);
  queue.push(2);
  EXPECT_EQ(level("workqueue.depth", labels), 2);
  EXPECT_EQ(queue.pop().value(), 1);
  EXPECT_EQ(queue.try_pop().value(), 2);
  EXPECT_EQ(level("workqueue.depth", labels), 0);
  EXPECT_EQ(counter_value("workqueue.pushed", {{"queue", "test.queue"}}), 2u);
  EXPECT_EQ(counter_value("workqueue.popped", {{"queue", "test.queue"}}), 2u);
}

TEST(SubstrateMetrics, WorkQueueBatchOpsKeepCountsExact) {
  MetricsOn on;
  cc::WorkQueue<int> queue;
  queue.enable_metrics("batch.queue");
  const obs::Labels labels{{"queue", "batch.queue"}};
  const auto pushed0 = counter_value("workqueue.pushed", labels);
  const auto popped0 = counter_value("workqueue.popped", labels);
  std::vector<int> batch{1, 2, 3, 4, 5};
  queue.push_batch(batch);
  EXPECT_EQ(level("workqueue.depth", labels), 5);
  EXPECT_EQ(counter_value("workqueue.pushed", labels), pushed0 + 5);
  EXPECT_EQ(queue.pop_batch(3).size(), 3u);
  EXPECT_EQ(level("workqueue.depth", labels), 2);
  EXPECT_EQ(queue.pop_batch(10).size(), 2u);
  EXPECT_EQ(level("workqueue.depth", labels), 0);
  EXPECT_EQ(counter_value("workqueue.popped", labels), popped0 + 5);
}

TEST(SubstrateMetrics, WorkQueueDepthNeedsNoSwitch) {
  // The level is read at scrape time; only the per-item counts need the
  // switch, since they would put a shared write on every push and pop.
  obs::set_metrics_enabled(false);
  cc::WorkQueue<int> queue;
  queue.enable_metrics("quiet.queue");
  const obs::Labels labels{{"queue", "quiet.queue"}};
  const auto pushed0 = counter_value("workqueue.pushed", labels);
  queue.push(1);
  queue.push(2);
  EXPECT_EQ(level("workqueue.depth", labels), 2);
  EXPECT_EQ(counter_value("workqueue.pushed", labels), pushed0);
}

TEST(SubstrateMetrics, SchedulerStealAndOverflowSeries) {
  MetricsOn on;
  const auto steals0 = counter_value("threadpool.steals");
  const auto overflow0 = counter_value("threadpool.overflow");
  std::uint64_t steals_seen = 0;
  std::uint64_t overflows_seen = 0;
  {
    cc::ThreadPool pool(4);
    // Flood one worker's own deque past its capacity from inside a task:
    // the excess overflows, and idle workers steal from the hoarder.
    pool.post([&pool] {
      for (int i = 0; i < 2000; ++i) pool.post([] {});
    });
    pool.drain();
    steals_seen = pool.steals();
    overflows_seen = pool.overflows();
  }
  // The registry counters aggregate exactly what the pool itself counted.
  EXPECT_EQ(counter_value("threadpool.steals"), steals0 + steals_seen);
  EXPECT_EQ(counter_value("threadpool.overflow"), overflow0 + overflows_seen);
}

TEST(SubstrateMetrics, SieveRunFeedsMiddlewareAndNodeSeries) {
  MetricsOn on;
  auto& reg = obs::MetricsRegistry::global();
  const auto invoke0 =
      reg.histogram("middleware.invoke_us",
                    {{"method", "process"}, {"middleware", "MPP"}})
          ->count();
  sv::SieveHarness harness(sv::Version::kFarmMpp, small_config(2));
  const auto result = harness.run();
  EXPECT_EQ(result.primes, sv::count_primes_up_to(20'000));

  // Per-method middleware latency + payload histograms moved...
  const obs::Labels mpp_process{{"method", "process"}, {"middleware", "MPP"}};
  EXPECT_GT(reg.histogram("middleware.invoke_us", mpp_process)->count(),
            invoke0);
  EXPECT_GT(reg.histogram("middleware.payload_bytes", mpp_process,
                          obs::Histogram::bytes_bounds())
                ->count(),
            0u);
  // ...creations were timed under "new"...
  EXPECT_GT(reg.histogram("middleware.invoke_us",
                          {{"method", "new"}, {"middleware", "MPP"}})
                ->count(),
            0u);
  // ...and the serving nodes recorded handle latencies.
  EXPECT_GT(reg.histogram("node.handle_us", {{"node", "1"}})->count(), 0u);
  EXPECT_GT(counter_value("node.handled", {{"node", "1"}}), 0u);
}

TEST(SubstrateMetrics, FaultInjectorCountsIntoRegistry) {
  MetricsOn on;
  cl::Cluster cluster({2, 1});
  register_counter(cluster.registry());
  cl::MppMiddleware mpp(cluster, cl::CostModel::loopback());
  cl::FaultInjectingMiddleware::Options options;
  options.seed = 7;
  options.drop_rate = 1.0;  // every op drops, deterministically
  cl::FaultInjectingMiddleware faulty(mpp, options);

  auto handle =
      mpp.create(0, "Counter", se::encode(mpp.wire_format(), 0LL));
  const obs::Labels labels{{"middleware", std::string(faulty.name())}};
  const auto dropped0 = counter_value("faults.dropped", labels);
  const auto intercepted0 = counter_value("faults.intercepted", labels);
  EXPECT_THROW(
      faulty.invoke(handle, "get", se::encode(faulty.wire_format())),
      cl::rpc::RpcError);
  EXPECT_EQ(counter_value("faults.dropped", labels), dropped0 + 1);
  EXPECT_EQ(counter_value("faults.intercepted", labels), intercepted0 + 1);
  EXPECT_EQ(faulty.fault_stats().dropped.value(), 1u);
  cluster.shutdown();
}

TEST(HybridMiddleware, StatsAggregateControlAndFastBytes) {
  // Satellite regression: hybrid stats() used to report only the control
  // backend, silently dropping every fast-path byte.
  cl::Cluster cluster({2, 1});
  register_counter(cluster.registry());
  cl::RmiMiddleware rmi(cluster, cl::CostModel::loopback());
  cl::MppMiddleware mpp(cluster, cl::CostModel::loopback());
  cl::HybridMiddleware hybrid(rmi, mpp, {"add"});

  auto handle =
      hybrid.create(0, "Counter", se::encode(hybrid.wire_format(), 5LL));

  // Fast-path call: the payload must be encoded with the ROUTED
  // middleware's wire format.
  auto& routed = hybrid.route_for("add");
  ASSERT_EQ(routed.name(), "MPP");
  hybrid.invoke(handle, "add", se::encode(routed.wire_format(), 3LL));

  const auto& agg = hybrid.stats();
  const auto& fast = mpp.stats();
  EXPECT_GT(fast.bytes_sent.value(), 0u);
  EXPECT_EQ(agg.creates.value(), 1u);
  EXPECT_EQ(agg.sync_calls.value(), 1u);
  EXPECT_EQ(agg.bytes_sent.value(),
            rmi.stats().bytes_sent.value() + fast.bytes_sent.value());
  EXPECT_EQ(agg.bytes_received.value(),
            rmi.stats().bytes_received.value() + fast.bytes_received.value());
  cluster.shutdown();
}
