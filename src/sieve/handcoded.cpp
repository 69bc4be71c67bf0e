#include "apar/sieve/handcoded.hpp"

#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "apar/cluster/middleware.hpp"
#include "apar/common/stopwatch.hpp"
#include "apar/concurrency/parallel_for.hpp"
#include "apar/concurrency/sync_registry.hpp"
#include "apar/concurrency/task_group.hpp"
#include "apar/concurrency/thread_pool.hpp"
#include "apar/sieve/workload.hpp"
#include "apar/strategies/partition_common.hpp"

namespace apar::sieve::handcoded {

SieveResult run_pipeline_rmi(const SieveConfig& config) {
  namespace ac = apar::cluster;
  SieveResult result;

  // --- set-up: cluster, registry, remote filters (tangled with the
  // algorithm, exactly what the paper's methodology removes) -------------
  ac::Cluster::Options copts;
  copts.nodes = config.nodes;
  copts.executors_per_node = config.node_executors;
  ac::Cluster cluster(copts);
  cluster.registry()
      .bind<PrimeFilter>("PrimeFilter")
      .ctor<long long, long long, double>()
      .method<&PrimeFilter::filter>("filter")
      .method<&PrimeFilter::collect>("collect")
      .method<&PrimeFilter::take_results>("take_results");
  ac::RmiMiddleware rmi(cluster);
  const auto format = rmi.wire_format();

  auto candidates = odd_candidates(config.max);
  const long long root = sieve_root(config.max);
  const auto ranges = balanced_prime_ranges(config.max, config.filters);

  common::Stopwatch sw;

  std::vector<ac::RemoteHandle> stages;
  stages.reserve(config.filters);
  for (std::size_t i = 0; i < config.filters; ++i) {
    auto handle = rmi.create(
        static_cast<ac::NodeId>(i % config.nodes), "PrimeFilter",
        serial::encode(format, ranges[i].first, ranges[i].second,
                       config.ns_per_op));
    if (config.register_names) {
      const std::string name = "PS" + std::to_string(i + 1);
      cluster.name_server().bind(name, handle);
      if (auto resolved = rmi.lookup(name)) handle = *resolved;
    }
    stages.push_back(handle);
  }

  // --- the parallel algorithm: one thread per pack walks the pipeline ---
  auto packs =
      strategies::split_into_packs<long long>(candidates, config.pack_size);
  concurrency::TaskGroup group;
  concurrency::SyncRegistry monitors;
  for (auto& pack : packs) {
    group.spawn([&, pack]() mutable {
      for (std::size_t i = 0; i < stages.size(); ++i) {
        auto guard = monitors.acquire(&stages[i]);
        auto reply =
            rmi.invoke(stages[i], "filter", serial::encode(format, pack));
        serial::Reader reader(reply, format);
        reader.value(pack);  // copy-restore by hand
      }
      auto guard = monitors.acquire(&stages.back());
      rmi.invoke(stages.back(), "collect", serial::encode(format, pack));
    });
  }
  group.wait();
  result.seconds = sw.seconds();

  // --- result gathering (untimed, matching SieveHarness::run) -----------
  std::vector<long long> survivors;
  for (const auto& stage : stages) {
    auto reply = rmi.invoke(stage, "take_results", serial::encode(format));
    serial::Reader reader(reply, format);
    std::vector<long long> part;
    reader.value(part);
    survivors.insert(survivors.end(), part.begin(), part.end());
  }
  result.primes =
      count_primes_up_to(root) + static_cast<long long>(survivors.size());
  const auto& stats = rmi.stats();
  result.sync_messages = stats.sync_calls.value() + stats.creates.value();
  result.bytes_on_wire =
      stats.bytes_sent.value() + stats.bytes_received.value();
  return result;
}

SieveResult run_farm_threads(const SieveConfig& config) {
  SieveResult result;
  auto candidates = odd_candidates(config.max);
  const long long root = sieve_root(config.max);

  common::Stopwatch sw;

  std::vector<std::unique_ptr<PrimeFilter>> workers;
  for (std::size_t i = 0; i < config.filters; ++i)
    workers.push_back(
        std::make_unique<PrimeFilter>(2, root, config.ns_per_op));

  auto packs =
      strategies::split_into_packs<long long>(candidates, config.pack_size);
  // Hand-coded counterpart of the farm+pool weave: a work-stealing pool
  // sized to the CPU-slot budget (so no ParallelismLimiter is needed — the
  // pool IS the limiter) and one bulk submission for all packs. Packs are
  // routed round-robin by index; the per-worker monitor keeps PrimeFilter's
  // non-thread-safe process() serialised per duplicate.
  concurrency::ThreadPool pool(config.local_cpu_slots);
  concurrency::SyncRegistry monitors;
  concurrency::parallel_for(
      pool, 0, packs.size(), /*grain=*/1, [&](std::size_t p) {
        PrimeFilter* worker = workers[p % workers.size()].get();
        auto guard = monitors.acquire(worker);
        worker->process(packs[p]);
      });
  result.seconds = sw.seconds();

  long long survivors = 0;
  for (auto& worker : workers)
    survivors += static_cast<long long>(worker->take_results().size());
  result.primes = count_primes_up_to(root) + survivors;
  return result;
}

}  // namespace apar::sieve::handcoded
