// Ablations for the paper's §4.4 optimisation aspects: each one is plugged
// onto the SAME woven application and measured against the unoptimised
// run — the methodology's promise that optimisations are modular and
// individually (un)pluggable.
//
//   - communication packing: fewer, bigger messages on the MPP farm;
//   - thread pool: unbounded thread-per-call (on parked threads) vs a
//     bounded pool, with many small packs;
//   - object cache: repeated creations short-circuited.
#include <cstdio>
#include <memory>

#include "apar/cluster/middleware.hpp"
#include "apar/common/stopwatch.hpp"
#include "apar/common/table.hpp"
#include "apar/sieve/workload.hpp"
#include "apar/strategies/strategies.hpp"
#include "bench_common.hpp"
#include "obs_support.hpp"

namespace ab = apar::bench;
namespace ac = apar::common;
namespace aop = apar::aop;
namespace cl = apar::cluster;
namespace st = apar::strategies;
namespace sv = apar::sieve;
using sv::PrimeFilter;

namespace {

using Farm = st::FarmAspect<PrimeFilter, long long, long long, long long,
                            double>;
using Conc = st::ConcurrencyAspect<PrimeFilter>;
using Dist =
    st::DistributionAspect<PrimeFilter, long long, long long, double>;
using Packing = st::optimisation::PackingAspect<PrimeFilter, long long>;

struct MppFarmStack {
  explicit MppFarmStack(const sv::SieveConfig& cfg) {
    cluster = std::make_unique<cl::Cluster>(
        cl::Cluster::Options{cfg.nodes, cfg.node_executors});
    cluster->registry()
        .bind<PrimeFilter>("PrimeFilter")
        .ctor<long long, long long, double>()
        .method<&PrimeFilter::filter>("filter")
        .method<&PrimeFilter::process>("process")
        .method<&PrimeFilter::collect>("collect")
        .method<&PrimeFilter::take_results>("take_results");
    middleware = std::make_unique<cl::MppMiddleware>(*cluster);
    ctx = std::make_unique<aop::Context>();

    Farm::Options fopts;
    fopts.duplicates = cfg.filters;
    fopts.pack_size = cfg.pack_size;
    farm = std::make_shared<Farm>("Partition", fopts);
    ctx->attach(farm);
    auto conc = std::make_shared<Conc>("Concurrency");
    conc->async_method<&PrimeFilter::process>();
    ctx->attach(conc);
    auto dist =
        std::make_shared<Dist>("Distribution", *cluster, *middleware);
    dist->distribute_method<&PrimeFilter::process>(true)
        .distribute_method<&PrimeFilter::take_results>();
    ctx->attach(dist);
    ab::obs_attach_trace(*ctx);
    config = cfg;
  }

  ~MppFarmStack() { ctx.reset(); }

  sv::SieveResult run() {
    sv::SieveResult result;
    auto candidates = sv::odd_candidates(config.max);
    const auto one_way0 = middleware->stats().one_way_calls.value();
    ac::Stopwatch sw;
    auto p = ctx->create<PrimeFilter>(2LL, sv::isqrt(config.max),
                                      config.ns_per_op);
    ctx->call<&PrimeFilter::process>(p, candidates);
    ctx->quiesce();
    result.seconds = sw.seconds();
    const auto survivors = farm->gather_results(*ctx);
    result.primes = sv::count_primes_up_to(sv::isqrt(config.max)) +
                    static_cast<long long>(survivors.size());
    result.one_way_messages =
        middleware->stats().one_way_calls.value() - one_way0;
    return result;
  }

  std::unique_ptr<cl::Cluster> cluster;
  std::unique_ptr<cl::Middleware> middleware;
  std::unique_ptr<aop::Context> ctx;
  std::shared_ptr<Farm> farm;
  sv::SieveConfig config;
};

void packing_ablation(const ab::FigureConfig& fig, double ns_per_op) {
  const long long expected = sv::count_primes_up_to(fig.max);
  sv::SieveConfig cfg = ab::to_sieve_config(fig, 8, ns_per_op);
  cfg.pack_size = fig.pack_size / 4;  // small packs: packing has room

  ac::Table table(
      {"Configuration", "time (s)", "one-way messages", "result"});
  for (const std::size_t batch : {std::size_t{0}, std::size_t{2},
                                  std::size_t{4}}) {
    MppFarmStack stack(cfg);
    if (batch > 0) {
      Packing::Options popts;
      popts.batch_packs = batch;
      stack.ctx->attach(std::make_shared<Packing>("Packing", popts));
    }
    std::vector<double> times;
    std::uint64_t messages = 0;
    bool ok = true;
    for (int r = 0; r < fig.reps; ++r) {
      const auto result = stack.run();
      times.push_back(result.seconds);
      messages = result.one_way_messages;
      ok = ok && result.primes == expected;
    }
    table.add_row({batch == 0 ? "no packing"
                              : "packing x" + std::to_string(batch),
                   ac::fmt_seconds(ac::median(times)),
                   std::to_string(messages), ok ? "correct" : "WRONG"});
  }
  std::printf("--- communication packing (MPP farm, 8 filters, small "
              "packs) ---\n%s\n",
              table.str().c_str());
}

void thread_pool_ablation(const ab::FigureConfig& fig, double ns_per_op) {
  const long long expected = sv::count_primes_up_to(fig.max);
  sv::SieveConfig cfg = ab::to_sieve_config(fig, 4, ns_per_op);
  cfg.pack_size = fig.pack_size / 10;  // many small packs: dispatch shows

  ac::Table table({"Executor", "time (s)"});
  for (const bool pooled : {false, true}) {
    std::vector<double> times;
    for (int r = 0; r < fig.reps; ++r) {
      sv::SieveHarness harness(sv::Version::kFarmThreads, cfg);
      ab::obs_attach_trace(harness.context());
      if (pooled) {
        harness.context().attach(
            std::make_shared<st::optimisation::ThreadPoolOptimisation>(
                "Concurrency", cfg.local_cpu_slots * 2));
      }
      const auto result = harness.run();
      if (result.primes != expected) {
        std::fprintf(stderr, "FATAL: wrong result in thread pool ablation\n");
        return;
      }
      times.push_back(result.seconds);
    }
    table.add_row({pooled ? "thread pool (optimisation aspect)"
                          : "thread per call (paper's Figure 12)",
                   ac::fmt_seconds(ac::median(times))});
  }
  std::printf("--- thread-per-call vs pooled executor (farm, tiny packs) "
              "---\n%s\n",
              table.str().c_str());
}

void object_cache_ablation() {
  using Cache =
      st::optimisation::ObjectCacheAspect<PrimeFilter, long long, long long,
                                          double>;
  constexpr int kCreations = 200;
  ac::Table table({"Configuration", "time (ms)", "objects built"});
  for (const bool cached : {false, true}) {
    aop::Context ctx;
    std::shared_ptr<Cache> cache;
    if (cached) {
      cache = std::make_shared<Cache>();
      ctx.attach(cache);
    }
    ac::Stopwatch sw;
    for (int i = 0; i < kCreations; ++i) {
      auto ref = ctx.create<PrimeFilter>(2LL, 2000LL, 0.0);
      (void)ref;
    }
    const double ms = sw.millis();
    const auto built =
        cached ? cache->misses() : static_cast<std::uint64_t>(kCreations);
    table.add_row({cached ? "object cache aspect" : "no cache",
                   ac::fmt_millis(ms), std::to_string(built)});
  }
  std::printf("--- object cache (200 identical creations) ---\n%s\n",
              table.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  auto cfg = ab::parse_figure_config(argc, argv);
  const double ns_per_op = sv::calibrate_ns_per_op(cfg.max, cfg.seq_seconds);
  std::printf("=== Optimisation aspects (paper §4.4) ===\n\n");
  packing_ablation(cfg, ns_per_op);
  thread_pool_ablation(cfg, ns_per_op);
  object_cache_ablation();
  ab::obs_finish();
  return 0;
}
