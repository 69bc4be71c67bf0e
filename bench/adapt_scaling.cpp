// Phase-shifting workload for the autonomic AdaptationAspect: does
// self-tuning recover hand-tuned throughput when no single static
// configuration can?
//
// Three phases alternate, each favouring a different corner of the
// (workers, grain) space:
//
//   sieve_fine    CPU-bound trial division, ~0.2us per item: fine grain
//                 drowns in task-envelope overhead, so coarse grain wins
//                 and surplus workers only add wake/steal traffic.
//   service_wide  latency-bound request handling (1ms blocked per item —
//                 the loadgen net-phase shape: workers wait on I/O, not
//                 the CPU): throughput is proportional to the number of
//                 concurrent servers, so wide pools + fine grain win and
//                 coarse grain caps the parallelism at items/grain chunks.
//   mandel_coarse CPU-bound Mandelbrot rows, ~1ms per item: coarse
//                 natural grain, insensitive to both knobs — the stability
//                 leg where an oscillating controller would lose ground.
//
// Every configuration runs the same schedule: `--reps` rounds of the
// three phases, `--phase-seconds` each. Static configurations pin
// (workers, grain) for the whole run; the `adaptive` configuration plugs
// an AdaptationAspect whose controller moves both knobs from live
// threadpool.* metrics (online ThreadPool::resize + the shared grain
// cell). The JSON written to --out records per-phase throughput for every
// configuration plus the distilled recovery table that
// tools/check_adapt_bench.py gates on: adaptive must reach
// --require-recovery (default 0.8) of the best static throughput in
// EVERY phase, while no static configuration does.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apar/adapt/adaptation_aspect.hpp"
#include "apar/aop/aop.hpp"
#include "apar/common/config.hpp"
#include "apar/common/json.hpp"
#include "apar/concurrency/parallel_for.hpp"
#include "apar/concurrency/thread_pool.hpp"
#include "apar/sieve/prime_filter.hpp"

namespace adapt = apar::adapt;
namespace aop = apar::aop;
namespace common = apar::common;
namespace concurrency = apar::concurrency;

namespace {

using Clock = std::chrono::steady_clock;

// ~0.2us of integer work per item: fixed-trip trial division, so every
// item costs the same regardless of index.
std::uint32_t sieve_item(std::uint32_t i) {
  const std::uint32_t n = (i * 2654435761u) | 1u;
  std::uint32_t divisors = 0;
  for (std::uint32_t d = 3; d <= 63; d += 2)
    if (n % d == 0) ++divisors;
  return divisors;
}

// ~1ms of floating-point work per row: escape-time iteration over a strip
// chosen mostly inside the set, so the full iteration budget is spent.
double mandel_row(std::size_t row, std::size_t width, std::size_t iters) {
  double sum = 0.0;
  const double ci = -0.1 + 0.0004 * static_cast<double>(row % 64);
  for (std::size_t px = 0; px < width; ++px) {
    const double cr = -0.2 + 0.001 * static_cast<double>(px);
    double zr = 0.0, zi = 0.0;
    std::size_t it = 0;
    while (it < iters && zr * zr + zi * zi < 4.0) {
      const double nzr = zr * zr - zi * zi + cr;
      zi = 2.0 * zr * zi + ci;
      zr = nzr;
      ++it;
    }
    sum += static_cast<double>(it);
  }
  return sum;
}

struct Options {
  double phase_seconds = 6.0;
  int reps = 2;
  int interval_ms = 50;
  std::size_t max_workers = 6;
  std::size_t sieve_n = 100'000;
  std::size_t service_items = 252;
  std::size_t mandel_rows = 48;
  std::size_t mandel_width = 128;
  std::size_t mandel_iters = 1'200;
  std::string out = "BENCH_adapt.json";
};

struct ConfigSpec {
  std::string name;
  bool adaptive = false;
  std::size_t workers = 1;  ///< static worker count (adaptive: start)
  std::size_t grain = 1;    ///< static grain (adaptive: start)
};

struct PhaseStats {
  double seconds = 0.0;
  std::uint64_t items = 0;
  [[nodiscard]] double throughput() const {
    return seconds > 0.0 ? static_cast<double>(items) / seconds : 0.0;
  }
};

struct RunResult {
  std::map<std::string, PhaseStats> phases;
  // Controller diagnostics (adaptive configuration only).
  std::uint64_t decisions = 0;
  std::uint64_t reverts = 0;
  std::int64_t final_workers = 0;
  std::int64_t final_grain = 0;
};

const char* const kPhaseNames[] = {"sieve_fine", "service_wide",
                                   "mandel_coarse"};

void run_phase(const std::string& phase, const Options& opt,
               concurrency::ThreadPool& pool,
               const std::atomic<std::int64_t>& grain, PhaseStats& stats,
               std::atomic<std::uint64_t>& checksum) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.phase_seconds));
  std::uint64_t items = 0;
  Clock::time_point end = start;
  while (Clock::now() < deadline) {
    const auto g = static_cast<std::size_t>(
        std::max<std::int64_t>(1, grain.load(std::memory_order_relaxed)));
    if (phase == "sieve_fine") {
      concurrency::parallel_for(pool, 0, opt.sieve_n, g, [&](std::size_t i) {
        if (sieve_item(static_cast<std::uint32_t>(i)) == 0)
          checksum.fetch_add(1, std::memory_order_relaxed);
      });
      items += opt.sieve_n;
    } else if (phase == "service_wide") {
      concurrency::parallel_for(
          pool, 0, opt.service_items, g, [&](std::size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          });
      items += opt.service_items;
    } else {  // mandel_coarse
      concurrency::parallel_for(pool, 0, opt.mandel_rows, g,
                                [&](std::size_t row) {
                                  const double s = mandel_row(
                                      row, opt.mandel_width, opt.mandel_iters);
                                  checksum.fetch_add(
                                      static_cast<std::uint64_t>(s) & 0xff,
                                      std::memory_order_relaxed);
                                });
      items += opt.mandel_rows;
    }
    end = Clock::now();
  }
  stats.seconds += std::chrono::duration<double>(end - start).count();
  stats.items += items;
}

RunResult run_config(const ConfigSpec& cfg, const Options& opt,
                     std::atomic<std::uint64_t>& checksum) {
  RunResult result;
  concurrency::ThreadPool pool(cfg.workers, opt.max_workers);
  std::atomic<std::int64_t> grain{static_cast<std::int64_t>(cfg.grain)};

  aop::Context ctx;
  std::shared_ptr<adapt::AdaptationAspect<apar::sieve::PrimeFilter>> tuner;
  if (cfg.adaptive) {
    adapt::AdaptationController::Config ccfg;
    ccfg.interval = std::chrono::milliseconds(opt.interval_ms);
    ccfg.cooldown_ticks = 1;
    ccfg.shrink_patience = 3;
    ccfg.probe_ticks = 30;
    ccfg.queue_wait_grow_us = 300.0;
    tuner = std::make_shared<
        adapt::AdaptationAspect<apar::sieve::PrimeFilter>>(ccfg);
    tuner->controller().set_workers_knob(adapt::Knob(
        "workers", 1, static_cast<std::int64_t>(opt.max_workers),
        static_cast<std::int64_t>(cfg.workers), [&pool](std::int64_t v) {
          pool.resize(static_cast<std::size_t>(v));
        }));
    tuner->controller().set_grain_knob(adapt::Knob(
        "grain", 1, 64, static_cast<std::int64_t>(cfg.grain),
        [&grain](std::int64_t v) {
          grain.store(v, std::memory_order_relaxed);
        }));
    tuner->adapt_method<&apar::sieve::PrimeFilter::process>(
        {"workers", "grain"});
    ctx.attach(tuner);
  }

  for (int rep = 0; rep < opt.reps; ++rep) {
    for (const char* phase : kPhaseNames) {
      run_phase(phase, opt, pool, grain, result.phases[phase], checksum);
    }
  }

  if (tuner) {
    result.decisions = tuner->controller().decisions();
    result.reverts = tuner->controller().reverts();
    result.final_workers = tuner->controller().workers();
    result.final_grain = tuner->controller().grain();
    ctx.detach(tuner->name());  // stop the loop before the pool dies
  }
  return result;
}

std::string json_phase_block(const RunResult& run) {
  std::string out = "{";
  bool first = true;
  for (const auto& [phase, stats] : run.phases) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + phase + "\": {\"items\": " +
           common::json_number(static_cast<double>(stats.items)) +
           ", \"seconds\": " + common::json_number(stats.seconds) +
           ", \"throughput_items_per_s\": " +
           common::json_number(stats.throughput()) + "}";
  }
  out += "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const common::Config cli(argc, argv);
  Options opt;
  opt.phase_seconds = cli.get_double("phase-seconds", opt.phase_seconds);
  opt.reps = static_cast<int>(cli.get_int("reps", opt.reps));
  opt.interval_ms =
      static_cast<int>(cli.get_int("interval-ms", opt.interval_ms));
  opt.max_workers = static_cast<std::size_t>(
      cli.get_int("max-workers", static_cast<long long>(opt.max_workers)));
  opt.sieve_n = static_cast<std::size_t>(
      cli.get_int("sieve-n", static_cast<long long>(opt.sieve_n)));
  opt.service_items = static_cast<std::size_t>(cli.get_int(
      "service-items", static_cast<long long>(opt.service_items)));
  opt.mandel_rows = static_cast<std::size_t>(
      cli.get_int("mandel-rows", static_cast<long long>(opt.mandel_rows)));
  opt.mandel_iters = static_cast<std::size_t>(
      cli.get_int("mandel-iters", static_cast<long long>(opt.mandel_iters)));
  opt.out = cli.get("out", opt.out);

  const std::size_t w_lo = 1;
  const std::size_t w_hi = opt.max_workers;
  const std::size_t g_lo = 1;
  const std::size_t g_hi = 64;
  std::vector<ConfigSpec> configs = {
      {"static_w" + std::to_string(w_lo) + "_g" + std::to_string(g_lo), false,
       w_lo, g_lo},
      {"static_w" + std::to_string(w_lo) + "_g" + std::to_string(g_hi), false,
       w_lo, g_hi},
      {"static_w" + std::to_string(w_hi) + "_g" + std::to_string(g_lo), false,
       w_hi, g_lo},
      {"static_w" + std::to_string(w_hi) + "_g" + std::to_string(g_hi), false,
       w_hi, g_hi},
      {"adaptive", true, 2, 8},
  };

  std::atomic<std::uint64_t> checksum{0};
  std::map<std::string, RunResult> runs;
  for (const ConfigSpec& cfg : configs) {
    std::printf("== %s (%d rep(s) x %zu phases x %.1fs) ==\n",
                cfg.name.c_str(), opt.reps, std::size(kPhaseNames),
                opt.phase_seconds);
    std::fflush(stdout);
    runs[cfg.name] = run_config(cfg, opt, checksum);
    for (const char* phase : kPhaseNames) {
      const PhaseStats& s = runs[cfg.name].phases[phase];
      std::printf("  %-14s %10.0f items/s\n", phase, s.throughput());
    }
    std::fflush(stdout);
  }

  // Distill: best static per phase, then each configuration's worst-phase
  // recovery against it.
  std::map<std::string, std::pair<std::string, double>> best_static;
  for (const char* phase : kPhaseNames) {
    for (const auto& [name, run] : runs) {
      if (name == "adaptive") continue;
      const double t = run.phases.at(phase).throughput();
      if (t > best_static[phase].second) best_static[phase] = {name, t};
    }
  }
  std::map<std::string, double> min_recovery;
  for (const auto& [name, run] : runs) {
    double worst = 1e300;
    for (const char* phase : kPhaseNames) {
      const double best = best_static[phase].second;
      if (best <= 0.0) continue;
      worst = std::min(worst, run.phases.at(phase).throughput() / best);
    }
    min_recovery[name] = worst;
  }
  double best_static_min = 0.0;
  for (const auto& [name, r] : min_recovery)
    if (name != "adaptive") best_static_min = std::max(best_static_min, r);

  std::string json = "{\n  \"schema_version\": 1,\n";
  json += "  \"options\": {\"phase_seconds\": " +
          common::json_number(opt.phase_seconds) +
          ", \"reps\": " + common::json_number(opt.reps) +
          ", \"interval_ms\": " + common::json_number(opt.interval_ms) +
          ", \"max_workers\": " +
          common::json_number(static_cast<double>(opt.max_workers)) + "},\n";
  json += "  \"configs\": {";
  bool first = true;
  for (const auto& [name, run] : runs) {
    if (!first) json += ",";
    first = false;
    json += "\n    \"" + name + "\": {\"phases\": " + json_phase_block(run);
    if (name == "adaptive") {
      json += ", \"controller\": {\"decisions\": " +
              common::json_number(static_cast<double>(run.decisions)) +
              ", \"reverts\": " +
              common::json_number(static_cast<double>(run.reverts)) +
              ", \"final_workers\": " +
              common::json_number(static_cast<double>(run.final_workers)) +
              ", \"final_grain\": " +
              common::json_number(static_cast<double>(run.final_grain)) + "}";
    }
    json += "}";
  }
  json += "\n  },\n  \"recovery\": {\n    \"best_static_per_phase\": {";
  first = true;
  for (const char* phase : kPhaseNames) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + std::string(phase) + "\": {\"config\": \"" +
            best_static[phase].first + "\", \"throughput_items_per_s\": " +
            common::json_number(best_static[phase].second) + "}";
  }
  json += "},\n    \"min_recovery\": {";
  first = true;
  for (const auto& [name, r] : min_recovery) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": " + common::json_number(r);
  }
  json += "},\n    \"adaptive_min_recovery\": " +
          common::json_number(min_recovery["adaptive"]) +
          ",\n    \"best_static_min_recovery\": " +
          common::json_number(best_static_min) + "\n  },\n";
  json += "  \"checksum\": " +
          common::json_number(static_cast<double>(checksum.load() & 0xffff)) +
          "\n}\n";

  if (std::FILE* f = std::fopen(opt.out.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "adapt_scaling: cannot write %s\n", opt.out.c_str());
    return 2;
  }
  std::printf(
      "wrote %s\n  adaptive min recovery %.3f, best static min recovery "
      "%.3f\n",
      opt.out.c_str(), min_recovery["adaptive"], best_static_min);
  return 0;
}
