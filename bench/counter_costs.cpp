// What one counted event costs. Components used to count each event
// twice: in their own relaxed atomic, and — only when APAR_METRICS was set
// before they were built — again in a registry mirror behind a null test.
// Now the component's counter set IS the export: one relaxed fetch_add,
// always, and a scrape reads the same atomic. The pairs below show the
// event-path cost is unchanged (Legacy_MirrorOff vs CounterSet), what the
// old mirror added when it was on (Legacy_MirrorOn), and the cost of the
// histogram switch test that replaced the latched probe pointer. All run
// on 1 and 4 threads hammering one shared counter; Scrape prices the read
// side, which is off the event path.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <memory>

#include "apar/obs/counters.hpp"

namespace obs = apar::obs;

namespace {

#define BENCH_COUNTER_FIELDS(X) X(events) X(bytes)
APAR_OBS_COUNTER_SET(BenchStats, BENCH_COUNTER_FIELDS);

/// The retired pattern: a private atomic plus an optional registry mirror.
struct LegacyStats {
  std::atomic<std::uint64_t> events{0};
  std::shared_ptr<obs::Counter> mirror;  // null unless metrics were on
};

LegacyStats& legacy_off() {
  static LegacyStats s;
  return s;
}

LegacyStats& legacy_on() {
  static LegacyStats s;
  static const bool wired = [] {
    s.mirror = obs::MetricsRegistry::global().counter("bench.legacy_events");
    return true;
  }();
  (void)wired;
  return s;
}

BenchStats& counter_set() {
  static BenchStats s;
  static const bool exported = [] {
    s.export_as("bench", {});
    return true;
  }();
  (void)exported;
  return s;
}

void count_legacy(LegacyStats& s) {
  s.events.fetch_add(1, std::memory_order_relaxed);
  if (s.mirror) s.mirror->add(1);
}

void BM_Legacy_MirrorOff(benchmark::State& state) {
  LegacyStats& s = legacy_off();
  for (auto _ : state) count_legacy(s);
  benchmark::DoNotOptimize(s.events.load(std::memory_order_relaxed));
}
BENCHMARK(BM_Legacy_MirrorOff)->Threads(1)->Threads(4);

void BM_Legacy_MirrorOn(benchmark::State& state) {
  LegacyStats& s = legacy_on();
  for (auto _ : state) count_legacy(s);
  benchmark::DoNotOptimize(s.events.load(std::memory_order_relaxed));
}
BENCHMARK(BM_Legacy_MirrorOn)->Threads(1)->Threads(4);

void BM_CounterSet(benchmark::State& state) {
  BenchStats& s = counter_set();
  for (auto _ : state) s.events.add();
  benchmark::DoNotOptimize(s.events.value());
}
BENCHMARK(BM_CounterSet)->Threads(1)->Threads(4);

/// The per-event histogram gate with the switch off: where a component
/// used to test a probe pointer latched at construction, it now reads the
/// live switch.
void BM_HistogramSwitchOff(benchmark::State& state) {
  obs::set_metrics_enabled(false);
  auto hist = obs::MetricsRegistry::global().histogram("bench.latency_us");
  for (auto _ : state) {
    if (obs::metrics_enabled()) hist->record(1.0);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_HistogramSwitchOff)->Threads(1)->Threads(4);

void BM_Scrape(benchmark::State& state) {
  obs::MetricsRegistry registry;
  BenchStats stats;
  stats.export_as("bench", {}, registry);
  stats.events.add(42);
  for (auto _ : state) benchmark::DoNotOptimize(registry.value("bench.events"));
}
BENCHMARK(BM_Scrape);

}  // namespace

BENCHMARK_MAIN();
