#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apar/common/table.hpp"

namespace apar::obs {

class MetricsRegistry;

/// Metric labels, e.g. {{"middleware", "MPP"}, {"method", "sieve"}}.
/// Normalised (sorted by key) before use so label order never creates
/// distinct time series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing count (events, bytes, microseconds of work):
/// one relaxed atomic, so add() costs exactly a relaxed fetch_add.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  /// Overwrite; only for aggregate views recomputed from live counters.
  void store(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed level (queue depth, live workers). add() is the
/// common path for depth-style gauges: +1 on enqueue, -1 on dequeue.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram: bucket upper bounds are chosen at construction
/// and never change, so record() is a binary search plus a handful of
/// relaxed atomic increments — cheap enough to sit on a middleware call
/// path when metrics are enabled, and entirely absent when they are not.
class Histogram {
 public:
  /// `bounds` are inclusive upper bounds, strictly increasing; an implicit
  /// +Inf bucket is appended.
  explicit Histogram(std::vector<double> bounds);

  void record(double value);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Cumulative count of values <= bounds()[i]; index bounds().size() is
  /// the +Inf bucket (== count()).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  /// Percentile estimate (linear within the winning bucket). pct is
  /// clamped to [0,100]. An empty histogram (count() == 0) returns 0.0 for
  /// every pct — a defined contract (tested), not a side effect of the
  /// bucket arithmetic.
  [[nodiscard]] double percentile(double pct) const;
  [[nodiscard]] double mean() const;

  /// Default bounds for latency-in-microseconds histograms: 1us .. 10s,
  /// 1-2-5 decades.
  static std::vector<double> latency_us_bounds();
  /// Default bounds for payload-size-in-bytes histograms: 16B .. 16MB.
  static std::vector<double> bytes_bounds();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_nanos_{0};  ///< sum scaled by 1000 (fixed point)
  std::atomic<std::uint64_t> min_bits_{0};
  std::atomic<std::uint64_t> max_bits_{0};
  std::atomic<bool> has_extrema_{false};
};

/// One metric flattened for rendering/export.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  Labels labels;
  // counter / gauge
  std::int64_t value = 0;
  // histogram
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;  ///< tail latency: 99.9th percentile
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< cumulative, +Inf last
};

/// One named field of a component's counter set (obs/counters.hpp).
struct CounterField {
  std::string_view name;
  const Counter* counter = nullptr;
};

/// Keeps component-owned series listed in a registry for as long as it
/// lives (move-only). When it dies the series are unlisted: exported
/// counters fold their final values into the series first, so a scraped
/// counter never goes backwards; exported levels simply drop out.
class Export {
 public:
  Export() = default;
  Export(Export&& other) noexcept
      : registry_(std::exchange(other.registry_, nullptr)), id_(other.id_) {}
  Export& operator=(Export&& other) noexcept;
  Export(const Export&) = delete;
  Export& operator=(const Export&) = delete;
  ~Export();

 private:
  friend class MetricsRegistry;
  Export(MetricsRegistry* registry, std::uint64_t id)
      : registry_(registry), id_(id) {}

  MetricsRegistry* registry_ = nullptr;
  std::uint64_t id_ = 0;
};

/// Thread-safe named-metric registry: the one place every layer's counters,
/// gauges and latency histograms are listed, snapshot-able as structs, a
/// common::Table, or JSON. Two kinds of series live here:
///
///   - registry-owned instruments (counter/gauge/histogram), held through
///     shared_ptrs so clear() never invalidates a live probe;
///   - component-owned exports: a component's counter set or a level it
///     computes, read in place at every snapshot. The value a component's
///     own stats() reports and the value a scrape reports are the same
///     atomics, summed over every live (and retired) exporter of the series.
class MetricsRegistry {
 public:
  std::shared_ptr<Counter> counter(std::string_view name, Labels labels = {});
  std::shared_ptr<Gauge> gauge(std::string_view name, Labels labels = {});
  /// Histograms with the same (name, labels) must agree on bounds; the
  /// first registration wins.
  std::shared_ptr<Histogram> histogram(
      std::string_view name, Labels labels = {},
      std::vector<double> bounds = Histogram::latency_us_bounds());

  /// List each field as counter "<prefix>.<field>"{labels}, read from the
  /// component's own atomics. The counters must outlive the handle.
  [[nodiscard]] Export export_counters(std::string_view prefix, Labels labels,
                                       std::span<const CounterField> fields);
  /// List `read()` as gauge `name`{labels}. It runs under the registry lock
  /// at every snapshot, so it must be cheap and must not call back into the
  /// registry.
  [[nodiscard]] Export export_gauge(std::string_view name, Labels labels,
                                    std::function<std::int64_t()> read);

  /// Current value of counter or gauge series `name`{labels}, exactly as a
  /// snapshot would report it (0 when the series does not exist).
  [[nodiscard]] std::int64_t value(std::string_view name,
                                   Labels labels = {}) const;

  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;
  /// Sorted, aligned rendering of every metric (counters/gauges first,
  /// then histograms with count/mean/p50/p95/p99/p999/max).
  [[nodiscard]] common::Table table() const;
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] std::size_t size() const;
  /// Drop every listed metric. Probes holding shared_ptrs keep recording
  /// into their (now unlisted) instruments; live exports are unlisted too.
  void clear();

  /// The process-wide registry all substrate instrumentation feeds.
  static MetricsRegistry& global();

 private:
  friend class Export;

  struct Entry {
    MetricSnapshot::Kind kind = MetricSnapshot::Kind::kCounter;
    std::string name;
    Labels labels;
    std::shared_ptr<Counter> counter;
    std::shared_ptr<Gauge> gauge;
    std::shared_ptr<Histogram> histogram;
    /// Exported sources, by export id.
    std::map<std::uint64_t, const Counter*> counters;
    std::map<std::uint64_t, std::function<std::int64_t()>> levels;
    /// Final counts of exporters that are gone.
    std::uint64_t retired = 0;
  };

  Entry& entry_locked(std::string_view name, Labels labels,
                      MetricSnapshot::Kind kind);
  static std::int64_t value_of(const Entry& e);
  void unexport(std::uint64_t id);
  void unexport_locked(std::uint64_t id);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  /// Entry keys each live export contributes to.
  std::map<std::uint64_t, std::vector<std::string>> exports_;
  std::uint64_t next_export_id_ = 1;
};

namespace detail {
/// -1 until the environment has been read; then holds * 2 + switch.
inline std::atomic<int> metrics_state{-1};
bool metrics_enabled_slow();
}  // namespace detail

/// The histogram switch. Counters and gauges are always on and always
/// exported; this only decides whether work that needs a clock read or a
/// bucket search (latency/size histograms) happens, and it is read at
/// every record, so flipping it takes effect in components that already
/// exist. On when APAR_METRICS is truthy or APAR_METRICS_OUT is non-empty
/// at first use, after set_metrics_enabled(true), or while a MetricsHold
/// lives. Plugged ProfilingAspects ignore it — plugging one is already the
/// opt-in.
inline bool metrics_enabled() {
  const int v = detail::metrics_state.load(std::memory_order_relaxed);
  return v < 0 ? detail::metrics_enabled_slow() : v != 0;
}
void set_metrics_enabled(bool on);

/// Keeps metrics_enabled() true while alive, independently of the switch
/// (nestable) — how a consumer of histograms, such as the adaptation
/// controller, opts in for exactly as long as it runs.
class MetricsHold {
 public:
  MetricsHold();
  ~MetricsHold();
  MetricsHold(const MetricsHold&) = delete;
  MetricsHold& operator=(const MetricsHold&) = delete;
};

}  // namespace apar::obs
