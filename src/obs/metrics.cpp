#include "apar/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "apar/common/json.hpp"

namespace apar::obs {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  if (bounds_.empty())
    throw std::invalid_argument("Histogram needs at least one bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1])
      throw std::invalid_argument("Histogram bounds must strictly increase");
  }
  min_bits_.store(std::bit_cast<std::uint64_t>(
                      std::numeric_limits<double>::infinity()),
                  std::memory_order_relaxed);
  max_bits_.store(std::bit_cast<std::uint64_t>(
                      -std::numeric_limits<double>::infinity()),
                  std::memory_order_relaxed);
}

void Histogram::record(double value) {
  if (value < 0.0) value = 0.0;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Fixed-point (value * 1000) accumulation keeps concurrent sums exact —
  // the registry concurrency test asserts totals to the last unit.
  sum_nanos_.fetch_add(static_cast<std::uint64_t>(value * 1000.0 + 0.5),
                       std::memory_order_relaxed);
  std::uint64_t cur = min_bits_.load(std::memory_order_relaxed);
  while (value < std::bit_cast<double>(cur) &&
         !min_bits_.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(value),
                                          std::memory_order_relaxed)) {
  }
  cur = max_bits_.load(std::memory_order_relaxed);
  while (value > std::bit_cast<double>(cur) &&
         !max_bits_.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(value),
                                          std::memory_order_relaxed)) {
  }
}

double Histogram::sum() const {
  return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) /
         1000.0;
}

double Histogram::min() const {
  if (count() == 0) return 0.0;
  return std::bit_cast<double>(min_bits_.load(std::memory_order_relaxed));
}

double Histogram::max() const {
  if (count() == 0) return 0.0;
  return std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
}

double Histogram::mean() const {
  const auto n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> cumulative(buckets_.size());
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    acc += buckets_[i].load(std::memory_order_relaxed);
    cumulative[i] = acc;
  }
  return cumulative;
}

double Histogram::percentile(double pct) const {
  // Empty histogram: every percentile is 0.0 by contract, decided up
  // front — not an accident of zero-filled cumulative buckets.
  if (count() == 0) return 0.0;
  const auto cumulative = bucket_counts();
  const std::uint64_t total = cumulative.back();
  // count_ and the buckets are bumped by separate relaxed atomics, so a
  // racing reader can see count() > 0 before any bucket increment lands.
  if (total == 0) return 0.0;
  pct = std::clamp(pct, 0.0, 100.0);
  const double rank = pct / 100.0 * static_cast<double>(total);
  for (std::size_t i = 0; i < cumulative.size(); ++i) {
    if (static_cast<double>(cumulative[i]) < rank) continue;
    if (i == bounds_.size()) return max();  // +Inf bucket
    const double hi = std::min(bounds_[i], max());
    const double lo = i == 0 ? std::min(min(), hi) : bounds_[i - 1];
    const std::uint64_t below = i == 0 ? 0 : cumulative[i - 1];
    const std::uint64_t in_bucket = cumulative[i] - below;
    if (in_bucket == 0) return hi;
    const double frac = (rank - static_cast<double>(below)) /
                        static_cast<double>(in_bucket);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return max();
}

std::vector<double> Histogram::latency_us_bounds() {
  return {1,    2,    5,    10,   20,   50,   100,  200,
          500,  1e3,  2e3,  5e3,  1e4,  2e4,  5e4,  1e5,
          2e5,  5e5,  1e6,  2e6,  5e6,  1e7};
}

std::vector<double> Histogram::bytes_bounds() {
  return {16,     64,      256,     1024,     4096,    16384,
          65536,  262144,  1048576, 4194304,  16777216};
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

namespace {

Labels normalize(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

std::string metric_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  key += '{';
  for (const auto& [k, v] : labels) {
    key += k;
    key += '=';
    key += v;
    key += ',';
  }
  key += '}';
  return key;
}

std::string labels_str(const Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ',';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

}  // namespace

MetricsRegistry::Entry& MetricsRegistry::entry_locked(
    std::string_view name, Labels labels, MetricSnapshot::Kind kind) {
  auto [it, fresh] = entries_.try_emplace(metric_key(name, labels));
  Entry& e = it->second;
  if (fresh) {
    e.kind = kind;
    e.name = std::string(name);
    e.labels = std::move(labels);
  } else if (e.kind != kind) {
    throw std::logic_error("metric '" + std::string(name) +
                           "' already registered with another type");
  }
  return e;
}

std::int64_t MetricsRegistry::value_of(const Entry& e) {
  switch (e.kind) {
    case MetricSnapshot::Kind::kCounter: {
      std::uint64_t v = e.retired + (e.counter ? e.counter->value() : 0);
      for (const auto& [id, c] : e.counters) v += c->value();
      return static_cast<std::int64_t>(v);
    }
    case MetricSnapshot::Kind::kGauge: {
      std::int64_t v = e.gauge ? e.gauge->value() : 0;
      for (const auto& [id, read] : e.levels) v += read();
      return v;
    }
    case MetricSnapshot::Kind::kHistogram:
      break;
  }
  return static_cast<std::int64_t>(e.histogram->count());
}

std::shared_ptr<Counter> MetricsRegistry::counter(std::string_view name,
                                                  Labels labels) {
  labels = normalize(std::move(labels));
  std::lock_guard lock(mutex_);
  Entry& e =
      entry_locked(name, std::move(labels), MetricSnapshot::Kind::kCounter);
  if (!e.counter) e.counter = std::make_shared<Counter>();
  return e.counter;
}

std::shared_ptr<Gauge> MetricsRegistry::gauge(std::string_view name,
                                              Labels labels) {
  labels = normalize(std::move(labels));
  std::lock_guard lock(mutex_);
  Entry& e = entry_locked(name, std::move(labels), MetricSnapshot::Kind::kGauge);
  if (!e.gauge) e.gauge = std::make_shared<Gauge>();
  return e.gauge;
}

std::shared_ptr<Histogram> MetricsRegistry::histogram(
    std::string_view name, Labels labels, std::vector<double> bounds) {
  labels = normalize(std::move(labels));
  std::lock_guard lock(mutex_);
  Entry& e =
      entry_locked(name, std::move(labels), MetricSnapshot::Kind::kHistogram);
  if (!e.histogram) e.histogram = std::make_shared<Histogram>(std::move(bounds));
  return e.histogram;
}

Export MetricsRegistry::export_counters(std::string_view prefix, Labels labels,
                                        std::span<const CounterField> fields) {
  labels = normalize(std::move(labels));
  std::lock_guard lock(mutex_);
  const std::uint64_t id = next_export_id_++;
  auto& keys = exports_[id];
  for (const CounterField& f : fields) {
    const std::string name = std::string(prefix) + "." + std::string(f.name);
    Entry* e = nullptr;
    try {
      e = &entry_locked(name, labels, MetricSnapshot::Kind::kCounter);
    } catch (...) {
      // Roll back: a half-listed set would outlive the handle never made.
      unexport_locked(id);
      throw;
    }
    e->counters.emplace(id, f.counter);
    keys.push_back(metric_key(name, labels));
  }
  return Export(this, id);
}

Export MetricsRegistry::export_gauge(std::string_view name, Labels labels,
                                     std::function<std::int64_t()> read) {
  labels = normalize(std::move(labels));
  std::lock_guard lock(mutex_);
  Entry& e = entry_locked(name, labels, MetricSnapshot::Kind::kGauge);
  const std::uint64_t id = next_export_id_++;
  e.levels.emplace(id, std::move(read));
  exports_[id].push_back(metric_key(name, labels));
  return Export(this, id);
}

void MetricsRegistry::unexport(std::uint64_t id) {
  std::lock_guard lock(mutex_);
  unexport_locked(id);
}

void MetricsRegistry::unexport_locked(std::uint64_t id) {
  const auto it = exports_.find(id);
  if (it == exports_.end()) return;
  for (const std::string& key : it->second) {
    const auto e = entries_.find(key);
    if (e == entries_.end()) continue;  // clear() dropped it
    if (const auto c = e->second.counters.find(id);
        c != e->second.counters.end()) {
      e->second.retired += c->second->value();
      e->second.counters.erase(c);
    }
    e->second.levels.erase(id);
  }
  exports_.erase(it);
}

std::int64_t MetricsRegistry::value(std::string_view name,
                                    Labels labels) const {
  const std::string key = metric_key(name, normalize(std::move(labels)));
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(key);
  return it == entries_.end() ? 0 : value_of(it->second);
}

Export& Export::operator=(Export&& other) noexcept {
  if (this != &other) {
    if (registry_) registry_->unexport(id_);
    registry_ = std::exchange(other.registry_, nullptr);
    id_ = other.id_;
  }
  return *this;
}

Export::~Export() {
  if (registry_) registry_->unexport(id_);
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) {
    MetricSnapshot s;
    s.kind = e.kind;
    s.name = e.name;
    s.labels = e.labels;
    switch (e.kind) {
      case MetricSnapshot::Kind::kCounter:
      case MetricSnapshot::Kind::kGauge:
        s.value = value_of(e);
        break;
      case MetricSnapshot::Kind::kHistogram:
        s.count = e.histogram->count();
        s.sum = e.histogram->sum();
        s.min = e.histogram->min();
        s.max = e.histogram->max();
        s.mean = e.histogram->mean();
        s.p50 = e.histogram->percentile(50);
        s.p95 = e.histogram->percentile(95);
        s.p99 = e.histogram->percentile(99);
        s.p999 = e.histogram->percentile(99.9);
        s.bounds = e.histogram->bounds();
        s.buckets = e.histogram->bucket_counts();
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

common::Table MetricsRegistry::table() const {
  common::Table t({"metric", "labels", "type", "value", "count", "mean",
                   "p50", "p95", "p99", "p999", "max"});
  auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", v);
    return std::string(buf);
  };
  for (const auto& s : snapshot()) {
    switch (s.kind) {
      case MetricSnapshot::Kind::kCounter:
        t.add_row({s.name, labels_str(s.labels), "counter",
                   std::to_string(s.value), "", "", "", "", "", "", ""});
        break;
      case MetricSnapshot::Kind::kGauge:
        t.add_row({s.name, labels_str(s.labels), "gauge",
                   std::to_string(s.value), "", "", "", "", "", "", ""});
        break;
      case MetricSnapshot::Kind::kHistogram:
        t.add_row({s.name, labels_str(s.labels), "histogram", "",
                   std::to_string(s.count), fmt(s.mean), fmt(s.p50),
                   fmt(s.p95), fmt(s.p99), fmt(s.p999), fmt(s.max)});
        break;
    }
  }
  return t;
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  os << "{\"metrics\":[";
  bool first = true;
  for (const auto& s : snapshot()) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << common::json_escape(s.name) << "\",\"labels\":{";
    bool lfirst = true;
    for (const auto& [k, v] : s.labels) {
      if (!lfirst) os << ',';
      lfirst = false;
      os << '"' << common::json_escape(k) << "\":\"" << common::json_escape(v)
         << '"';
    }
    os << "},";
    switch (s.kind) {
      case MetricSnapshot::Kind::kCounter:
        os << "\"type\":\"counter\",\"value\":" << s.value;
        break;
      case MetricSnapshot::Kind::kGauge:
        os << "\"type\":\"gauge\",\"value\":" << s.value;
        break;
      case MetricSnapshot::Kind::kHistogram: {
        os << "\"type\":\"histogram\",\"count\":" << s.count
           << ",\"sum\":" << common::json_number(s.sum)
           << ",\"min\":" << common::json_number(s.min)
           << ",\"max\":" << common::json_number(s.max)
           << ",\"p50\":" << common::json_number(s.p50)
           << ",\"p95\":" << common::json_number(s.p95)
           << ",\"p99\":" << common::json_number(s.p99)
           << ",\"p999\":" << common::json_number(s.p999) << ",\"buckets\":[";
        for (std::size_t i = 0; i < s.buckets.size(); ++i) {
          if (i) os << ',';
          os << "{\"le\":";
          if (i < s.bounds.size())
            os << common::json_number(s.bounds[i]);
          else
            os << "\"+Inf\"";
          os << ",\"count\":" << s.buckets[i] << '}';
        }
        os << ']';
        break;
      }
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

void MetricsRegistry::clear() {
  std::lock_guard lock(mutex_);
  entries_.clear();
}

MetricsRegistry& MetricsRegistry::global() {
  // Never destroyed: components with static storage may unlist their
  // exports during exit, in any order relative to this function's first
  // call.
  static MetricsRegistry* const instance = new MetricsRegistry();
  return *instance;
}

// ---------------------------------------------------------------------------
// Enablement gate
// ---------------------------------------------------------------------------

namespace {

bool env_truthy(const char* v) {
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0 &&
         std::strcmp(v, "false") != 0 && std::strcmp(v, "off") != 0;
}

}  // namespace

bool detail::metrics_enabled_slow() {
  const char* out = std::getenv("APAR_METRICS_OUT");
  const bool on =
      env_truthy(std::getenv("APAR_METRICS")) || (out != nullptr && *out);
  int expected = -1;
  metrics_state.compare_exchange_strong(expected, on ? 1 : 0,
                                        std::memory_order_relaxed);
  return metrics_state.load(std::memory_order_relaxed) != 0;
}

void set_metrics_enabled(bool on) {
  (void)metrics_enabled();  // settle the environment default first
  int v = detail::metrics_state.load(std::memory_order_relaxed);
  while (!detail::metrics_state.compare_exchange_weak(
      v, (v & ~1) | (on ? 1 : 0), std::memory_order_relaxed)) {
  }
}

MetricsHold::MetricsHold() {
  (void)metrics_enabled();
  detail::metrics_state.fetch_add(2, std::memory_order_relaxed);
}

MetricsHold::~MetricsHold() {
  detail::metrics_state.fetch_sub(2, std::memory_order_relaxed);
}

}  // namespace apar::obs
