#include "apar/obs/tracer.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "apar/common/json.hpp"
#include "apar/obs/metrics.hpp"

namespace apar::obs {

namespace {

std::string hex_id(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, id);
  return std::string(buf);
}

}  // namespace

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  const CounterField dropped[] = {{"dropped_events", &dropped_}};
  dropped_export_ = MetricsRegistry::global().export_counters("trace", {}, dropped);
}

void Tracer::note_dropped_locked(std::uint64_t n) { dropped_.add(n); }

void Tracer::record(TraceEvent event) {
  common::MutexLock lock(mutex_);
  if (events_.size() >= capacity_) {
    const std::uint64_t evict = events_.size() - capacity_ + 1;
    events_.erase(events_.begin(),
                  events_.begin() + static_cast<std::ptrdiff_t>(evict));
    note_dropped_locked(evict);
  }
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::events() const {
  common::MutexLock lock(mutex_);
  return {events_.begin(), events_.end()};
}

std::vector<TraceEvent> Tracer::take_events() {
  std::deque<TraceEvent> taken;
  {
    common::MutexLock lock(mutex_);
    taken.swap(events_);
  }
  return {std::make_move_iterator(taken.begin()),
          std::make_move_iterator(taken.end())};
}

std::size_t Tracer::size() const {
  common::MutexLock lock(mutex_);
  return events_.size();
}

void Tracer::clear() {
  common::MutexLock lock(mutex_);
  events_.clear();
}

std::size_t Tracer::capacity() const {
  common::MutexLock lock(mutex_);
  return capacity_;
}

void Tracer::set_capacity(std::size_t capacity) {
  common::MutexLock lock(mutex_);
  capacity_ = capacity == 0 ? 1 : capacity;
  if (events_.size() > capacity_) {
    const std::uint64_t evict = events_.size() - capacity_;
    events_.erase(events_.begin(),
                  events_.begin() + static_cast<std::ptrdiff_t>(evict));
    note_dropped_locked(evict);
  }
}

std::uint64_t Tracer::dropped_events() const { return dropped_.value(); }

std::size_t Tracer::thread_count() const {
  common::MutexLock lock(mutex_);
  std::set<std::thread::id> threads;
  for (const auto& e : events_) threads.insert(e.thread);
  return threads.size();
}

std::size_t Tracer::calls(std::string_view signature) const {
  common::MutexLock lock(mutex_);
  std::size_t n = 0;
  for (const auto& e : events_) {
    if (e.phase == TraceEvent::Phase::kEnter && e.signature == signature)
      ++n;
  }
  return n;
}

std::size_t Tracer::targets(std::string_view signature) const {
  common::MutexLock lock(mutex_);
  std::set<const void*> targets;
  for (const auto& e : events_) {
    if (e.signature == signature && e.target != nullptr)
      targets.insert(e.target);
  }
  return targets.size();
}

std::string Tracer::interaction_diagram() const {
  std::vector<TraceEvent> snapshot = events();
  std::stable_sort(snapshot.begin(), snapshot.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.when < b.when;
                   });
  std::map<std::thread::id, std::size_t> thread_labels;
  std::map<const void*, char> object_labels;
  auto thread_label = [&](std::thread::id id) {
    auto [it, inserted] = thread_labels.emplace(id, thread_labels.size() + 1);
    (void)inserted;
    return "T" + std::to_string(it->second);
  };
  auto object_label = [&](const void* target) -> std::string {
    if (!target) return "-";
    auto [it, inserted] = object_labels.emplace(
        target, static_cast<char>('A' + (object_labels.size() % 26)));
    (void)inserted;
    return std::string(1, it->second);
  };

  std::ostringstream os;
  os << "  t(us)  thread  obj  event\n";
  const auto t0 = snapshot.empty()
                      ? std::chrono::steady_clock::time_point{}
                      : snapshot.front().when;
  for (const auto& e : snapshot) {
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(e.when - t0)
            .count();
    const char* arrow = e.phase == TraceEvent::Phase::kEnter  ? "->"
                        : e.phase == TraceEvent::Phase::kExit ? "<-"
                                                              : "!!";
    // Stream formatting (not a fixed buffer): signatures of any length
    // render intact.
    os << std::setw(7) << us << "  " << std::left << std::setw(6)
       << thread_label(e.thread) << "  " << std::setw(3)
       << object_label(e.target) << std::right << "  " << arrow << ' '
       << e.signature << '\n';
  }
  return os.str();
}

namespace {

/// Shared pairing walk: invokes `closed(enter, exit)` per matched pair,
/// returns the count of enters left open. An exit prefers the innermost
/// open enter with its span id (exact match across recursion); events
/// without ids fall back to innermost-same-signature, which shields
/// against interleaved aspect-emitted events.
template <class OnClosed>
std::size_t pair_events(const std::vector<TraceEvent>& snapshot,
                        OnClosed&& closed) {
  std::map<std::thread::id, std::vector<std::size_t>> open_by_thread;
  std::size_t open = 0;
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const TraceEvent& e = snapshot[i];
    auto& stack = open_by_thread[e.thread];
    if (e.phase == TraceEvent::Phase::kEnter) {
      stack.push_back(i);
      ++open;
      continue;
    }
    for (std::size_t s = stack.size(); s-- > 0;) {
      const TraceEvent& enter = snapshot[stack[s]];
      const bool match =
          (e.ctx.span_id != 0 && enter.ctx.span_id != 0)
              ? enter.ctx.span_id == e.ctx.span_id
              : enter.signature == e.signature;
      if (!match) continue;
      closed(enter, e);
      stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(s));
      --open;
      break;
    }
  }
  return open;
}

}  // namespace

std::vector<TraceSpan> Tracer::spans_of(std::vector<TraceEvent> snapshot) {
  std::stable_sort(snapshot.begin(), snapshot.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.when < b.when;
                   });
  std::vector<TraceSpan> spans;
  pair_events(snapshot, [&](const TraceEvent& enter, const TraceEvent& e) {
    TraceSpan span;
    span.signature = enter.signature;
    span.thread = e.thread;
    span.target = enter.target ? enter.target : e.target;
    span.start = enter.when;
    span.duration = std::chrono::duration_cast<std::chrono::microseconds>(
        e.when - enter.when);
    span.error = e.phase == TraceEvent::Phase::kError;
    span.trace_id = enter.ctx.trace_id;
    span.span_id = enter.ctx.span_id;
    span.parent_span_id = enter.ctx.parent_span_id;
    spans.push_back(std::move(span));
  });
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     return a.start < b.start;
                   });
  return spans;
}

std::vector<TraceSpan> Tracer::spans() const { return spans_of(events()); }

std::size_t Tracer::open_spans() const {
  std::vector<TraceEvent> snapshot = events();
  std::stable_sort(snapshot.begin(), snapshot.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.when < b.when;
                   });
  return pair_events(snapshot, [](const TraceEvent&, const TraceEvent&) {});
}

std::string Tracer::chrome_trace_json_of(std::vector<TraceEvent> snapshot,
                                         int pid,
                                         std::string_view process_name) {
  std::stable_sort(snapshot.begin(), snapshot.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.when < b.when;
                   });
  // Compact tids in order of first appearance — same labelling rule as the
  // interaction diagram (T1, T2, ...).
  std::map<std::thread::id, int> tids;
  for (const auto& e : snapshot) tids.emplace(e.thread, 0);
  {
    int next = 1;
    for (auto& e : snapshot) {
      auto& tid = tids[e.thread];
      if (tid == 0) tid = next++;
    }
  }
  const auto t0 = snapshot.empty() ? std::chrono::steady_clock::time_point{}
                                   : snapshot.front().when;
  auto rel_us = [&](std::chrono::steady_clock::time_point tp) {
    return std::chrono::duration_cast<std::chrono::microseconds>(tp - t0)
        .count();
  };

  std::ostringstream os;
  os << '[';
  bool first = true;
  if (!process_name.empty()) {
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\""
       << common::json_escape(std::string(process_name)) << "\"}}";
    first = false;
  }
  std::vector<std::pair<int, std::thread::id>> ordered;
  for (const auto& [id, tid] : tids) ordered.emplace_back(tid, id);
  std::sort(ordered.begin(), ordered.end());
  for (const auto& [tid, id] : ordered) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":" << tid << ",\"args\":{\"name\":\"T" << tid << "\"}}";
  }
  for (const auto& span : spans_of(snapshot)) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << common::json_escape(span.signature)
       << "\",\"cat\":\"apar\",\"ph\":\"X\",\"ts\":" << rel_us(span.start)
       << ",\"dur\":" << span.duration.count() << ",\"pid\":" << pid
       << ",\"tid\":" << tids[span.thread];
    // args only when there is something to say — id-less, error-free spans
    // keep the PR-2 golden shape byte for byte.
    const bool has_ids = span.span_id != 0;
    if (span.error || has_ids) {
      os << ",\"args\":{";
      bool first_arg = true;
      if (span.error) {
        os << "\"error\":true";
        first_arg = false;
      }
      if (has_ids) {
        if (!first_arg) os << ',';
        os << "\"trace_id\":\"" << hex_id(span.trace_id) << "\",\"span_id\":\""
           << hex_id(span.span_id) << '"';
        if (span.parent_span_id != 0) {
          os << ",\"parent_span_id\":\"" << hex_id(span.parent_span_id) << '"';
        }
      }
      os << '}';
    }
    os << '}';
  }
  os << ']';
  return os.str();
}

std::string Tracer::chrome_trace_json(int pid,
                                      std::string_view process_name) const {
  return chrome_trace_json_of(events(), pid, process_name);
}

void Tracer::write_chrome_trace(const std::string& path, int pid,
                                std::string_view process_name) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file: " + path);
  out << chrome_trace_json(pid, process_name) << '\n';
  if (!out) throw std::runtime_error("failed writing trace file: " + path);
}

std::string Tracer::summary() const {
  std::vector<TraceEvent> snapshot = events();
  struct Counts {
    std::size_t calls = 0;
    std::set<const void*> targets;
    std::set<std::thread::id> threads;
  };
  std::map<std::string, Counts> by_signature;
  for (const auto& e : snapshot) {
    auto& c = by_signature[e.signature];
    if (e.phase == TraceEvent::Phase::kEnter) ++c.calls;
    if (e.target) c.targets.insert(e.target);
    c.threads.insert(e.thread);
  }
  std::ostringstream os;
  for (const auto& [signature, c] : by_signature) {
    os << "  " << signature << ": " << c.calls << " call(s) on "
       << c.targets.size() << " object(s) from " << c.threads.size()
       << " thread(s)\n";
  }
  if (const std::uint64_t dropped = dropped_events(); dropped > 0) {
    os << "  [ring dropped " << dropped << " event(s)]\n";
  }
  return os.str();
}

const std::shared_ptr<Tracer>& Tracer::global() {
  static const std::shared_ptr<Tracer> g = [] {
    std::size_t cap = kDefaultCapacity;
    if (const char* v = std::getenv("APAR_TRACE_CAP")) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(v, &end, 10);
      if (end != v && n > 0) cap = static_cast<std::size_t>(n);
    }
    return std::make_shared<Tracer>(cap);
  }();
  return g;
}

}  // namespace apar::obs
