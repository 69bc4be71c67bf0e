#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apar/common/thread_annotations.hpp"
#include "apar/obs/metrics.hpp"
#include "apar/obs/trace_context.hpp"

namespace apar::obs {

/// One observed join-point execution boundary.
struct TraceEvent {
  enum class Phase { kEnter, kExit, kError };

  std::chrono::steady_clock::time_point when;
  std::thread::id thread;
  std::string signature;   ///< "Class.method" ("Class.new" for creations)
  const void* target = nullptr;  ///< Ref identity (null for creations)
  Phase phase = Phase::kEnter;
  /// Causal identity ({} for probes that predate contexts; such events
  /// still pair into spans by signature).
  TraceContext ctx;
};

/// One completed join-point execution: a matched enter/exit (or
/// enter/error) pair on a single thread, with its wall-clock duration and
/// (when the probe carried a context) its causal identity.
struct TraceSpan {
  std::string signature;
  std::thread::id thread;
  const void* target = nullptr;
  std::chrono::steady_clock::time_point start;
  std::chrono::microseconds duration{0};
  bool error = false;  ///< closed by Phase::kError (exception unwound)
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
};

/// Thread-safe event sink shared by TraceAspects, able to render the
/// paper's interaction diagrams (Figures 6, 7 and 11) as text — the
/// methodology's "easier to understand overall parallelism structure"
/// claim, made checkable — and to export the same run as a Chrome
/// `trace_event` JSON array loadable in Perfetto / chrome://tracing.
///
/// Storage is a bounded ring: once `capacity()` events are held, each new
/// event evicts the oldest and bumps the exact `dropped_events()` counter
/// (exported as `trace.dropped_events`), so long traced runs cannot grow
/// memory without bound.
class Tracer {
 public:
  /// Default ring capacity (events). ~256k events ≈ tens of MB worst
  /// case; override per instance or via APAR_TRACE_CAP for global().
  static constexpr std::size_t kDefaultCapacity = 1u << 18;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  void record(TraceEvent event);

  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

  /// Atomically drain the buffer: returns the held events in record order
  /// and leaves the ring empty (dropped_events() is cumulative and is not
  /// reset). This is the telemetry flush primitive.
  [[nodiscard]] std::vector<TraceEvent> take_events();

  /// Ring capacity in events (always >= 1).
  [[nodiscard]] std::size_t capacity() const;
  /// Resize the ring; shrinking evicts oldest events (counted as dropped).
  void set_capacity(std::size_t capacity);
  /// Exact count of events evicted by the ring since construction.
  [[nodiscard]] std::uint64_t dropped_events() const;

  /// Matched enter/exit pairs as duration spans, in start order. An exit
  /// closes the innermost open enter with the same span id when both carry
  /// one, else the innermost with the same signature, so nested and
  /// recursive join points pair correctly; still-open enters are omitted.
  [[nodiscard]] std::vector<TraceSpan> spans() const;
  [[nodiscard]] static std::vector<TraceSpan> spans_of(
      std::vector<TraceEvent> events);

  /// Enter events with no matching exit/error — must be 0 after any run
  /// that unwound cleanly (the chaos suite's invariant).
  [[nodiscard]] std::size_t open_spans() const;

  /// Chrome `trace_event` JSON array: one thread-name metadata event per
  /// observed thread (T1, T2, ... in order of first appearance) followed by
  /// one complete ("ph":"X") event per span, timestamps in microseconds
  /// relative to the first recorded event. Spans that carry a context get
  /// args.trace_id/span_id/parent_span_id as 16-digit hex strings (hex
  /// strings, not numbers: 64-bit ids do not survive double-precision JSON
  /// readers). A non-empty `process_name` prepends process_name metadata —
  /// how merge_traces.py tells the two sieve processes apart.
  [[nodiscard]] std::string chrome_trace_json(
      int pid = 0, std::string_view process_name = {}) const;
  [[nodiscard]] static std::string chrome_trace_json_of(
      std::vector<TraceEvent> events, int pid = 0,
      std::string_view process_name = {});

  /// Write chrome_trace_json() to `path`; throws std::runtime_error on I/O
  /// failure.
  void write_chrome_trace(const std::string& path, int pid = 0,
                          std::string_view process_name = {}) const;

  /// Distinct threads that executed traced join points.
  [[nodiscard]] std::size_t thread_count() const;

  /// Calls (enter events) observed for a signature.
  [[nodiscard]] std::size_t calls(std::string_view signature) const;

  /// Distinct targets a signature was executed on.
  [[nodiscard]] std::size_t targets(std::string_view signature) const;

  /// Text interaction diagram: one line per event, relative microsecond
  /// timestamps, compact thread (T1, T2, ...) and object (A, B, ...)
  /// labels, arrows for enter/exit.
  [[nodiscard]] std::string interaction_diagram() const;

  /// Per-signature call/target/thread counts, plus a dropped-events line
  /// when the ring evicted anything.
  [[nodiscard]] std::string summary() const;

  /// The process-wide tracer every always-on probe (thread pool queue
  /// waits, TCP wire spans, server-side request spans) records into when
  /// tracing_enabled(). Capacity from APAR_TRACE_CAP (events) when set.
  static const std::shared_ptr<Tracer>& global();

 private:
  void note_dropped_locked(std::uint64_t n) APAR_REQUIRES(mutex_);

  mutable common::Mutex mutex_;
  std::deque<TraceEvent> events_ APAR_GUARDED_BY(mutex_);
  std::size_t capacity_ APAR_GUARDED_BY(mutex_);
  Counter dropped_;
  Export dropped_export_;  ///< after dropped_: unlisted first
};

}  // namespace apar::obs
