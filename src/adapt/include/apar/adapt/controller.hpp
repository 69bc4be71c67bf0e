#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apar/adapt/knob.hpp"
#include "apar/aop/signature.hpp"
#include "apar/obs/counters.hpp"
#include "apar/obs/snapshot_window.hpp"

namespace apar::adapt {

/// One windowed reading of the metrics plane — everything tick() is
/// allowed to see. sample() fills it from a SnapshotWindow over the
/// registry; tests construct it directly, which makes the whole decision
/// logic deterministic (tick() touches no clock and no global).
struct Signals {
  bool valid = false;        ///< false until two snapshots exist
  double interval_s = 0.0;   ///< window length
  double throughput = 0.0;   ///< pool tasks completed per second
  double queue_wait_p95_us = 0.0;  ///< submit→start gap, windowed p95
  double run_mean_us = 0.0;        ///< task body wall time, windowed mean
  double steal_rate = 0.0;         ///< successful steals per second
  double overflow_rate = 0.0;      ///< deque overflows per second
  double rtt_p95_us = 0.0;         ///< network RTT, windowed p95 (0 = none)
};

/// Everything the controller decided on one tick, for gauges/logs/tests.
enum class Decision : int {
  kNone = 0,
  kGrowWorkers = 1,
  kShrinkWorkers = 2,
  kRevertGrow = 3,     ///< hill-climb verification failed a grow
  kRevertShrink = 4,   ///< hill-climb verification failed a shrink
  kGrainCoarsen = 5,
  kGrainRefine = 6,
  kFeederDeepen = 7,
  kFeederShallow = 8,
  kPromoteFast = 9,    ///< hybrid middleware: route onto the fast path
  kDemoteFast = 10,
};

[[nodiscard]] std::string_view decision_name(Decision d);

/// Hysteresis-damped autonomic controller over the live metrics plane,
/// after Aldinucci/Danelutto/Kilpatrick's behavioural-skeleton managers:
/// observe (windowed registry deltas) → decide (banded thresholds +
/// hill-climb verification) → actuate (knobs). Damping comes from three
/// mechanisms, each of which independently prevents oscillation:
///
///  * additive increase — a grow moves exactly one worker per decision;
///  * threshold-gated decrease — a shrink needs `shrink_patience`
///    consecutive idle windows, or an exploratory probe after a long
///    stable period, never a single noisy reading;
///  * cooldown + verification — after any worker actuation the controller
///    holds still for `cooldown_ticks` windows, then compares throughput
///    against the pre-actuation baseline: a grow that did not pay
///    (`min_gain`) or a shrink that cost too much (`max_loss`) is
///    reverted, and that direction is locked out for `backoff_ticks`.
///
/// The hill-climb check is what keeps the controller honest on hosts
/// where queue pressure alone points the wrong way (an oversubscribed
/// CPU-bound phase shows long queue waits that more workers only make
/// worse): the pressure heuristic proposes, measured throughput disposes.
/// The controller's counters, exported as adapt.<field>: control-loop
/// ticks, decisions taken, and hill-climb reverts.
#define APAR_ADAPT_STATS_FIELDS(X) X(ticks) X(decisions) X(reverts)
APAR_OBS_COUNTER_SET(AdaptStats, APAR_ADAPT_STATS_FIELDS);

class AdaptationController {
 public:
  struct Config {
    std::chrono::milliseconds interval{200};  ///< control-loop period
    int cooldown_ticks = 2;     ///< hold-still windows after actuating
    int backoff_ticks = 8;      ///< direction lockout after a revert
    int shrink_patience = 3;    ///< idle windows before a shrink
    int probe_ticks = 10;       ///< stable windows before a shrink probe
    double queue_wait_grow_us = 500.0;   ///< pressure band: grow above
    double queue_wait_shrink_us = 50.0;  ///< idle band: shrink below
    double min_gain = 0.05;  ///< a grow must buy ≥5% throughput to stick
    double max_loss = 0.10;  ///< a shrink may cost ≤10% before reverting
    double grain_low_us = 40.0;     ///< task bodies below: coarsen grain
    double grain_high_us = 2000.0;  ///< task bodies above: refine grain
    double feeder_deep_us = 500.0;   ///< queue-wait p95: deepen feeder
    double feeder_shallow_us = 50.0;
    double rtt_promote_us = 2000.0;  ///< RTT p95: promote to fast path
    double rtt_demote_us = 500.0;    ///< hysteresis gap below promote
    std::string tasks_metric = "threadpool.tasks";
    std::string queue_wait_metric = "threadpool.queue_wait";
    std::string run_metric = "threadpool.run_us";
    std::string steals_metric = "threadpool.steals";
    std::string overflow_metric = "threadpool.overflow";
    std::string rtt_metric = "net.rtt_us";
  };

  AdaptationController();  ///< default Config over the global registry
  explicit AdaptationController(
      Config config,
      obs::MetricsRegistry& registry = obs::MetricsRegistry::global());
  ~AdaptationController();

  AdaptationController(const AdaptationController&) = delete;
  AdaptationController& operator=(const AdaptationController&) = delete;

  /// Wire the actuators. Knobs may be set before or between runs, not
  /// while the loop thread is running.
  void set_workers_knob(Knob knob);
  void set_grain_knob(Knob knob);
  void set_feeder_knob(Knob knob);
  /// Binary plane selector: 0 = control plane, 1 = fast path.
  void set_routing_knob(Knob knob);

  /// Observe: windowed deltas of the registry since the previous sample.
  [[nodiscard]] Signals sample();
  /// Decide + actuate from one reading. Deterministic: no clock, no
  /// registry access — tests drive it with synthetic Signals. Returns the
  /// decisions taken this tick (empty = hold).
  std::vector<Decision> tick(const Signals& signals);

  /// Run sample()+tick() every cfg.interval on a dedicated thread.
  void start();
  void stop();
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t ticks() const { return stats_.ticks.value(); }
  [[nodiscard]] std::uint64_t decisions() const {
    return stats_.decisions.value();
  }
  [[nodiscard]] std::uint64_t reverts() const {
    return stats_.reverts.value();
  }
  [[nodiscard]] Decision last_decision() const {
    return static_cast<Decision>(last_decision_.load(std::memory_order_relaxed));
  }
  /// Current knob values (0 when the knob is unwired).
  [[nodiscard]] std::int64_t workers() const { return workers_.value(); }
  [[nodiscard]] std::int64_t grain() const { return grain_.value(); }
  [[nodiscard]] std::int64_t feeder_depth() const { return feeder_.value(); }
  [[nodiscard]] std::int64_t routing() const { return routing_.value(); }

 private:
  void decide(Decision d, std::vector<Decision>& out);
  void control_workers(const Signals& s, std::vector<Decision>& out);
  void control_grain(const Signals& s, std::vector<Decision>& out);
  void control_feeder(const Signals& s, std::vector<Decision>& out);
  void control_routing(const Signals& s, std::vector<Decision>& out);
  void publish_gauges();
  void loop();

  Config cfg_;
  obs::MetricsRegistry* registry_;
  obs::SnapshotWindow window_;

  Knob workers_;
  Knob grain_;
  Knob feeder_;
  Knob routing_;

  // Worker-knob controller state (single-threaded: loop thread only).
  int cooldown_ = 0;
  int grow_backoff_ = 0;
  int shrink_backoff_ = 0;
  int idle_streak_ = 0;
  int stable_streak_ = 0;
  Decision pending_verify_ = Decision::kNone;
  double baseline_throughput_ = 0.0;
  int grain_cooldown_ = 0;
  int feeder_cooldown_ = 0;
  int routing_cooldown_ = 0;

  std::atomic<int> last_decision_{0};

  // adapt.* series: the controller's own observability (rendered by
  // tools/apar_top.py over the kTelemetry op) — the knob gauges plus the
  // exported counters.
  std::shared_ptr<obs::Gauge> workers_gauge_;
  std::shared_ptr<obs::Gauge> grain_gauge_;
  std::shared_ptr<obs::Gauge> feeder_gauge_;
  std::shared_ptr<obs::Gauge> routing_gauge_;
  std::shared_ptr<obs::Gauge> last_decision_gauge_;
  AdaptStats stats_;
  /// Held while the loop runs: sample() reads histograms.
  std::optional<obs::MetricsHold> metrics_hold_;

  std::thread loop_thread_;
  std::mutex loop_mutex_;
  std::condition_variable loop_cv_;
  bool stop_requested_ = false;
  std::atomic<bool> running_{false};
};

}  // namespace apar::adapt

// Analyzer self-description: the control loop's tick is a join point the
// effects pass can reason about — it READS the metrics plane (its Signals
// all derive from registry snapshots) and writes nothing the woven
// application declares. Registered here, where every adaptation user
// already includes the controller.
APAR_CLASS_NAME(apar::adapt::AdaptationController, "AdaptationController");
APAR_METHOD_NAME(&apar::adapt::AdaptationController::tick, "tick");
APAR_METHOD_READS(&apar::adapt::AdaptationController::tick, "metrics_plane");
