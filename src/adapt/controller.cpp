#include "apar/adapt/controller.hpp"

#include <algorithm>

namespace apar::adapt {

std::string_view decision_name(Decision d) {
  switch (d) {
    case Decision::kNone: return "none";
    case Decision::kGrowWorkers: return "grow-workers";
    case Decision::kShrinkWorkers: return "shrink-workers";
    case Decision::kRevertGrow: return "revert-grow";
    case Decision::kRevertShrink: return "revert-shrink";
    case Decision::kGrainCoarsen: return "grain-coarsen";
    case Decision::kGrainRefine: return "grain-refine";
    case Decision::kFeederDeepen: return "feeder-deepen";
    case Decision::kFeederShallow: return "feeder-shallow";
    case Decision::kPromoteFast: return "promote-fast";
    case Decision::kDemoteFast: return "demote-fast";
  }
  return "unknown";
}

AdaptationController::AdaptationController()
    : AdaptationController(Config{}) {}

AdaptationController::AdaptationController(Config config,
                                           obs::MetricsRegistry& registry)
    : cfg_(std::move(config)), registry_(&registry) {
  workers_gauge_ = registry_->gauge("adapt.workers");
  grain_gauge_ = registry_->gauge("adapt.grain");
  feeder_gauge_ = registry_->gauge("adapt.feeder_depth");
  routing_gauge_ = registry_->gauge("adapt.routing");
  last_decision_gauge_ = registry_->gauge("adapt.last_decision");
  stats_.export_as("adapt", {}, *registry_);
}

AdaptationController::~AdaptationController() { stop(); }

void AdaptationController::set_workers_knob(Knob knob) {
  workers_ = std::move(knob);
  publish_gauges();
}
void AdaptationController::set_grain_knob(Knob knob) {
  grain_ = std::move(knob);
  publish_gauges();
}
void AdaptationController::set_feeder_knob(Knob knob) {
  feeder_ = std::move(knob);
  publish_gauges();
}
void AdaptationController::set_routing_knob(Knob knob) {
  routing_ = std::move(knob);
  publish_gauges();
}

Signals AdaptationController::sample() {
  window_.advance(*registry_);
  Signals s;
  s.valid = window_.ready();
  if (!s.valid) return s;
  s.interval_s = window_.seconds();
  s.throughput = window_.counter_rate(cfg_.tasks_metric);
  s.queue_wait_p95_us = window_.histogram_window(cfg_.queue_wait_metric).p95;
  s.run_mean_us = window_.histogram_window(cfg_.run_metric).mean;
  s.steal_rate = window_.counter_rate(cfg_.steals_metric);
  s.overflow_rate = window_.counter_rate(cfg_.overflow_metric);
  s.rtt_p95_us = window_.histogram_window(cfg_.rtt_metric).p95;
  return s;
}

void AdaptationController::decide(Decision d, std::vector<Decision>& out) {
  out.push_back(d);
  stats_.decisions.add();
  last_decision_.store(static_cast<int>(d), std::memory_order_relaxed);
  last_decision_gauge_->set(static_cast<int>(d));
}

void AdaptationController::control_workers(const Signals& s,
                                           std::vector<Decision>& out) {
  if (!workers_.valid()) return;
  if (cooldown_ > 0) {
    // Hold still while the last actuation settles; on expiry run the
    // hill-climb verification against the pre-actuation baseline.
    if (--cooldown_ == 0 && pending_verify_ != Decision::kNone) {
      const double gain =
          baseline_throughput_ > 0.0
              ? s.throughput / baseline_throughput_ - 1.0
              : 0.0;
      if (pending_verify_ == Decision::kGrowWorkers && gain < cfg_.min_gain) {
        // The extra worker did not pay for itself (e.g. CPU-bound phase on
        // a saturated host, where queue pressure lies): take it back and
        // lock out growth for a while.
        workers_.set(workers_.value() - 1);
        grow_backoff_ = cfg_.backoff_ticks;
        stats_.reverts.add();
        decide(Decision::kRevertGrow, out);
        cooldown_ = cfg_.cooldown_ticks;
      } else if (pending_verify_ == Decision::kShrinkWorkers &&
                 gain < -cfg_.max_loss) {
        workers_.set(workers_.value() + 1);
        shrink_backoff_ = cfg_.backoff_ticks;
        stats_.reverts.add();
        decide(Decision::kRevertShrink, out);
        cooldown_ = cfg_.cooldown_ticks;
      }
      pending_verify_ = Decision::kNone;
    }
    return;
  }
  if (grow_backoff_ > 0) --grow_backoff_;
  if (shrink_backoff_ > 0) --shrink_backoff_;

  const bool pressure = s.queue_wait_p95_us > cfg_.queue_wait_grow_us;
  const bool idle = s.queue_wait_p95_us < cfg_.queue_wait_shrink_us;
  idle_streak_ = idle ? idle_streak_ + 1 : 0;

  if (pressure && grow_backoff_ == 0 && workers_.value() < workers_.max()) {
    // Additive increase: exactly one worker per decision.
    baseline_throughput_ = s.throughput;
    workers_.set(workers_.value() + 1);
    pending_verify_ = Decision::kGrowWorkers;
    cooldown_ = cfg_.cooldown_ticks;
    stable_streak_ = 0;
    decide(Decision::kGrowWorkers, out);
    return;
  }
  const bool probe_due = stable_streak_ >= cfg_.probe_ticks;
  if ((idle_streak_ >= cfg_.shrink_patience || probe_due) &&
      shrink_backoff_ == 0 && workers_.value() > workers_.min()) {
    // Threshold-gated decrease: either a sustained idle band, or an
    // exploratory probe after a long stable stretch (the saturated-host
    // case, where queue waits never look idle but surplus workers only
    // add contention). Verification below reverts a probe that loses
    // throughput.
    baseline_throughput_ = s.throughput;
    workers_.set(workers_.value() - 1);
    pending_verify_ = Decision::kShrinkWorkers;
    cooldown_ = cfg_.cooldown_ticks;
    idle_streak_ = 0;
    stable_streak_ = 0;
    decide(Decision::kShrinkWorkers, out);
    return;
  }
  ++stable_streak_;
}

void AdaptationController::control_grain(const Signals& s,
                                         std::vector<Decision>& out) {
  if (!grain_.valid()) return;
  if (grain_cooldown_ > 0) {
    --grain_cooldown_;
    return;
  }
  if (s.run_mean_us <= 0.0) return;
  if (s.run_mean_us < cfg_.grain_low_us && grain_.value() < grain_.max()) {
    // Task bodies are so short the envelope dominates: coarsen
    // multiplicatively (halving the number of envelopes per wave).
    grain_.set(grain_.value() * 2);
    grain_cooldown_ = cfg_.cooldown_ticks;
    decide(Decision::kGrainCoarsen, out);
  } else if (s.run_mean_us > cfg_.grain_high_us &&
             grain_.value() > grain_.min()) {
    grain_.set(std::max(grain_.min(), grain_.value() / 2));
    grain_cooldown_ = cfg_.cooldown_ticks;
    decide(Decision::kGrainRefine, out);
  }
}

void AdaptationController::control_feeder(const Signals& s,
                                          std::vector<Decision>& out) {
  if (!feeder_.valid()) return;
  if (feeder_cooldown_ > 0) {
    --feeder_cooldown_;
    return;
  }
  if (s.queue_wait_p95_us > cfg_.feeder_deep_us &&
      feeder_.value() < feeder_.max()) {
    feeder_.set(feeder_.value() * 2);
    feeder_cooldown_ = cfg_.cooldown_ticks;
    decide(Decision::kFeederDeepen, out);
  } else if (s.queue_wait_p95_us < cfg_.feeder_shallow_us &&
             feeder_.value() > feeder_.min()) {
    feeder_.set(std::max(feeder_.min(), feeder_.value() / 2));
    feeder_cooldown_ = cfg_.cooldown_ticks;
    decide(Decision::kFeederShallow, out);
  }
}

void AdaptationController::control_routing(const Signals& s,
                                           std::vector<Decision>& out) {
  if (!routing_.valid()) return;
  if (routing_cooldown_ > 0) {
    --routing_cooldown_;
    return;
  }
  if (s.rtt_p95_us <= 0.0) return;
  // Hysteresis band: promote above rtt_promote_us, demote only below the
  // (lower) rtt_demote_us, so RTT noise inside the band never flaps the
  // plane selection.
  if (s.rtt_p95_us > cfg_.rtt_promote_us && routing_.value() == 0) {
    routing_.set(1);
    routing_cooldown_ = cfg_.cooldown_ticks;
    decide(Decision::kPromoteFast, out);
  } else if (s.rtt_p95_us < cfg_.rtt_demote_us && routing_.value() == 1) {
    routing_.set(0);
    routing_cooldown_ = cfg_.cooldown_ticks;
    decide(Decision::kDemoteFast, out);
  }
}

std::vector<Decision> AdaptationController::tick(const Signals& s) {
  std::vector<Decision> out;
  stats_.ticks.add();
  if (!s.valid) return out;
  control_workers(s, out);
  control_grain(s, out);
  control_feeder(s, out);
  control_routing(s, out);
  publish_gauges();
  return out;
}

void AdaptationController::publish_gauges() {
  if (workers_.valid()) workers_gauge_->set(workers_.value());
  if (grain_.valid()) grain_gauge_->set(grain_.value());
  if (feeder_.valid()) feeder_gauge_->set(feeder_.value());
  if (routing_.valid()) routing_gauge_->set(routing_.value());
}

void AdaptationController::loop() {
  while (true) {
    {
      std::unique_lock lock(loop_mutex_);
      loop_cv_.wait_for(lock, cfg_.interval, [&] { return stop_requested_; });
      if (stop_requested_) return;
    }
    tick(sample());
  }
}

void AdaptationController::start() {
  if (running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard lock(loop_mutex_);
    stop_requested_ = false;
  }
  // The controller reads histograms: hold them on while it runs.
  metrics_hold_.emplace();
  // Prime the window so the first in-loop tick already has a delta.
  window_.advance(*registry_);
  publish_gauges();
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { loop(); });
}

void AdaptationController::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard lock(loop_mutex_);
    stop_requested_ = true;
  }
  loop_cv_.notify_all();
  if (loop_thread_.joinable()) loop_thread_.join();
  metrics_hold_.reset();
  running_.store(false, std::memory_order_release);
}

}  // namespace apar::adapt
