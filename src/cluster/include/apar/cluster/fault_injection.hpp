#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apar/cluster/middleware.hpp"

namespace apar::cluster {

class Cluster;

/// Fault counters, exposed like MiddlewareStats: one counter per injected
/// effect (intercepted = ops a fault decision ran for), so tests and
/// dashboards assert on what was actually done. Exported as
/// faults.<field>{middleware}.
#define APAR_FAULT_STATS_FIELDS(X) \
  X(intercepted) X(dropped) X(delayed) X(duplicated) X(crashes) \
  X(delay_us_total)
APAR_OBS_COUNTER_SET(FaultStats, APAR_FAULT_STATS_FIELDS);

/// Fault-injecting decorator over any Middleware — the tested claim that
/// *testing* concerns compose as pluggable modules exactly like the
/// paper's parallelisation concerns: wrap a middleware to inject faults,
/// unwrap (or disarm) it to get the original behaviour back, with the
/// partition/concurrency/distribution aspects none the wiser.
///
/// Every invoke/invoke_one_way consumes one decision index; the decision
/// for index i is a pure function of (seed, i) via common::rng_at, so the
/// schedule of faults is byte-identical across runs of the same seed no
/// matter how threads interleave. The decided schedule is recorded and can
/// be dumped (`schedule_dump()`) for golden comparisons.
///
/// Semantics per operation, in decision order:
///   - crash: on the `crash_on_call`-th operation (1-based), crash the
///     target node first — the forwarded call then fails like any call to
///     a dead node;
///   - drop: a synchronous invoke throws rpc::RpcError (the reply was
///     "lost"); a one-way send is silently swallowed (the message was
///     lost — no completion is ever recorded, exactly like a lossy wire
///     in front of the real middleware);
///   - delay: sleep `delay_us` before forwarding;
///   - duplicate: forward the operation twice (at-least-once delivery);
///     the second reply wins for synchronous calls.
///
/// Wrap CONCRETE middlewares (RMI, MPP), then compose hybrids over the
/// wrappers: route_for() returns this decorator so routed calls cannot
/// bypass injection, which requires inner routing to be the identity.
class FaultInjectingMiddleware final : public Middleware {
 public:
  struct Options {
    std::uint64_t seed = 1;
    double drop_rate = 0.0;
    double delay_rate = 0.0;
    double duplicate_rate = 0.0;
    std::uint64_t max_delay_us = 200;   ///< delays are uniform in [1, max]
    std::uint64_t crash_on_call = 0;    ///< 1-based op index; 0 = never
    Cluster* cluster = nullptr;         ///< required when crash_on_call > 0
  };

  /// One decided (not necessarily distinct from executed) fault action.
  struct Action {
    std::uint64_t index = 0;
    bool crash = false;
    bool drop = false;
    bool duplicate = false;
    std::uint64_t delay_us = 0;
  };

  FaultInjectingMiddleware(Middleware& inner, Options options);

  // --- Middleware interface ----------------------------------------------

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] serial::Format wire_format() const override {
    return inner_.wire_format();
  }
  [[nodiscard]] bool supports_one_way() const override {
    return inner_.supports_one_way();
  }

  /// Creations and lookups pass through unperturbed: the fault surface is
  /// message traffic, and a failed create would abort setup rather than
  /// exercise steady-state resilience.
  RemoteHandle create(NodeId node, std::string_view class_name,
                      std::vector<std::byte> ctor_args) override {
    return inner_.create(node, class_name, std::move(ctor_args));
  }
  std::optional<RemoteHandle> lookup(std::string_view name) override {
    return inner_.lookup(name);
  }

  std::vector<std::byte> invoke(const RemoteHandle& target,
                                std::string_view method,
                                std::vector<std::byte> args) override;
  void invoke_one_way(const RemoteHandle& target, std::string_view method,
                      std::vector<std::byte> args) override;

  [[nodiscard]] const MiddlewareStats& stats() const override {
    return inner_.stats();
  }
  [[nodiscard]] const CostModel& costs() const override {
    return inner_.costs();
  }
  [[nodiscard]] bool wire_transport() const override {
    return inner_.wire_transport();
  }
  Middleware& route_for(std::string_view method) override {
    (void)method;
    return *this;  // keep routed calls inside the fault layer
  }

  // --- fault-injection controls ------------------------------------------

  /// Disarmed, every operation forwards directly: no decision is consumed,
  /// no counter moves — the unplugged configuration.
  void set_armed(bool on) { armed_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const FaultStats& fault_stats() const { return fault_stats_; }
  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] Middleware& inner() { return inner_; }

  /// Canonical text rendering of every decision taken so far, ordered by
  /// decision index: "op N: pass|crash|drop|delay=Kus|dup" — byte-identical
  /// across runs with the same seed and operation count.
  [[nodiscard]] std::string schedule_dump() const;

 private:
  /// Consume the next decision index and decide this operation's faults.
  Action plan();
  void apply_delay(const Action& action);
  void maybe_crash(const Action& action, const RemoteHandle& target);

  Middleware& inner_;
  Options options_;
  std::string name_;
  std::atomic<bool> armed_{true};
  std::atomic<std::uint64_t> next_index_{0};
  FaultStats fault_stats_;

  mutable std::mutex log_mutex_;
  std::vector<Action> log_;
};

}  // namespace apar::cluster
