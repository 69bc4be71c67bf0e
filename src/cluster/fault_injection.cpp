#include "apar/cluster/fault_injection.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "apar/cluster/cluster.hpp"
#include "apar/common/stress.hpp"

namespace apar::cluster {

FaultInjectingMiddleware::FaultInjectingMiddleware(Middleware& inner,
                                                   Options options)
    : inner_(inner),
      options_(options),
      name_("FaultInjecting(" + std::string(inner.name()) + ")") {
  fault_stats_.export_as("faults", {{"middleware", name_}});
}

FaultInjectingMiddleware::Action FaultInjectingMiddleware::plan() {
  const std::uint64_t index =
      next_index_.fetch_add(1, std::memory_order_relaxed);
  // Pure function of (seed, index): draws happen in a fixed order so the
  // decided schedule never depends on thread interleaving.
  common::Rng rng = common::rng_at(options_.seed, index);
  const double u_drop = rng.uniform01();
  const double u_delay = rng.uniform01();
  const double u_dup = rng.uniform01();
  const std::uint64_t delay_draw =
      options_.max_delay_us > 0 ? rng.uniform(1, options_.max_delay_us) : 0;

  Action action;
  action.index = index;
  action.crash =
      options_.crash_on_call != 0 && index + 1 == options_.crash_on_call;
  action.drop = u_drop < options_.drop_rate;
  // A dropped message is simply gone: delaying or duplicating it would be
  // meaningless (and would break at-least-once accounting), so drop wins.
  if (!action.drop) {
    if (u_delay < options_.delay_rate) action.delay_us = delay_draw;
    action.duplicate = u_dup < options_.duplicate_rate;
  }

  fault_stats_.intercepted.add();
  if (action.crash) fault_stats_.crashes.add();
  if (action.drop) fault_stats_.dropped.add();
  if (action.delay_us > 0) {
    fault_stats_.delayed.add();
    fault_stats_.delay_us_total.add(action.delay_us);
  }
  if (action.duplicate) fault_stats_.duplicated.add();

  {
    std::lock_guard lock(log_mutex_);
    log_.push_back(action);
  }
  return action;
}

void FaultInjectingMiddleware::apply_delay(const Action& action) {
  if (action.delay_us > 0)
    std::this_thread::sleep_for(std::chrono::microseconds(action.delay_us));
}

void FaultInjectingMiddleware::maybe_crash(const Action& action,
                                           const RemoteHandle& target) {
  if (!action.crash || options_.cluster == nullptr) return;
  options_.cluster->node(target.node).crash();
}

std::vector<std::byte> FaultInjectingMiddleware::invoke(
    const RemoteHandle& target, std::string_view method,
    std::vector<std::byte> args) {
  if (!armed()) return inner_.invoke(target, method, std::move(args));
  const Action action = plan();
  maybe_crash(action, target);
  if (action.drop)
    throw rpc::RpcError("fault injection dropped reply for '" +
                        std::string(method) + "' (op " +
                        std::to_string(action.index) + ")");
  apply_delay(action);
  if (action.duplicate) inner_.invoke(target, method, args);
  return inner_.invoke(target, method, std::move(args));
}

void FaultInjectingMiddleware::invoke_one_way(const RemoteHandle& target,
                                              std::string_view method,
                                              std::vector<std::byte> args) {
  if (!armed()) {
    inner_.invoke_one_way(target, method, std::move(args));
    return;
  }
  const Action action = plan();
  maybe_crash(action, target);
  if (action.drop) return;  // the message was lost on the wire
  apply_delay(action);
  if (action.duplicate) inner_.invoke_one_way(target, method, args);
  inner_.invoke_one_way(target, method, std::move(args));
}

std::string FaultInjectingMiddleware::schedule_dump() const {
  std::vector<Action> actions;
  {
    std::lock_guard lock(log_mutex_);
    actions = log_;
  }
  std::sort(actions.begin(), actions.end(),
            [](const Action& a, const Action& b) { return a.index < b.index; });
  std::ostringstream out;
  for (const Action& a : actions) {
    out << "op " << a.index << ":";
    bool any = false;
    if (a.crash) { out << " crash"; any = true; }
    if (a.drop) { out << " drop"; any = true; }
    if (a.delay_us > 0) { out << " delay=" << a.delay_us << "us"; any = true; }
    if (a.duplicate) { out << " dup"; any = true; }
    if (!any) out << " pass";
    out << "\n";
  }
  return out.str();
}

}  // namespace apar::cluster
