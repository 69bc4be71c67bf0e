#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apar/aop/aop.hpp"
#include "apar/common/rng.hpp"
#include "apar/concurrency/task_group.hpp"
#include "apar/strategies/partition_common.hpp"
#include "apar/strategies/stage_concept.hpp"

namespace apar::strategies {

/// How the farm picks a worker for each pack.
enum class RoutingPolicy { kRoundRobin, kRandom };

/// Reusable farm partition protocol (paper §5.2, Figure 10): "each filter
/// has ALL the primes ... and each pack can be processed by ANY filter".
///
/// Differences from the pipeline protocol are exactly the paper's two
/// changes: constructor arguments are broadcast to every duplicate, and
/// each split call is routed to a single worker instead of being forwarded
/// along a chain. Workers execute process() (full work + result retention),
/// so no reply is needed — which is what lets a one-way middleware shine.
template <class T, class E, class... CtorArgs>
  requires Stage<T, E>
class FarmAspect : public aop::Aspect {
 public:
  struct Options {
    std::size_t duplicates = 2;
    std::size_t pack_size = 1000;
    RoutingPolicy routing = RoutingPolicy::kRoundRobin;
    std::uint64_t seed = 42;  ///< for kRandom routing
    /// Broadcast by default; replace to give workers distinct arguments.
    CtorPartitioner<CtorArgs...> ctor_args =
        broadcast_ctor_args<CtorArgs...>();
  };

  FarmAspect(std::string name, Options options)
      : Aspect(std::move(name)), options_(std::move(options)), rng_(options_.seed) {
    pack_size_.store(options_.pack_size ? options_.pack_size : 1,
                     std::memory_order_relaxed);
    register_duplication();
    register_split();
    register_route();
  }

  explicit FarmAspect(Options options)
      : FarmAspect("Farm", std::move(options)) {}

  [[nodiscard]] const std::vector<aop::Ref<T>>& workers() const {
    return workers_;
  }

  /// Runtime-tunable pack (grain) size — the AdaptationAspect's farm
  /// knob. Read once per split, so a change applies to the NEXT partition
  /// cleanly: packs already fanned out are unaffected, which is exactly
  /// why the split advice may declare mark_online_resizable().
  void set_pack_size(std::size_t n) {
    pack_size_.store(n ? n : 1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t pack_size() const {
    return pack_size_.load(std::memory_order_relaxed);
  }

  /// Concatenated take_results() of all workers.
  std::vector<E> gather_results(aop::Context& ctx) {
    std::vector<E> all;
    for (auto& worker : workers_) {
      std::vector<E> part = ctx.template call<&T::take_results>(worker);
      all.insert(all.end(), part.begin(), part.end());
    }
    return all;
  }

 private:
  void register_duplication() {
    this->template around_new<T, std::decay_t<CtorArgs>...>(
        aop::order::kPartitionSplit, aop::Scope::core_only(),
        [this](aop::CtorInvocation<T, std::decay_t<CtorArgs>...>& inv) {
          workers_.clear();
          const std::size_t k = options_.duplicates ? options_.duplicates : 1;
          for (std::size_t i = 0; i < k; ++i) {
            auto args = options_.ctor_args(i, k, inv.args());
            workers_.push_back(std::apply(
                [&](auto&&... a) {
                  return inv.proceed_with(std::forward<decltype(a)>(a)...);
                },
                std::move(args)));
          }
          return workers_.front();
        });
  }

  void register_split() {
    this->template around_method<&T::process>(
            aop::order::kPartitionSplit, aop::Scope::core_only(),
            [this](auto& inv) {
              auto& [data] = inv.args();
              const std::size_t pack_size =
                  pack_size_.load(std::memory_order_relaxed);
              // Pooled async dispatches below collect into one bulk_post
              // (one wake sweep instead of a locked post per pack), flushed
              // when the scope closes; thread-per-call and distribution
              // dispatch are unaffected by the scope.
              concurrency::TaskGroup::BatchScope batch(
                  inv.context().tasks());
              // Each pack is dispatched as soon as it is built, staying on
              // the process() chain: the route advice below picks the
              // worker, then concurrency/distribution advice apply.
              for_each_pack(data, pack_size, [&](std::vector<E>& pack) {
                inv.proceed_with(pack);
              });
            })
        // Fan-out: the packs proceed down chains the composition is
        // expected to make asynchronous, and the route advice may hand
        // overlapping packs to the SAME worker — so farmed signatures are
        // unconfined race candidates for the effect analyzer. The fan-out
        // is online-resizable: each pack is an independent unit the
        // substrate may run on any worker at any pool size, and the grain
        // knob is read per split — so an adapter may retune both mid-run.
        .mark_spawns_concurrency()
        .mark_online_resizable();
  }

  void register_route() {
    this->template around_method<&T::process>(
        aop::order::kPartitionForward, aop::Scope::any(), [this](auto& inv) {
          inv.retarget(pick_worker());
          inv.proceed();
        });
  }

  aop::Ref<T> pick_worker() {
    const std::size_t k = workers_.size();
    if (k == 0)
      throw std::logic_error(
          "farm routing before duplication: was the worker set created "
          "through the weaving context?");
    if (options_.routing == RoutingPolicy::kRandom) {
      std::lock_guard lock(rng_mutex_);
      return workers_[rng_.uniform(0, k - 1)];
    }
    return workers_[next_.fetch_add(1, std::memory_order_relaxed) % k];
  }

  Options options_;
  std::atomic<std::size_t> pack_size_{1};
  std::vector<aop::Ref<T>> workers_;
  std::atomic<std::size_t> next_{0};
  std::mutex rng_mutex_;
  common::Rng rng_;
};

}  // namespace apar::strategies
