#pragma once

#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apar/aop/aop.hpp"
#include "apar/strategies/partition_common.hpp"
#include "apar/strategies/stage_concept.hpp"

namespace apar::strategies {

/// Reusable pipeline partition protocol (paper §5.2, Figures 7-9).
///
/// Plugged onto a Stage class T, it changes the semantics of core
/// functionality without touching it:
///   1. *object duplication* — one `create<T>` in core code becomes a chain
///      of `duplicates` stages, each constructed with arguments derived by
///      the ctor partitioner (e.g. a sub-range of primes);
///   2. *method call split* — one `process(all)` call from core code
///      becomes many `filter(pack)` calls on the first stage;
///   3. *call forwarding* — every filter(pack) call, including those made
///      by this aspect itself, is propagated to the next stage after the
///      current one proceeds; packs leaving the last stage are delivered
///      to it via collect().
///
/// The aspect is oblivious-composable: the concurrency aspect may make the
/// filter hops asynchronous and the distribution aspect may place the
/// stages on remote nodes — this class never mentions either.
template <class T, class E, class... CtorArgs>
  requires Stage<T, E>
class PipelineAspect : public aop::Aspect {
 public:
  struct Options {
    std::size_t duplicates = 2;
    std::size_t pack_size = 1000;
    CtorPartitioner<CtorArgs...> ctor_args;  ///< required
  };

  PipelineAspect(std::string name, Options options)
      : Aspect(std::move(name)), options_(std::move(options)) {
    register_duplication();
    register_split();
    register_forward();
  }

  explicit PipelineAspect(Options options)
      : PipelineAspect("Pipeline", std::move(options)) {}

  /// The aspect-managed stages, first to last (empty until the core
  /// functionality creates its object).
  [[nodiscard]] const std::vector<aop::Ref<T>>& stages() const {
    return stages_;
  }

  /// Drain results: take_results() from every stage, concatenated in stage
  /// order. Goes through the weaving context so remote stages work.
  std::vector<E> gather_results(aop::Context& ctx) {
    std::vector<E> all;
    for (auto& stage : stages_) {
      std::vector<E> part = ctx.template call<&T::take_results>(stage);
      all.insert(all.end(), part.begin(), part.end());
    }
    return all;
  }

 private:
  void register_duplication() {
    this->template around_new<T, std::decay_t<CtorArgs>...>(
        aop::order::kPartitionSplit, aop::Scope::core_only(),
        [this](aop::CtorInvocation<T, std::decay_t<CtorArgs>...>& inv) {
          stages_.clear();
          next_.clear();
          const std::size_t k = options_.duplicates ? options_.duplicates : 1;
          for (std::size_t i = 0; i < k; ++i) {
            auto args = options_.ctor_args(i, k, inv.args());
            auto ref = std::apply(
                [&](auto&&... a) {
                  return inv.proceed_with(
                      std::forward<decltype(a)>(a)...);
                },
                std::move(args));
            if (i > 0) next_[stages_.back().identity()] = ref;
            stages_.push_back(std::move(ref));
          }
          return stages_.front();
        });
  }

  void register_split() {
    this->template around_method<&T::process>(
        aop::order::kPartitionSplit, aop::Scope::core_only(),
        [this](auto& inv) {
          auto& [data] = inv.args();
          for_each_pack(data, options_.pack_size, [&](std::vector<E>& pack) {
            // A fresh top-level call on the first stage: downstream aspects
            // (concurrency, distribution) and this aspect's own forward
            // advice all apply to it.
            inv.context().template call<&T::filter>(inv.target(), pack);
          });
          // The original process() call is replaced; results accumulate in
          // the stages and are gathered via gather_results().
        });
  }

  void register_forward() {
    this->template around_method<&T::filter>(
        aop::order::kPartitionForward, aop::Scope::any(), [this](auto& inv) {
          inv.proceed();
          auto& [pack] = inv.args();
          auto it = next_.find(inv.target().identity());
          if (it != next_.end()) {
            inv.context().template call<&T::filter>(it->second, pack);
          } else {
            // End of the pipeline: whatever survived is a result.
            inv.context().template call<&T::collect>(inv.target(), pack);
          }
        });
  }

  Options options_;
  std::vector<aop::Ref<T>> stages_;
  std::map<const void*, aop::Ref<T>> next_;
};

}  // namespace apar::strategies
