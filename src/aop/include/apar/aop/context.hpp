#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apar/aop/aspect.hpp"
#include "apar/aop/invocation.hpp"
#include "apar/aop/ref.hpp"
#include "apar/concurrency/future.hpp"
#include "apar/concurrency/task_group.hpp"

namespace apar::aop {

/// The weaver (paper §3): a Context holds the attached aspects and routes
/// every exposed join point — object creation via create<T>(), method calls
/// via call<&T::m>() — through the matching advice chains.
///
/// Core functionality written against these two entry points stays oblivious
/// of parallelisation concerns: with no aspects attached both degenerate to
/// a plain `new T(...)` and a plain member call. Attaching the partition,
/// concurrency and distribution aspects then changes creation/call semantics
/// without touching core code — the paper's central claim.
class Context {
 public:
  Context() = default;
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // --- aspect management (plug / unplug) --------------------------------

  /// Plug an aspect in. Aspects attached earlier see join points at equal
  /// advice order first.
  void attach(std::shared_ptr<Aspect> aspect);

  /// Unplug by name; returns the aspect (or nullptr if absent).
  std::shared_ptr<Aspect> detach(std::string_view name);

  [[nodiscard]] std::shared_ptr<Aspect> find(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> attached() const;

  /// Snapshot of the plugged aspects in attach order — the weave plan the
  /// analyzer (apar-analyze) inspects.
  [[nodiscard]] std::vector<std::shared_ptr<Aspect>> aspects() const {
    std::shared_lock lock(mutex_);
    return aspects_;
  }

  /// Bumped on every attach/detach; advice-chain caches key on it.
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  // --- asynchronous-work tracking ---------------------------------------

  /// The task group aspect-spawned work registers with.
  [[nodiscard]] concurrency::TaskGroup& tasks() { return tasks_; }

  /// Wait until all aspect-spawned work has drained, iterating the
  /// aspects' on_quiesce hooks until no new work appears. The woven
  /// equivalent of the paper's implicit "main waits for the pipeline".
  void quiesce();

  // --- join points --------------------------------------------------------

  /// Constructor-call join point: create a T (argument types are decayed).
  /// With no matching advice this is exactly `Ref<T>::make_local(new T(...))`.
  template <class T, class... CallArgs>
  Ref<T> create(CallArgs&&... args) {
    using Inv = CtorInvocation<T, std::decay_t<CallArgs>...>;
    const Signature sig{class_name_of<T>(), "new",
                        JoinPointKind::kConstructorCall};
    auto chain = chain_for<typename Inv::AdviceT>(sig);
    std::tuple<std::decay_t<CallArgs>...> tup(
        std::forward<CallArgs>(args)...);
    // Arguments are copied (not moved) into the instance: constructor
    // advice may proceed several times against the same argument tuple
    // (object duplication), so the tuple must stay intact.
    static const typename Inv::Terminal terminal =
        [](Context&, std::decay_t<CallArgs>&... as) {
          return Ref<T>::make_local(std::make_unique<T>(as...));
        };
    return Inv::run(*this, sig, chain, 0, tup, terminal, snapshot_stack());
  }

  /// Method-call join point for a registered method M of class T.
  /// With no matching advice this is exactly `(target.local().*M)(args...)`.
  template <auto M, class... CallArgs>
  auto call(Ref<typename detail::MemberFnTraits<decltype(M)>::Class> target,
            CallArgs&&... args) ->
      typename detail::MemberFnTraits<decltype(M)>::Ret {
    using Traits = detail::MemberFnTraits<decltype(M)>;
    using T = typename Traits::Class;
    return call_tuple<M, T>(
        std::type_identity<typename Traits::ArgsTuple>{}, std::move(target),
        std::forward<CallArgs>(args)...);
  }

  /// Explicit future-typed asynchronous call (paper §4.2's future method
  /// calls): runs the full advice chain on a thread of its own from
  /// tasks() and delivers the result through an ABCL-style future.
  template <auto M, class... CallArgs>
  auto call_future(
      Ref<typename detail::MemberFnTraits<decltype(M)>::Class> target,
      CallArgs&&... args)
      -> concurrency::Future<
          std::remove_cvref_t<typename detail::MemberFnTraits<decltype(M)>::Ret>> {
    using Traits = detail::MemberFnTraits<decltype(M)>;
    using R = std::remove_cvref_t<typename Traits::Ret>;
    auto promise = std::make_shared<concurrency::Promise<R>>();
    auto future = promise->future();
    tasks_.spawn([this, promise, target = std::move(target),
                  tup = std::make_shared<std::tuple<std::decay_t<CallArgs>...>>(
                      std::forward<CallArgs>(args)...)]() mutable {
      try {
        std::apply(
            [&](auto&... as) {
              if constexpr (std::is_void_v<typename Traits::Ret>) {
                this->call<M>(target, as...);
                promise->set_value();
              } else {
                promise->set_value(this->call<M>(target, as...));
              }
            },
            *tup);
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    });
    return future;
  }

 private:
  template <auto M, class T, class... A, class... CallArgs>
  typename detail::MemberFnTraits<decltype(M)>::Ret call_tuple(
      std::type_identity<std::tuple<A...>>, Ref<T> target,
      CallArgs&&... args) {
    using R = typename detail::MemberFnTraits<decltype(M)>::Ret;
    using Inv = CallInvocation<T, R, A...>;
    const Signature sig{class_name_of<T>(), method_name_of<M>(),
                        JoinPointKind::kMethodCall};
    auto chain = chain_for<typename Inv::AdviceT>(sig);
    std::tuple<A...> tup(std::forward<CallArgs>(args)...);
    static const typename Inv::Terminal terminal = [](Context&, Ref<T>& t,
                                                      A... as) -> R {
      return (t.local_or_throw().*M)(std::forward<A>(as)...);
    };
    return Inv::run(*this, sig, chain, 0, std::move(target), tup, terminal,
                    snapshot_stack());
  }

  /// Build (or fetch from cache) the sorted advice chain for a join point.
  template <class AdvT>
  std::shared_ptr<const detail::Chain<AdvT>> chain_for(const Signature& sig) {
    const CacheKey key{std::type_index(typeid(AdvT)), sig.class_name.data(),
                       sig.method_name.data()};
    const std::uint64_t now = epoch();
    {
      std::shared_lock lock(mutex_);
      auto it = cache_.find(key);
      if (it != cache_.end() && it->second.epoch == now)
        return std::static_pointer_cast<const detail::Chain<AdvT>>(
            it->second.chain);
    }
    auto chain = std::make_shared<detail::Chain<AdvT>>();
    {
      std::shared_lock lock(mutex_);
      for (const auto& aspect : aspects_) {
        bool used = false;
        for (const auto& adv : aspect->advice()) {
          if (auto* typed = dynamic_cast<AdvT*>(adv.get());
              typed != nullptr && typed->matches(sig)) {
            chain->advice.push_back(typed);
            used = true;
          }
        }
        if (used) chain->keepalive.push_back(aspect);
      }
    }
    std::stable_sort(chain->advice.begin(), chain->advice.end(),
                     [](const AdvT* a, const AdvT* b) {
                       return a->order() < b->order();
                     });
    {
      std::unique_lock lock(mutex_);
      cache_[key] = CacheEntry{now, chain};
    }
    return chain;
  }

  /// Snapshot of the current thread's aspect-frame stack (interned empty
  /// stack for the common core-code case).
  static detail::SnapshotPtr snapshot_stack();

  struct CacheKey {
    std::type_index type;
    const void* class_name;
    const void* method_name;
    friend bool operator==(const CacheKey&, const CacheKey&) = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const {
      std::size_t h = k.type.hash_code();
      h = h * 1000003u ^ std::hash<const void*>{}(k.class_name);
      h = h * 1000003u ^ std::hash<const void*>{}(k.method_name);
      return h;
    }
  };
  struct CacheEntry {
    std::uint64_t epoch = 0;
    std::shared_ptr<void> chain;
  };

  mutable std::shared_mutex mutex_;
  std::vector<std::shared_ptr<Aspect>> aspects_;
  std::unordered_map<CacheKey, CacheEntry, CacheKeyHash> cache_;
  std::atomic<std::uint64_t> epoch_{0};
  concurrency::TaskGroup tasks_;
};

}  // namespace apar::aop
