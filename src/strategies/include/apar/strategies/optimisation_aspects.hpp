#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <functional>

#include "apar/aop/aop.hpp"
#include "apar/cache/cache_aspect.hpp"
#include "apar/cluster/rpc.hpp"
#include "apar/concurrency/future.hpp"
#include "apar/concurrency/parallelism_limiter.hpp"
#include "apar/strategies/concurrency_aspect.hpp"

namespace apar::strategies::optimisation {

/// Result memoisation over a sharded concurrent LRU (the §4.5 cache grown
/// up). Lives in src/cache so the substrate stays below strategies;
/// re-exported here because it belongs to the optimisation family.
template <class T>
using CacheAspect = cache::CacheAspect<T>;
using cache::KeyScope;

/// Models the paper's single-machine constraint for the FarmThreads
/// version: one dual-Xeon node has 4 hardware contexts, so at most 4 local
/// calls make progress concurrently (Figure 17's plateau past 4 filters).
/// Remote targets pass through: their compute is bounded by the remote
/// node's executors instead.
template <class T>
class LocalCpuAspect : public aop::Aspect {
 public:
  LocalCpuAspect(std::string name, std::size_t hardware_contexts)
      : Aspect(std::move(name)), limiter_(hardware_contexts) {}

  explicit LocalCpuAspect(std::size_t hardware_contexts)
      : LocalCpuAspect("LocalCpu", hardware_contexts) {}

  template <auto M>
  LocalCpuAspect& limit_method() {
    this->template around_method<M>(
        aop::order::kOptimisation, aop::Scope::any(), [this](auto& inv) {
          if (inv.target().is_remote()) return inv.proceed();
          auto permit = limiter_.permit();
          return inv.proceed();
        });
    return *this;
  }

  [[nodiscard]] std::size_t hardware_contexts() const {
    return limiter_.limit();
  }

 private:
  concurrency::ParallelismLimiter limiter_;
};

/// Communication packing (paper §4.4): coalesce consecutive packs headed to
/// the same target into one bigger call, halving (or better) the message
/// count at the cost of latency for the buffered pack. Sits between the
/// concurrency and distribution layers; flushes stragglers at quiesce.
template <class T, class E>
class PackingAspect : public aop::Aspect {
 public:
  struct Options {
    std::size_t batch_packs = 2;  ///< coalesce this many packs per call
  };

  PackingAspect(std::string name, Options options)
      : Aspect(std::move(name)), options_(options) {
    register_packing();
  }

  explicit PackingAspect(Options options)
      : PackingAspect("Packing", options) {}

  [[nodiscard]] std::uint64_t coalesced_calls() const {
    return coalesced_.load(std::memory_order_relaxed);
  }

  void on_quiesce(aop::Context& ctx) override { flush_all(ctx); }

 private:
  void register_packing() {
    this->template around_method<&T::process>(
        aop::order::kOptimisation, aop::Scope::not_within(this->name()),
        [this](auto& inv) {
          auto& [pack] = inv.args();
          std::vector<E> merged;
          {
            std::lock_guard lock(mutex_);
            auto& buffer = buffers_[inv.target().identity()];
            buffer.target = inv.target();
            buffer.items.insert(buffer.items.end(), pack.begin(), pack.end());
            ++buffer.pending_packs;
            if (buffer.pending_packs < options_.batch_packs) return;
            merged = std::move(buffer.items);
            buffer.items.clear();
            buffer.pending_packs = 0;
          }
          coalesced_.fetch_add(1, std::memory_order_relaxed);
          inv.proceed_with(merged);
        });
  }

  void flush_all(aop::Context& ctx) {
    std::map<const void*, Buffer> drained;
    {
      std::lock_guard lock(mutex_);
      drained.swap(buffers_);
    }
    // Flushed calls re-enter the context but are excluded from this
    // aspect's own advice by the not_within scope above.
    aop::AspectFrame frame(*this);
    for (auto& [identity, buffer] : drained) {
      if (buffer.items.empty()) continue;
      ctx.template call<&T::process>(buffer.target, buffer.items);
    }
  }

  struct Buffer {
    aop::Ref<T> target;
    std::vector<E> items;
    std::size_t pending_packs = 0;
  };

  Options options_;
  std::mutex mutex_;
  std::map<const void*, Buffer> buffers_;
  std::atomic<std::uint64_t> coalesced_{0};
};

/// Object cache (paper §4.4 "cache objects"): repeated creations with the
/// same constructor arguments return the same aspect-managed instance.
template <class T, class... CtorArgs>
class ObjectCacheAspect : public aop::Aspect {
 public:
  explicit ObjectCacheAspect(std::string name = "ObjectCache")
      : Aspect(std::move(name)) {
    this->template around_new<T, std::decay_t<CtorArgs>...>(
        aop::order::kOptimisation, aop::Scope::any(),
        [this](aop::CtorInvocation<T, std::decay_t<CtorArgs>...>& inv) {
          const auto key = inv.args();
          {
            std::lock_guard lock(mutex_);
            auto it = cache_.find(key);
            if (it != cache_.end()) {
              hits_.fetch_add(1, std::memory_order_relaxed);
              return it->second;
            }
          }
          auto ref = inv.proceed();
          std::lock_guard lock(mutex_);
          misses_.fetch_add(1, std::memory_order_relaxed);
          cache_.emplace(key, ref);
          return ref;
        });
  }

  [[nodiscard]] std::uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mutex_;
  std::map<std::tuple<std::decay_t<CtorArgs>...>, aop::Ref<T>> cache_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

/// Thread-pool optimisation (paper §4.4 "thread pools"): when attached, it
/// finds the named concurrency aspect and reroutes its asynchronous calls
/// through a pooled executor; detaching restores thread-per-call. A pure
/// meta-aspect — it registers no advice of its own.
class ThreadPoolOptimisation : public aop::Aspect {
 public:
  ThreadPoolOptimisation(std::string name, std::string concurrency_aspect,
                         std::size_t threads)
      : Aspect(std::move(name)),
        concurrency_aspect_(std::move(concurrency_aspect)),
        threads_(threads) {}

  ThreadPoolOptimisation(std::string concurrency_aspect, std::size_t threads)
      : ThreadPoolOptimisation("ThreadPoolOpt", std::move(concurrency_aspect),
                               threads) {}

  void on_attach(aop::Context& ctx) override {
    if (auto aspect = ctx.find(concurrency_aspect_)) {
      if (auto* control = dynamic_cast<AsyncControl*>(aspect.get())) {
        control->use_pool(threads_);
        controlled_ = aspect;
      }
    }
  }

  void on_detach(aop::Context&) override {
    if (auto aspect = controlled_.lock()) {
      if (auto* control = dynamic_cast<AsyncControl*>(aspect.get())) {
        control->use_thread_per_call();
      }
    }
  }

 private:
  std::string concurrency_aspect_;
  std::size_t threads_;
  std::weak_ptr<aop::Aspect> controlled_;
};

/// Retry/failover aspect: retries calls that fail with a middleware error,
/// optionally failing over to another target. A crosscutting resilience
/// concern in the same spirit as the paper's optimisation category — the
/// core and the other aspects stay oblivious of failures.
template <class T>
class RetryAspect : public aop::Aspect {
 public:
  struct Options {
    int attempts = 3;  ///< total tries (1 = no retry)
    /// Supplies a replacement target for retry `attempt` (1-based) after
    /// `failed` raised an error; empty keeps retrying the same target.
    std::function<aop::Ref<T>(int attempt, const aop::Ref<T>& failed)>
        failover;
  };

  RetryAspect(std::string name, Options options)
      : Aspect(std::move(name)), options_(std::move(options)) {}

  explicit RetryAspect(Options options)
      : RetryAspect("Retry", std::move(options)) {}

  template <auto M>
  RetryAspect& retry_method() {
    this->template around_method<M>(
        aop::order::kOptimisation, aop::Scope::any(), [this](auto& inv) {
          for (int attempt = 1;; ++attempt) {
            try {
              return inv.proceed();
            } catch (const cluster::rpc::RpcError&) {
              if (attempt >= options_.attempts) throw;
              retries_.fetch_add(1, std::memory_order_relaxed);
              if (options_.failover)
                inv.retarget(options_.failover(attempt, inv.target()));
            }
          }
        });
    return *this;
  }

  [[nodiscard]] std::uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

 private:
  Options options_;
  std::atomic<std::uint64_t> retries_{0};
};

/// Replicated computation (paper §4.4's fourth optimisation example): a
/// value-returning call is issued to every replica concurrently and the
/// first answer wins — hiding the latency of a slow or flaky node. Losing
/// replicas finish in the background (collected at quiesce).
template <class T>
class ReplicatedComputationAspect : public aop::Aspect {
 public:
  explicit ReplicatedComputationAspect(std::string name = "Replication")
      : Aspect(std::move(name)) {}

  /// The replica set calls are fanned out to; typically a partition
  /// aspect's managed objects.
  void set_replicas(std::vector<aop::Ref<T>> replicas) {
    std::lock_guard lock(mutex_);
    replicas_ = std::move(replicas);
  }

  template <auto M>
  ReplicatedComputationAspect& replicate_method() {
    using Traits = aop::detail::MemberFnTraits<decltype(M)>;
    register_replicated<M, typename Traits::Ret>(
        std::type_identity<typename Traits::ArgsTuple>{});
    return *this;
  }

  [[nodiscard]] std::uint64_t fanouts() const {
    return fanouts_.load(std::memory_order_relaxed);
  }

 private:
  template <auto M, class R, class... A>
  void register_replicated(std::type_identity<std::tuple<A...>>) {
    static_assert(!std::is_void_v<R>,
                  "replicated computation needs a result to race on");
    this->template around_method<M>(
        aop::order::kOptimisation, aop::Scope::not_within(this->name()),
        [this](aop::CallInvocation<T, R, A...>& inv) -> R {
          std::vector<aop::Ref<T>> replicas;
          {
            std::lock_guard lock(mutex_);
            replicas = replicas_;
          }
          if (replicas.size() < 2) return inv.proceed();
          fanouts_.fetch_add(1, std::memory_order_relaxed);

          using Value = std::remove_cvref_t<R>;
          auto& ctx = inv.context();
          auto promise = std::make_shared<concurrency::Promise<Value>>();
          auto done = std::make_shared<std::atomic<bool>>(false);
          auto failures = std::make_shared<std::atomic<std::size_t>>(0);
          auto args_copy =
              std::make_shared<std::tuple<std::decay_t<A>...>>(inv.args());
          const std::size_t total = replicas.size();
          for (auto& replica : replicas) {
            ctx.tasks().spawn([this, &ctx, replica, promise, done, failures,
                               args_copy, total] {
              // Calls from here are aspect-made: not_within(this) keeps
              // them from being re-replicated.
              aop::AspectFrame frame(*this);
              try {
                Value result = std::apply(
                    [&](auto&... as) {
                      return ctx.template call<M>(replica, as...);
                    },
                    *args_copy);
                if (!done->exchange(true))
                  promise->set_value(std::move(result));
              } catch (...) {
                if (failures->fetch_add(1) + 1 == total &&
                    !done->exchange(true))
                  promise->set_exception(std::current_exception());
              }
            });
          }
          return promise->future().get();
        });
  }

  std::mutex mutex_;
  std::vector<aop::Ref<T>> replicas_;
  std::atomic<std::uint64_t> fanouts_{0};
};

}  // namespace apar::strategies::optimisation
