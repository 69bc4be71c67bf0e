#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "apar/aop/aop.hpp"
#include "apar/concurrency/sync_registry.hpp"
#include "apar/concurrency/thread_pool.hpp"

namespace apar::strategies {

/// Runtime-reconfiguration interface for concurrency aspects; used by the
/// ThreadPoolOptimisation aspect to swap thread-per-call execution for a
/// pooled executor without touching the concurrency aspect's identity.
class AsyncControl {
 public:
  virtual ~AsyncControl() = default;
  /// Route asynchronous calls through a pool of `threads` workers.
  virtual void use_pool(std::size_t threads) = 0;
  /// Restore the paper's literal thread-per-call model.
  virtual void use_thread_per_call() = 0;
  [[nodiscard]] virtual bool pooled() const = 0;
};

/// The paper's Concurrency aspect (§4.2, Figure 12), generalised and
/// reusable: makes selected void methods asynchronous (each call runs the
/// rest of its advice chain at once on a thread of its own from the
/// context's TaskGroup, with arguments copied by value) and guards
/// selected methods with a per-object monitor, since core classes are not
/// thread safe.
///
/// Both halves can be toggled independently: unplugging the whole aspect
/// (or set_enabled(false)) restores valid sequential execution — the
/// paper's debugging story.
template <class T>
class ConcurrencyAspect : public aop::Aspect, public AsyncControl {
 public:
  explicit ConcurrencyAspect(std::string name = "Concurrency")
      : Aspect(std::move(name)) {}

  /// Make void method M asynchronous and monitor-guarded (the usual pair).
  template <auto M>
  ConcurrencyAspect& async_method() {
    register_async<M>();
    register_guard<M>();
    return *this;
  }

  /// Monitor-guard method M without making it asynchronous (for result
  /// collection methods called from many forwarding threads).
  template <auto M>
  ConcurrencyAspect& guarded_method() {
    register_guard<M>();
    return *this;
  }

  // --- AsyncControl -------------------------------------------------------

  void use_pool(std::size_t threads) override {
    // Swap the pool handle atomically: dispatches in flight hold their own
    // shared_ptr, so the old pool is destroyed (draining its queue) only
    // when the last dispatch lets go.
    pool_.store(std::make_shared<concurrency::ThreadPool>(threads),
                std::memory_order_release);
    pooled_.store(true, std::memory_order_release);
  }

  void use_thread_per_call() override {
    pooled_.store(false, std::memory_order_release);
    // The pool itself is retired lazily; in-flight pooled tasks finish.
  }

  [[nodiscard]] bool pooled() const override {
    return pooled_.load(std::memory_order_acquire);
  }

  /// Calls spawned since construction (diagnostics / tests).
  [[nodiscard]] std::uint64_t spawned() const {
    return spawned_.load(std::memory_order_relaxed);
  }

  /// The pooled executor currently routing async calls (null when in
  /// thread-per-call mode). Exposed so an AdaptationAspect can wire its
  /// workers knob to pool->resize() — the pool's cooperative-retirement
  /// contract keeps accepted dispatches exactly-once across resizes.
  [[nodiscard]] std::shared_ptr<concurrency::ThreadPool> pool() const {
    return pool_.load(std::memory_order_acquire);
  }

 private:
  template <auto M>
  void register_async() {
    this->template around_method<M>(
            aop::order::kConcurrencyAsync, aop::Scope::any(),
            [this](auto& inv) {
              auto continuation = inv.continuation();
              spawned_.fetch_add(1, std::memory_order_relaxed);
              if (pooled()) {
                // Lock-free dispatch: the atomic shared_ptr load pins the
                // pool for the duration of the post, so use_pool()/unplug
                // can swap it concurrently without a mutex on this hot
                // path.
                if (auto pool = pool_.load(std::memory_order_acquire)) {
                  inv.context().tasks().run_on(*pool, std::move(continuation));
                  return;
                }
              }
              // The paper's `new Thread() { run() { proceed(); } }.start()`.
              inv.context().tasks().spawn(std::move(continuation));
            })
        .mark_spawns_concurrency()
        // Both dispatch modes tolerate an online resize of their degree:
        // a pooled task survives ThreadPool::resize exactly-once (deques
        // drain through the injection queue on retirement), and a
        // thread-per-call dispatch owns its thread outright.
        .mark_online_resizable();
  }

  template <auto M>
  void register_guard() {
    this->template around_method<M>(
            aop::order::kConcurrencySync, aop::Scope::any(),
            [this](auto& inv) {
              // `synchronized(target) { proceed(); }` — keyed on the Ref cell
              // so it works identically for local and remote objects.
              auto guard = monitors_.acquire(inv.target().identity());
              return inv.proceed();
            })
        .mark_acquires_monitor();
  }

  concurrency::SyncRegistry monitors_;
  std::atomic<std::shared_ptr<concurrency::ThreadPool>> pool_;
  std::atomic<bool> pooled_{false};
  std::atomic<std::uint64_t> spawned_{0};
};

}  // namespace apar::strategies
