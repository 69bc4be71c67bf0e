#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "apar/common/thread_annotations.hpp"
#include "apar/concurrency/future.hpp"
#include "apar/concurrency/task.hpp"
#include "apar/obs/counters.hpp"

namespace apar::concurrency {

/// ThreadPool counters, exported as threadpool.<field> (process-wide sum
/// over all pools): task_failures (posted tasks whose exception escaped),
/// steals, overflow (owner-deque overflows routed to the injection queue)
/// and resizes (resize() calls that changed the target).
#define APAR_THREAD_POOL_STATS_FIELDS(X) \
  X(task_failures) X(steals) X(overflow) X(resizes)
APAR_OBS_COUNTER_SET(ThreadPoolStats, APAR_THREAD_POOL_STATS_FIELDS);

namespace detail {

/// Heap block shared by a submit() call: the future's state and the callable
/// in ONE allocation (the old path allocated the Promise state, the
/// std::function callable, and the queue node separately).
template <class R, class Fn>
struct SubmitState {
  FutureState<R> state;
  Fn fn;
  template <class G>
  explicit SubmitState(G&& g) : fn(std::forward<G>(g)) {}
};

/// The task body for submit(): runs the callable, delivers into the folded
/// state. If the runner is destroyed without running (pool shut down before
/// the task was accepted), waiters get BrokenPromise — the same contract a
/// dropped Promise gives.
template <class R, class Fn>
struct SubmitRunner {
  std::shared_ptr<SubmitState<R, Fn>> shared;

  explicit SubmitRunner(std::shared_ptr<SubmitState<R, Fn>> s)
      : shared(std::move(s)) {}
  SubmitRunner(SubmitRunner&&) noexcept = default;
  SubmitRunner& operator=(SubmitRunner&&) noexcept = default;
  SubmitRunner(const SubmitRunner&) = delete;
  SubmitRunner& operator=(const SubmitRunner&) = delete;

  ~SubmitRunner() {
    if (shared) abandon_state(shared->state);
  }

  void operator()() {
    auto s = std::move(shared);
    try {
      if constexpr (std::is_void_v<R>) {
        s->fn();
        deliver_to_state(s->state, [](auto& st) { st.done = true; });
      } else {
        auto result = s->fn();
        deliver_to_state(s->state, [&](auto& st) {
          st.value.emplace(std::move(result));
        });
      }
    } catch (...) {
      deliver_to_state(s->state, [&](auto& st) {
        st.error = std::current_exception();
      });
    }
  }
};

}  // namespace detail

/// Work-stealing thread pool with ONLINE RESIZE (CP.4: think in terms of
/// tasks, not threads).
///
/// The pool is the substrate for the ThreadPoolAspect optimisation (paper
/// §4.4): instead of spawning a thread per asynchronous method call, the
/// concurrency aspect routes calls here. Internally each worker owns a
/// bounded Chase–Lev deque (lock-free owner push/pop, randomized stealing);
/// external post() goes through a mutex-protected injection queue that
/// workers drain in chunks, re-seeding their own deques so thieves can
/// spread the work. docs/scheduler.md describes the algorithm and its
/// memory-ordering argument.
///
/// resize(n) changes the worker count at runtime — the actuator the
/// AdaptationAspect (docs/adaptation.md) drives. Worker slots (deque +
/// retire flag) are allocated once, up to `max_threads`, and never move,
/// so thieves may scan every slot without synchronising against resize.
/// Growing joins any previously retired thread for the slot and spins up a
/// fresh worker; shrinking is COOPERATIVE: the surplus worker observes its
/// retire flag at a task boundary, drains its own deque back through the
/// injection queue (accepted tasks still run exactly once — the
/// pending-count accounting never sees the move), and exits.
///
/// Destruction drains queued tasks and joins all workers (CP.23/CP.25:
/// threads are scoped; never detached).
class ThreadPool {
 public:
  /// Start `threads` workers, with slot capacity for growing up to
  /// `max_threads` later (0 picks max(2*threads, 8)).
  explicit ThreadPool(std::size_t threads, std::size_t max_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue fire-and-forget work. Throws if the pool is shutting down.
  /// Accepts any nullary callable (std::function, lambdas, Task); callables
  /// up to Task::kInlineBytes are stored without a heap allocation of their
  /// own. Posts from a worker thread of this pool go to that worker's own
  /// deque (lock-free); external posts take the injection lock once.
  template <class F>
  void post(F&& fn) {
    post_node(make_node(Task(std::forward<F>(fn))));
  }

  /// Enqueue a batch under ONE accounting pass and one wake-up sweep
  /// instead of `tasks.size()` locked posts. From a worker thread the batch
  /// seeds the worker's own deque (thieves spread it); from outside it is
  /// spliced into the injection queue under a single lock. Tasks are moved
  /// from; on failure (pool shutting down) the span is left untouched.
  void bulk_post(std::span<Task> tasks);

  /// Enqueue work and obtain a future for its result. One heap allocation
  /// total: the future state and the callable share a block, and the task
  /// envelope holding it comes from the node cache.
  template <class F>
  auto submit(F&& fn) -> Future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    using Fn = std::decay_t<F>;
    auto shared =
        std::make_shared<detail::SubmitState<R, Fn>>(std::forward<F>(fn));
    auto future = detail::FutureAccess::wrap(
        std::shared_ptr<detail::FutureState<R>>(shared, &shared->state));
    post(detail::SubmitRunner<R, Fn>(std::move(shared)));
    return future;
  }

  /// Run one queued task on the calling thread if any is available; false
  /// when nothing could be claimed. Lets blocked producers (parallel_for)
  /// help instead of deadlocking the pool from inside a worker.
  bool try_execute_one();

  /// Change the worker count online. Clamped to [1, max_size()]; returns
  /// the new target. Growing joins any retired thread still parked on the
  /// slot, then starts a fresh worker; shrinking flags surplus workers,
  /// which retire cooperatively at their next task boundary (their queued
  /// work is drained back through the injection queue, so every accepted
  /// task still runs exactly once). Thread-safe against posts, steals and
  /// concurrent resize; must NOT be called from a task running on this
  /// pool (a grow may need to join the calling worker's own slot).
  std::size_t resize(std::size_t n);

  /// Current worker-count target (workers a shrink has flagged may still
  /// be finishing their final task).
  [[nodiscard]] std::size_t size() const {
    return target_size_.load(std::memory_order_acquire);
  }

  /// Slot capacity: the largest value resize() accepts.
  [[nodiscard]] std::size_t max_size() const { return slots_.size(); }

  /// Completed resize() calls that changed the target.
  [[nodiscard]] std::uint64_t resizes() const { return stats_.resizes.value(); }

  /// Tasks currently queued (diagnostic; racy by nature). Counts the
  /// injection queue AND all worker deques.
  [[nodiscard]] std::size_t pending() const;

  /// Posted tasks whose exceptions escaped. Fire-and-forget tasks should
  /// handle their own errors (use submit() to observe them); escapees are
  /// counted here instead of terminating the process.
  [[nodiscard]] std::uint64_t task_failures() const {
    return stats_.task_failures.value();
  }

  /// Successful steals.
  [[nodiscard]] std::uint64_t steals() const { return stats_.steals.value(); }

  /// Owner-deque overflows routed to the injection queue.
  [[nodiscard]] std::uint64_t overflows() const {
    return stats_.overflow.value();
  }

  /// Every counter at once (the set exported as threadpool.*).
  [[nodiscard]] const ThreadPoolStats& stats() const { return stats_; }

  /// Block until no task is queued anywhere and all workers are idle.
  void drain();

 private:
  struct TaskNode;
  struct WorkerSlot;
  struct NodeCache;

  /// Per-thread cache of recycled TaskNodes (capped); avoids a malloc per
  /// post in steady state without any cross-thread synchronisation.
  static NodeCache& local_node_cache();

  TaskNode* make_node(Task task);
  void destroy_node(TaskNode* node) noexcept;
  /// Full accounting for one accepted node: pending++, stopping check,
  /// enqueue, wake. Throws (after destroying the node) when shutting down.
  void post_node(TaskNode* node);
  /// Place an accepted node: own deque when called from a worker of this
  /// pool (overflow -> injection), injection queue otherwise.
  void enqueue_node(TaskNode* node);
  TaskNode* find_work(std::size_t index);
  TaskNode* take_injected(std::size_t index);
  TaskNode* take_injected_external();
  TaskNode* steal_task(std::size_t self_index);
  void run_node(TaskNode* node);
  void worker_loop(std::size_t index);
  /// Cooperative retirement: drain the slot's own deque back into the
  /// injection queue (owner pops — safe), leaving pending accounting
  /// untouched, then let the worker thread exit.
  void retire_worker(std::size_t index);
  void wake_one();
  void wake_all();

  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::vector<std::thread> workers_;

  /// Worker-count target; slots [0, target) are live, the rest retired or
  /// never started. Written under resize_mutex_ only.
  std::atomic<std::size_t> target_size_{0};
  /// Serialises resize() against itself and the destructor's final join.
  std::mutex resize_mutex_;

  /// Shared overflow free-stack for TaskNodes. Nodes are freed on worker
  /// threads but allocated on producer threads, so the thread-local caches
  /// alone never recycle across that boundary: workers push surplus nodes
  /// here (lock-free CAS; push-only, so no ABA), producers adopt the whole
  /// stack in one exchange when their local cache runs dry. Drained in the
  /// destructor after the workers are joined.
  std::atomic<TaskNode*> free_nodes_{nullptr};

  mutable common::Mutex inject_mutex_;
  std::deque<TaskNode*> inject_ APAR_GUARDED_BY(inject_mutex_);

  // Sleep/idle coordination. Workers sleep only when pending_ == 0 — i.e.
  // both the injection queue and every deque are empty — and every enqueue
  // (deque or injection) bumps pending_ before waking, so no task can be
  // stranded behind a sleeping worker. The Dekker pattern between
  // pending_/sleepers_ (both seq_cst) plus lock-then-notify closes the
  // missed-wakeup races; see docs/scheduler.md.
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::condition_variable idle_cv_;
  std::atomic<std::size_t> sleepers_{0};

  /// Tasks enqueued but not yet claimed by a runner.
  std::atomic<std::int64_t> pending_count_{0};
  /// Tasks currently executing.
  std::atomic<std::int64_t> active_{0};
  std::atomic<bool> stopping_{false};

  // Series (process-wide sums over all pools): the counters above, the
  // levels threadpool.workers (size()) and threadpool.queue_depth (tasks
  // accepted but not yet claimed), and the run-path series, which record
  // only while obs::metrics_enabled() — a shared write per task would
  // contend on the scheduler's hot path: the histograms
  // threadpool.queue_wait (the submit→start gap, the AdaptationAspect's
  // key signal) and threadpool.run_us, and beside run_us the counters
  // threadpool.tasks and threadpool.busy_us (its count and summed µs).
  std::shared_ptr<obs::Histogram> queue_wait_us_;
  std::shared_ptr<obs::Histogram> run_us_;
  std::shared_ptr<obs::Counter> tasks_;
  std::shared_ptr<obs::Counter> busy_us_;
  ThreadPoolStats stats_;
  obs::Export workers_export_;  ///< last: unlisted before the pool dies
  obs::Export queue_depth_export_;
};

}  // namespace apar::concurrency
