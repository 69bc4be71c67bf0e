#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "apar/concurrency/task.hpp"

namespace apar::concurrency {

class ThreadPool;

/// Tracks a dynamic set of asynchronous tasks so a caller can quiesce.
///
/// The paper's `main` implicitly waits for the woven pipeline to drain; the
/// concurrency aspect registers every spawned call here and
/// `aop::Context::quiesce()` forwards to wait(). Supports both the paper's
/// literal thread-per-call model (`spawn`) and the pooled optimisation
/// (`run_on`). The first exception thrown by any task is captured and
/// rethrown from wait().
///
/// `spawn` keeps the threads it creates: a thread whose call has finished
/// parks in the group's cache, and the next spawn hands its call to the
/// most recently parked thread instead of creating one. Every call still
/// starts at once on a thread of its own — the cache never bounds or
/// queues calls. A thread parked for kIdleTimeout exits; the destructor
/// joins the rest.
class TaskGroup {
 public:
  /// How long a parked thread waits for its next call before it exits.
  /// Bursts of calls separated by less than this (one sieve after another,
  /// one pipeline run after another: gaps of milliseconds) run on the same
  /// threads, while the stacks a burst of thousands of calls leaves parked
  /// are handed back within a second of the program going quiet. Waiting
  /// longer would save at most one thread creation (~16 µs on a 4-core
  /// Xeon VM) per idle second.
  static constexpr std::chrono::seconds kIdleTimeout{1};

  TaskGroup() = default;
  /// Waits for outstanding tasks, then joins every thread the group still
  /// has.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// RAII batching for partition advice: while a BatchScope for this group
  /// is active on the calling thread, run_on() calls targeting one pool are
  /// collected and submitted as a single ThreadPool::bulk_post when the
  /// scope closes (one accounting pass and one wake sweep instead of N
  /// locked posts). Accounting is live — outstanding() rises as tasks are
  /// batched — and a run_on() for a different pool (or group) bypasses the
  /// batch. If the pool rejects the flush (shutdown), the batched tasks run
  /// inline on the flushing thread so nothing is lost and the destructor
  /// never throws. Scopes nest per-thread (inner scope shadows outer).
  class BatchScope {
   public:
    explicit BatchScope(TaskGroup& group);
    ~BatchScope();

    BatchScope(const BatchScope&) = delete;
    BatchScope& operator=(const BatchScope&) = delete;

    /// Submit everything batched so far without closing the scope.
    void flush();

   private:
    friend class TaskGroup;
    TaskGroup& group_;
    ThreadPool* pool_ = nullptr;
    std::vector<Task> tasks_;
    BatchScope* prev_ = nullptr;
  };

  /// Run `task` at once on a thread of its own (the paper's
  /// `new Thread(){run(){...}}`): a parked thread of this group, or a new
  /// one. Each call starts with no trace context installed, as on a fresh
  /// thread. Throws std::system_error when no thread can be created; the
  /// call is then not counted and the group stays usable.
  void spawn(std::function<void()> task);

  /// Run `task` on `pool`, still tracked by this group. Inside an active
  /// BatchScope for this group, the task is deferred into the batch.
  void run_on(ThreadPool& pool, std::function<void()> task);

  /// Manual bracketing for advice that manages its own execution: balance
  /// every enter() with exactly one leave().
  void enter();
  void leave(std::exception_ptr error = nullptr);

  /// Tasks started but not yet finished. New tasks may be spawned by
  /// running tasks, so this can rise while waiting.
  [[nodiscard]] std::size_t outstanding() const;

  /// Block until every task (including tasks spawned by tasks) finishes;
  /// rethrows the first captured exception. A task's closure is destroyed
  /// before the task counts as finished, so everything it captured has
  /// been released when wait() returns. The group is reusable after
  /// wait() returns.
  void wait();

 private:
  struct Worker;

  void work(std::unique_ptr<Worker> self, std::function<void()> task);
  void finish(std::exception_ptr error);
  void finish_locked(std::exception_ptr error);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t outstanding_ = 0;
  std::exception_ptr first_error_;
  /// Parked threads, the most recently parked last.
  std::vector<Worker*> idle_;
  /// The last thread that exited on idle timeout: the next one to exit
  /// joins it, and the destructor joins whichever is left.
  std::thread exited_;
  bool closing_ = false;
};

}  // namespace apar::concurrency
