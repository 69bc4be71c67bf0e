#include "apar/concurrency/task_group.hpp"

#include <algorithm>
#include <utility>

#include "apar/concurrency/thread_pool.hpp"
#include "apar/obs/trace_context.hpp"

namespace apar::concurrency {

/// One cached thread. Owned by the thread running work(); the group holds
/// it in idle_ only while the thread is parked.
struct TaskGroup::Worker {
  /// This thread's handle, stored by spawn() under mutex_. Moved out by
  /// whoever joins the thread: the destructor, or the thread itself on
  /// idle exit (into exited_).
  std::thread thread;
  std::condition_variable wake;
  /// The next call, handed over under mutex_ while the thread is parked.
  std::function<void()> task;
};

namespace {
thread_local TaskGroup::BatchScope* tls_batch = nullptr;
}

TaskGroup::BatchScope::BatchScope(TaskGroup& group) : group_(group) {
  prev_ = tls_batch;
  tls_batch = this;
}

TaskGroup::BatchScope::~BatchScope() {
  tls_batch = prev_;
  flush();
}

void TaskGroup::BatchScope::flush() {
  if (tasks_.empty()) return;
  if (pool_) {
    try {
      pool_->bulk_post(tasks_);
      tasks_.clear();
      return;
    } catch (...) {
      // Pool shutting down; bulk_post is all-or-nothing, so fall through
      // and run the intact batch inline (each wrapper still finish()es).
    }
  }
  for (auto& task : tasks_) task();
  tasks_.clear();
}

TaskGroup::~TaskGroup() {
  // A TaskGroup is a scoped container of threads (CP.23): joining here keeps
  // destruction safe even if the owner forgot to wait(). Once nothing is
  // outstanding every thread is parked (it parks in the same critical
  // section that counts its call finished) or has exited into exited_.
  std::vector<std::thread> threads;
  {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return outstanding_ == 0; });
    closing_ = true;
    for (Worker* worker : idle_) {
      threads.push_back(std::move(worker->thread));
      worker->wake.notify_one();
    }
    idle_.clear();
    threads.push_back(std::move(exited_));
  }
  for (auto& thread : threads)
    if (thread.joinable()) thread.join();
}

void TaskGroup::enter() {
  std::lock_guard lock(mutex_);
  ++outstanding_;
}

void TaskGroup::leave(std::exception_ptr error) { finish(std::move(error)); }

void TaskGroup::spawn(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    ++outstanding_;
    if (!idle_.empty()) {
      Worker* worker = idle_.back();
      idle_.pop_back();
      worker->task = std::move(task);
      worker->wake.notify_one();
      return;
    }
  }
  // No parked thread: create one, outside the lock so finishing calls and
  // other spawns are not held up by the thread creation.
  try {
    auto owned = std::make_unique<Worker>();
    Worker* worker = owned.get();
    std::thread thread(&TaskGroup::work, this, std::move(owned),
                       std::move(task));
    // `worker` is still alive: the thread frees it only on idle exit,
    // which waits until the handle below is stored.
    std::lock_guard lock(mutex_);
    worker->thread = std::move(thread);
  } catch (...) {
    // Thread or memory limits: the call never started, so it must not stay
    // counted, or wait() and the destructor would block forever.
    finish(nullptr);
    throw;
  }
}

void TaskGroup::work(std::unique_ptr<Worker> self,
                     std::function<void()> task) {
  std::unique_lock lock(mutex_, std::defer_lock);
  for (;;) {
    std::exception_ptr error;
    {
      // Whatever an earlier call left installed on this thread, each call
      // starts with no trace context, as it would on a fresh thread.
      obs::ContextScope no_trace{obs::TraceContext{}};
      try {
        task();
      } catch (...) {
        error = std::current_exception();
      }
    }
    // Release the captures before the call counts as finished, so wait()
    // returning means every capture is gone.
    task = nullptr;
    lock.lock();
    finish_locked(std::move(error));
    idle_.push_back(self.get());
    while (!self->task) {
      if (closing_) return;  // the destructor holds our handle and joins
      const bool timed_out =
          self->wake.wait_for(lock, kIdleTimeout) == std::cv_status::timeout;
      // Leave only once spawn() has stored our handle, so that it can be
      // joined.
      if (timed_out && !self->task && !closing_ && self->thread.joinable()) {
        std::erase(idle_, self.get());
        std::thread previous = std::exchange(exited_, std::move(self->thread));
        lock.unlock();
        if (previous.joinable()) previous.join();
        return;
      }
    }
    task = std::exchange(self->task, nullptr);
    lock.unlock();
  }
}

void TaskGroup::run_on(ThreadPool& pool, std::function<void()> task) {
  if (BatchScope* scope = tls_batch;
      scope && &scope->group_ == this &&
      (scope->pool_ == nullptr || scope->pool_ == &pool)) {
    scope->pool_ = &pool;
    enter();
    scope->tasks_.emplace_back([this, task = std::move(task)]() mutable {
      std::exception_ptr error;
      try {
        task();
      } catch (...) {
        error = std::current_exception();
      }
      finish(std::move(error));
    });
    return;
  }
  enter();
  try {
    pool.post([this, task = std::move(task)] {
      std::exception_ptr error;
      try {
        task();
      } catch (...) {
        error = std::current_exception();
      }
      finish(std::move(error));
    });
  } catch (...) {
    finish(std::current_exception());
    throw;
  }
}

std::size_t TaskGroup::outstanding() const {
  std::lock_guard lock(mutex_);
  return outstanding_;
}

void TaskGroup::wait() {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] { return outstanding_ == 0; });
  if (first_error_) {
    auto error = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void TaskGroup::finish(std::exception_ptr error) {
  std::lock_guard lock(mutex_);
  finish_locked(std::move(error));
}

void TaskGroup::finish_locked(std::exception_ptr error) {
  if (error && !first_error_) first_error_ = std::move(error);
  if (--outstanding_ == 0) cv_.notify_all();
}

}  // namespace apar::concurrency
