#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <queue>

#include "apar/concurrency/thread_pool.hpp"

namespace apar::concurrency {

/// Serial executor: tasks enqueued against one ActiveObject run one at a
/// time, in FIFO order, on a shared pool — the ABCL "active object" model
/// (paper §2) without a dedicated thread per object.
///
/// It gives the same data-race freedom as the per-object monitor, but
/// callers never block on a busy object; they just enqueue. No aspect uses
/// it yet; its own tests are its only callers.
class ActiveObject {
 public:
  explicit ActiveObject(ThreadPool& pool) : state_(std::make_shared<State>(pool)) {}

  /// Enqueue a task; it runs after every previously enqueued task finished.
  void enqueue(std::function<void()> task) {
    auto st = state_;
    bool start = false;
    {
      std::lock_guard lock(st->mutex);
      st->queue.push(std::move(task));
      if (!st->draining) {
        st->draining = true;
        start = true;
      }
    }
    if (start) schedule(std::move(st));
  }

 private:
  struct State {
    explicit State(ThreadPool& p) : pool(p) {}
    ThreadPool& pool;
    std::mutex mutex;
    std::queue<std::function<void()>> queue;
    bool draining = false;
  };

  static void schedule(std::shared_ptr<State> st) {
    auto& pool = st->pool;
    pool.post([st = std::move(st)]() mutable {
      while (true) {
        std::function<void()> task;
        {
          std::lock_guard lock(st->mutex);
          if (st->queue.empty()) {
            st->draining = false;
            return;
          }
          task = std::move(st->queue.front());
          st->queue.pop();
        }
        task();
      }
    });
  }

  std::shared_ptr<State> state_;
};

}  // namespace apar::concurrency
