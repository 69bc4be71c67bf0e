#include "apar/concurrency/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "apar/concurrency/steal_deque.hpp"
#include "apar/obs/metrics.hpp"
#include "apar/obs/trace_context.hpp"
#include "apar/obs/tracer.hpp"

namespace apar::concurrency {

namespace {

/// Identifies the pool worker running on this thread (if any), so post()
/// from inside a task can target the worker's own deque lock-free.
struct CurrentWorker {
  ThreadPool* pool = nullptr;
  std::size_t index = 0;
};
thread_local CurrentWorker tls_worker;

constexpr std::size_t kNoWorker = static_cast<std::size_t>(-1);
/// Injection-queue tasks moved into the claiming worker's deque per grab,
/// so one locked visit feeds several lock-free pops (and gives thieves
/// something to steal).
constexpr std::size_t kInjectChunk = 16;
constexpr std::size_t kNodeCacheCap = 64;
constexpr std::size_t kDequeCapacity = 1024;

/// xorshift64* per-thread RNG for victim selection; no locking, no
/// std::random_device syscall on the steal path.
std::uint64_t next_rand() {
  static thread_local std::uint64_t state =
      0x9e3779b97f4a7c15ull ^
      static_cast<std::uint64_t>(
          std::hash<std::thread::id>{}(std::this_thread::get_id()));
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545f4914f6cdd1dull;
}

}  // namespace

struct ThreadPool::TaskNode {
  Task task;
  std::chrono::steady_clock::time_point enqueued{};
  /// Submitter's trace context, captured at make_node when tracing is
  /// enabled and restored around task() — causality survives steals.
  obs::TraceContext ctx;
  TaskNode* next = nullptr;  ///< node-cache freelist link
};

struct ThreadPool::WorkerSlot {
  StealDeque<TaskNode> deque{kDequeCapacity};
  /// Set by resize() to shrink: the owning worker observes it at a task
  /// boundary, drains its deque into the injection queue and exits.
  std::atomic<bool> retire{false};
};

struct ThreadPool::NodeCache {
  TaskNode* head = nullptr;
  std::size_t count = 0;

  ~NodeCache() {
    while (head) {
      TaskNode* node = head;
      head = node->next;
      delete node;
    }
  }
};

ThreadPool::NodeCache& ThreadPool::local_node_cache() {
  static thread_local NodeCache cache;
  return cache;
}

ThreadPool::TaskNode* ThreadPool::make_node(Task task) {
  NodeCache& cache = local_node_cache();
  if (!cache.head) {
    // Reclaim nodes freed on other threads (typically the workers) in one
    // ABA-safe swap; without this, a pure producer thread would pay a
    // malloc per post because its own cache never refills. The whole list
    // is adopted — possibly past the cap; destroy_node stops adding beyond
    // the cap and the cache frees everything at thread exit.
    TaskNode* list = free_nodes_.exchange(nullptr, std::memory_order_acquire);
    while (list) {
      TaskNode* reclaimed = list;
      list = reclaimed->next;
      reclaimed->next = cache.head;
      cache.head = reclaimed;
      ++cache.count;
    }
  }
  TaskNode* node;
  if (cache.head) {
    node = cache.head;
    cache.head = node->next;
    --cache.count;
    node->next = nullptr;
  } else {
    node = new TaskNode();
  }
  node->task = std::move(task);
  node->ctx =
      obs::tracing_enabled() ? obs::current_context() : obs::TraceContext{};
  // A recycled node must not carry an old timestamp into run_node.
  node->enqueued = obs::metrics_enabled() || node->ctx.valid()
                       ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point{};
  return node;
}

void ThreadPool::destroy_node(TaskNode* node) noexcept {
  node->task.reset();
  NodeCache& cache = local_node_cache();
  if (cache.count < kNodeCacheCap) {
    node->next = cache.head;
    cache.head = node;
    ++cache.count;
  } else {
    // Local cache full: hand the node to the pool's shared free-stack so
    // producer threads (which allocate but never free) can recycle it.
    TaskNode* head = free_nodes_.load(std::memory_order_relaxed);
    do {
      node->next = head;
    } while (!free_nodes_.compare_exchange_weak(head, node,
                                                std::memory_order_release,
                                                std::memory_order_relaxed));
  }
}

ThreadPool::ThreadPool(std::size_t threads, std::size_t max_threads) {
  if (threads == 0) threads = 1;
  if (max_threads == 0) max_threads = std::max<std::size_t>(threads * 2, 8);
  max_threads = std::max(max_threads, threads);
  auto& registry = obs::MetricsRegistry::global();
  queue_wait_us_ = registry.histogram("threadpool.queue_wait");
  run_us_ = registry.histogram("threadpool.run_us");
  tasks_ = registry.counter("threadpool.tasks");
  busy_us_ = registry.counter("threadpool.busy_us");
  stats_.export_as("threadpool", {});
  workers_export_ = registry.export_gauge("threadpool.workers", {}, [this] {
    return static_cast<std::int64_t>(size());
  });
  queue_depth_export_ =
      registry.export_gauge("threadpool.queue_depth", {}, [this] {
        return pending_count_.load(std::memory_order_relaxed);
      });
  // Every slot the pool can ever use is allocated NOW, so resize() never
  // reallocates slots_ — thieves iterate it without synchronising against
  // growth. Slots beyond the initial target sit idle (an empty deque is a
  // two-load scan for a thief) until a grow starts a worker on them.
  slots_.reserve(max_threads);
  for (std::size_t i = 0; i < max_threads; ++i)
    slots_.push_back(std::make_unique<WorkerSlot>());
  workers_.resize(max_threads);
  target_size_.store(threads, std::memory_order_release);
  for (std::size_t i = 0; i < threads; ++i)
    workers_[i] = std::thread([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  stopping_.store(true, std::memory_order_seq_cst);
  {
    // Fence against the sleep predicate: a worker past its predicate check
    // either holds the mutex (we wait here) or is already blocked (the
    // notify reaches it).
    std::lock_guard lock(sleep_mutex_);
  }
  sleep_cv_.notify_all();
  {
    // Serialise against an in-flight resize(): it checks stopping_ under
    // this mutex before spawning, so after we acquire it no new worker can
    // appear behind our joins.
    std::lock_guard resize_lock(resize_mutex_);
    for (auto& w : workers_)
      if (w.joinable()) w.join();
  }
  TaskNode* list = free_nodes_.exchange(nullptr, std::memory_order_acquire);
  while (list) {
    TaskNode* node = list;
    list = node->next;
    delete node;
  }
}

std::size_t ThreadPool::resize(std::size_t n) {
  if (n == 0) n = 1;
  n = std::min(n, slots_.size());
  if (tls_worker.pool == this)
    throw std::logic_error(
        "ThreadPool::resize must not be called from a task on this pool "
        "(a grow may need to join the calling worker's own slot)");
  std::lock_guard resize_lock(resize_mutex_);
  if (stopping_.load(std::memory_order_seq_cst))
    return target_size_.load(std::memory_order_acquire);
  const std::size_t old = target_size_.load(std::memory_order_acquire);
  if (n == old) return old;
  if (n > old) {
    for (std::size_t i = old; i < n; ++i) {
      // A worker retired by an earlier shrink may still be unwinding on
      // this slot; join it before reusing the slot. Its deque was drained
      // on retirement, so the fresh worker starts on an empty deque.
      if (workers_[i].joinable()) workers_[i].join();
      slots_[i]->retire.store(false, std::memory_order_release);
      workers_[i] = std::thread([this, i] { worker_loop(i); });
    }
    target_size_.store(n, std::memory_order_seq_cst);
  } else {
    target_size_.store(n, std::memory_order_seq_cst);
    for (std::size_t i = n; i < old; ++i)
      slots_[i]->retire.store(true, std::memory_order_seq_cst);
    // Same lock-then-notify fence as the destructor: a flagged worker past
    // its sleep-predicate check either holds the mutex (we wait) or is
    // already blocked (the notify reaches it). Either way it observes the
    // retire flag and exits instead of sleeping through the shrink.
    {
      std::lock_guard lock(sleep_mutex_);
    }
    sleep_cv_.notify_all();
  }
  stats_.resizes.add();
  return n;
}

void ThreadPool::post_node(TaskNode* node) {
  // Accept/reject protocol (both sides seq_cst): pending++ happens BEFORE
  // the stopping check, and the destructor stores stopping BEFORE workers
  // re-check pending on their way out. In the seq_cst total order either
  // this post sees stopping (rejects, undoes the increment) or its
  // increment precedes the store, in which case every exiting worker still
  // sees pending > 0 and keeps draining. Tasks are never lost at shutdown.
  pending_count_.fetch_add(1, std::memory_order_seq_cst);
  if (stopping_.load(std::memory_order_seq_cst)) {
    pending_count_.fetch_sub(1, std::memory_order_seq_cst);
    destroy_node(node);
    {
      std::lock_guard lock(sleep_mutex_);
    }
    idle_cv_.notify_all();
    throw std::runtime_error("ThreadPool is shutting down");
  }
  enqueue_node(node);
  wake_one();
}

void ThreadPool::enqueue_node(TaskNode* node) {
  if (tls_worker.pool == this) {
    if (slots_[tls_worker.index]->deque.push(node)) return;
    stats_.overflow.add();
  }
  common::MutexLock lock(inject_mutex_);
  inject_.push_back(node);
}

void ThreadPool::bulk_post(std::span<Task> tasks) {
  if (tasks.empty()) return;
  const auto n = static_cast<std::int64_t>(tasks.size());
  pending_count_.fetch_add(n, std::memory_order_seq_cst);
  if (stopping_.load(std::memory_order_seq_cst)) {
    // All-or-nothing: no task has been moved from yet, so the caller can
    // still run the span inline.
    pending_count_.fetch_sub(n, std::memory_order_seq_cst);
    {
      std::lock_guard lock(sleep_mutex_);
    }
    idle_cv_.notify_all();
    throw std::runtime_error("ThreadPool is shutting down");
  }
  if (tls_worker.pool == this) {
    // Seed our own deque (lock-free); spill the rest under one lock.
    auto& deque = slots_[tls_worker.index]->deque;
    std::vector<TaskNode*> spill;
    for (auto& task : tasks) {
      TaskNode* node = make_node(std::move(task));
      if (!deque.push(node)) {
        stats_.overflow.add();
        spill.push_back(node);
      }
    }
    if (!spill.empty()) {
      common::MutexLock lock(inject_mutex_);
      inject_.insert(inject_.end(), spill.begin(), spill.end());
    }
  } else {
    std::vector<TaskNode*> nodes;
    nodes.reserve(tasks.size());
    for (auto& task : tasks) nodes.push_back(make_node(std::move(task)));
    common::MutexLock lock(inject_mutex_);
    inject_.insert(inject_.end(), nodes.begin(), nodes.end());
  }
  wake_all();
}

ThreadPool::TaskNode* ThreadPool::take_injected(std::size_t index) {
  common::MutexLock lock(inject_mutex_);
  if (inject_.empty()) return nullptr;
  TaskNode* first = inject_.front();
  inject_.pop_front();
  // Re-seed our deque so the next grabs are lock-free and thieves can
  // spread the backlog.
  auto& deque = slots_[index]->deque;
  std::size_t moved = 0;
  while (moved < kInjectChunk && !inject_.empty()) {
    if (!deque.push(inject_.front())) break;
    inject_.pop_front();
    ++moved;
  }
  return first;
}

ThreadPool::TaskNode* ThreadPool::take_injected_external() {
  common::MutexLock lock(inject_mutex_);
  if (inject_.empty()) return nullptr;
  TaskNode* first = inject_.front();
  inject_.pop_front();
  return first;
}

ThreadPool::TaskNode* ThreadPool::steal_task(std::size_t self_index) {
  const std::size_t n = slots_.size();
  for (int round = 0; round < 2; ++round) {
    const std::size_t start = static_cast<std::size_t>(next_rand()) % n;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t victim = (start + i) % n;
      if (victim == self_index) continue;
      if (TaskNode* node = slots_[victim]->deque.steal()) {
        stats_.steals.add();
        return node;
      }
    }
  }
  return nullptr;
}

ThreadPool::TaskNode* ThreadPool::find_work(std::size_t index) {
  if (TaskNode* node = slots_[index]->deque.pop()) return node;
  if (TaskNode* node = take_injected(index)) return node;
  return steal_task(index);
}

void ThreadPool::run_node(TaskNode* node) {
  // Claim order matters for drain(): active++ BEFORE pending--, so there
  // is no instant where a claimed-but-running task is invisible to the
  // idle predicate (pending == 0 && active == 0).
  active_.fetch_add(1, std::memory_order_seq_cst);
  pending_count_.fetch_sub(1, std::memory_order_seq_cst);
  // Histograms follow the switch as it is now; a task posted before it
  // flipped on has no enqueue time and records no wait.
  const bool timed = obs::metrics_enabled();
  std::chrono::steady_clock::time_point started{};
  if (timed || node->ctx.valid())
    started = std::chrono::steady_clock::now();
  if (timed && node->enqueued != std::chrono::steady_clock::time_point{}) {
    const double us = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          started - node->enqueued)
                          .count() /
                      1000.0;
    queue_wait_us_->record(us);
  }
  if (node->ctx.valid() && obs::tracing_enabled()) {
    // The submit→start gap as an explicit child span of the submitter —
    // queue pressure becomes visible in the timeline, not just as a
    // histogram. Both boundary events share one fresh context so they
    // pair exactly even among same-named neighbours.
    const obs::TraceContext wait_ctx = obs::TraceContext::child_of(node->ctx);
    auto& tracer = *obs::Tracer::global();
    tracer.record({node->enqueued, std::this_thread::get_id(),
                   "threadpool.queue_wait", nullptr,
                   obs::TraceEvent::Phase::kEnter, wait_ctx});
    tracer.record({started, std::this_thread::get_id(),
                   "threadpool.queue_wait", nullptr,
                   obs::TraceEvent::Phase::kExit, wait_ctx});
  }
  // A fire-and-forget task that throws must not take the process down
  // (an escaped exception on a worker thread is std::terminate). This
  // matters during shutdown: a task that post()s while the pool is
  // stopping gets a runtime_error, and if it lets that propagate the
  // whole run would die instead of finishing the drain.
  try {
    if (node->ctx.valid()) {
      // Resume the submitter's context for the task body: spans the task
      // opens parent to the submitting span, across steals.
      obs::ContextScope restore(node->ctx);
      node->task();
    } else {
      node->task();
    }
  } catch (...) {
    stats_.task_failures.add();
  }
  if (timed) {
    const double us = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - started)
                          .count() /
                      1000.0;
    run_us_->record(us);
    tasks_->add();
    busy_us_->add(static_cast<std::uint64_t>(us));
  }
  destroy_node(node);
  if (active_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
      pending_count_.load(std::memory_order_seq_cst) == 0) {
    std::lock_guard lock(sleep_mutex_);
    idle_cv_.notify_all();
  }
}

bool ThreadPool::try_execute_one() {
  TaskNode* node = nullptr;
  if (tls_worker.pool == this) {
    node = find_work(tls_worker.index);
  } else {
    node = take_injected_external();
    if (!node) node = steal_task(kNoWorker);
  }
  if (!node) return false;
  run_node(node);
  return true;
}

std::size_t ThreadPool::pending() const {
  const auto p = pending_count_.load(std::memory_order_seq_cst);
  return p > 0 ? static_cast<std::size_t>(p) : 0;
}

void ThreadPool::drain() {
  std::unique_lock lock(sleep_mutex_);
  idle_cv_.wait(lock, [&] {
    return pending_count_.load(std::memory_order_seq_cst) == 0 &&
           active_.load(std::memory_order_seq_cst) == 0;
  });
}

void ThreadPool::wake_one() {
  // Dekker pairing with the sleep path: enqueue did pending++ (seq_cst)
  // before this sleepers_ read; a worker does sleepers++ (seq_cst) before
  // re-reading pending under the mutex. At least one side sees the other,
  // so a task is never published to a fully sleeping pool without a notify.
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  {
    std::lock_guard lock(sleep_mutex_);
  }
  sleep_cv_.notify_one();
}

void ThreadPool::wake_all() {
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  {
    std::lock_guard lock(sleep_mutex_);
  }
  sleep_cv_.notify_all();
}

void ThreadPool::retire_worker(std::size_t index) {
  // Drain our OWN deque (owner pops are safe against concurrent thieves)
  // back into the injection queue. The pending accounting is untouched:
  // the tasks were accepted and stay accepted, they only change queues,
  // so exactly-once execution holds across the shrink.
  auto& deque = slots_[index]->deque;
  std::vector<TaskNode*> drained;
  while (TaskNode* node = deque.pop()) drained.push_back(node);
  if (!drained.empty()) {
    {
      common::MutexLock lock(inject_mutex_);
      inject_.insert(inject_.end(), drained.begin(), drained.end());
    }
    wake_all();
  }
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_worker = CurrentWorker{this, index};
  WorkerSlot& slot = *slots_[index];
  while (true) {
    // Task boundary: honour a shrink before claiming more work.
    if (slot.retire.load(std::memory_order_seq_cst)) {
      retire_worker(index);
      break;
    }
    if (TaskNode* node = find_work(index)) {
      run_node(node);
      continue;
    }
    // Nothing claimable right now. If tasks are accounted somewhere
    // (being enqueued, or sitting in a deque we raced on), spin-yield;
    // sleeping here could strand a task behind the wake protocol.
    if (pending_count_.load(std::memory_order_seq_cst) > 0) {
      std::this_thread::yield();
      continue;
    }
    if (stopping_.load(std::memory_order_seq_cst)) {
      // Exit only when stopping AND nothing pending anywhere — the
      // destructor drains queued work (see post_node protocol).
      if (pending_count_.load(std::memory_order_seq_cst) == 0) break;
      std::this_thread::yield();
      continue;
    }
    std::unique_lock lock(sleep_mutex_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    sleep_cv_.wait(lock, [&] {
      return stopping_.load(std::memory_order_seq_cst) ||
             slot.retire.load(std::memory_order_seq_cst) ||
             pending_count_.load(std::memory_order_seq_cst) > 0;
    });
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
  tls_worker = CurrentWorker{};
}

}  // namespace apar::concurrency
