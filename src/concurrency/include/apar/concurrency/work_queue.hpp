#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apar/obs/metrics.hpp"

namespace apar::concurrency {

/// Blocking multi-producer / multi-consumer queue.
///
/// This is the demand-driven channel behind the DynamicFarm strategy: the
/// partition advice pushes work packs, worker loops pop them. close() wakes
/// all consumers; pop() then drains remaining items before returning
/// nullopt.
template <class T>
class WorkQueue {
 public:
  WorkQueue() = default;

  WorkQueue(const WorkQueue&) = delete;
  WorkQueue& operator=(const WorkQueue&) = delete;

  /// List this queue's series in the global metrics registry, labelled
  /// {"queue": name}: workqueue.depth (size(), read at scrape time) and
  /// workqueue.pushed / workqueue.popped, which count only while
  /// obs::metrics_enabled() — a shared write per item, always on, made a
  /// contended queue's push and pop about 19% slower. Call before
  /// producers and consumers start.
  void enable_metrics(const std::string& name) {
    const obs::Labels labels{{"queue", name}};
    auto& registry = obs::MetricsRegistry::global();
    pushed_ = registry.counter("workqueue.pushed", labels);
    popped_ = registry.counter("workqueue.popped", labels);
    depth_export_ = registry.export_gauge(
        "workqueue.depth", labels,
        [this] { return static_cast<std::int64_t>(size()); });
  }

  /// Push an item; returns false (drops the item) if the queue is closed.
  bool push(T item) {
    {
      std::lock_guard lock(mutex_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    count(pushed_, 1);
    cv_.notify_one();
    return true;
  }

  /// Push a whole batch under ONE lock acquisition and one notify_all
  /// (instead of size() lock/notify pairs — the DynamicFarm feeder pushes
  /// every pack of a partition at once). Items are moved from `items`.
  /// Returns the number actually enqueued: all of them, or 0 if the queue
  /// is closed (all-or-nothing; the vector is left untouched on refusal so
  /// the caller can dispose of the work). Metrics stay exact: depth/pushed
  /// advance by the batch size in one step.
  std::size_t push_batch(std::vector<T>& items) {
    if (items.empty()) return 0;
    const auto n = items.size();
    {
      std::lock_guard lock(mutex_);
      if (closed_) return 0;
      for (auto& item : items)
        items_.push_back(std::move(item));
    }
    items.clear();
    count(pushed_, n);
    if (n == 1)
      cv_.notify_one();
    else
      cv_.notify_all();
    return n;
  }

  /// Block until at least one item is available (or the queue is closed and
  /// empty), then take up to `max_n` items under the single lock hold.
  /// Empty result means closed-and-drained, mirroring pop().
  std::vector<T> pop_batch(std::size_t max_n) {
    std::vector<T> out;
    if (max_n == 0) return out;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
      const std::size_t take = std::min(max_n, items_.size());
      out.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        out.push_back(std::move(items_.front()));
        items_.pop_front();
      }
    }
    count(popped_, out.size());
    return out;
  }

  /// Block until an item is available or the queue is closed and empty.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    count(popped_, 1);
    return item;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::optional<T> item;
    {
      std::lock_guard lock(mutex_);
      if (items_.empty()) return std::nullopt;
      item = std::move(items_.front());
      items_.pop_front();
    }
    count(popped_, 1);
    return item;
  }

  /// Close the queue: producers are refused, consumers drain then get
  /// nullopt.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Close the queue AND withdraw everything still queued (crash
  /// semantics): consumers get nullopt immediately, and the caller
  /// receives the unprocessed items to dispose of.
  std::deque<T> close_now() {
    std::deque<T> dropped;
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
      dropped.swap(items_);
    }
    cv_.notify_all();
    return dropped;
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

 private:
  static void count(const std::shared_ptr<obs::Counter>& counter,
                    std::size_t n) {
    if (counter && n > 0 && obs::metrics_enabled()) counter->add(n);
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;

  // Null until enable_metrics().
  std::shared_ptr<obs::Counter> pushed_;
  std::shared_ptr<obs::Counter> popped_;
  obs::Export depth_export_;  ///< last: unlisted before size() can dangle
};

}  // namespace apar::concurrency
