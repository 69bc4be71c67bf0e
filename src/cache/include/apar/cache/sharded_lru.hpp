#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apar/cache/cache_stats.hpp"
#include "apar/common/stress.hpp"
#include "apar/common/thread_annotations.hpp"
#include "apar/obs/metrics.hpp"

namespace apar::cache {

namespace detail {

/// Default byte charge of a cached (key, value) pair: the fixed footprint
/// plus the dynamic payload of anything with size() (strings, byte
/// buffers, vectors). Deterministic by construction so the model-based
/// test can predict byte-bound evictions exactly.
template <class X>
std::size_t dynamic_bytes(const X& x) {
  if constexpr (requires { x.size(); typename X::value_type; }) {
    return x.size() * sizeof(typename X::value_type);
  } else {
    (void)x;
    return 0;
  }
}

}  // namespace detail

/// A sharded concurrent LRU map — the production-grade descendant of the
/// paper's §4.5 object cache, shaped after dist-clang's file_cache: the
/// single biggest win under heavy repeated traffic is not recomputing.
///
/// Concurrency model: the key space is split across `shards` independent
/// shards (hash-routed); each shard is one mutex around an unordered_map
/// whose entries are threaded onto an intrusive doubly-linked LRU list
/// (pointer surgery on hit, no allocation). Two operations contend only
/// when their keys share a shard, so throughput scales with shard count
/// until the hash collides.
///
/// Bounds and expiry (all per shard, deterministically — the model-based
/// test in tests/cache replays these rules against a reference map):
///   - entry bound: ceil(max_entries / shards) live entries per shard;
///   - byte bound: ceil(max_bytes / shards) charged bytes per shard
///     (0 = unbounded); the charge of an entry is Options::size_of, or
///     sizeof both types plus dynamic payload by default;
///   - inserting past a bound evicts from the LRU tail until back under
///     both bounds (an oversized single entry evicts itself: the shard
///     ends empty rather than silently over budget);
///   - TTL is measured from insert/overwrite (not refreshed by reads) and
///     reaped lazily: a lookup that finds a lapsed entry removes it and
///     counts an expiry + a miss.
///
/// get_or_compute() adds single-flight memoisation: concurrent misses on
/// one key elect exactly one computing leader; the racers wait on the
/// leader's in-flight slot and share its result (counted `coalesced`).
/// A compute that throws is delivered to every waiter and caches NOTHING —
/// errors are never memoized, so a transient failure cannot poison the key.
template <class K, class V, class Hash = std::hash<K>>
class ShardedLru {
 public:
  struct Options {
    std::size_t shards = 8;       ///< rounded up to a power of two
    std::size_t max_entries = 1024;
    std::size_t max_bytes = 0;    ///< 0 = unbounded
    std::chrono::nanoseconds ttl{0};  ///< 0 = entries never expire
    /// Byte charge of an entry; null uses the deterministic default.
    std::function<std::size_t(const K&, const V&)> size_of;
    /// Monotonic nanosecond clock, only consulted when ttl > 0. Tests
    /// inject a manual clock to script TTL-advance deterministically.
    std::function<std::uint64_t()> now;
    /// Metric label ({"cache": name}) for the exported series.
    std::string name = "lru";
  };

  explicit ShardedLru(Options options)
      : options_(std::move(options)) {
    std::size_t n = 1;
    while (n < std::max<std::size_t>(1, options_.shards)) n <<= 1;
    mask_ = n - 1;
    shards_ = std::make_unique<Shard[]>(n);
    cap_entries_ = (options_.max_entries + n - 1) / n;
    if (cap_entries_ == 0) cap_entries_ = 1;
    cap_bytes_ = options_.max_bytes == 0 ? 0 : (options_.max_bytes + n - 1) / n;
    if (!options_.now)
      options_.now = [] {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
      };
    const obs::Labels labels{{"cache", options_.name}};
    stats_.export_as("cache", labels);
    auto& registry = obs::MetricsRegistry::global();
    entries_export_ = registry.export_gauge("cache.entries", labels, [this] {
      return static_cast<std::int64_t>(size());
    });
    bytes_export_ = registry.export_gauge("cache.bytes", labels, [this] {
      return static_cast<std::int64_t>(bytes());
    });
  }

  ShardedLru(const ShardedLru&) = delete;
  ShardedLru& operator=(const ShardedLru&) = delete;

  /// Deterministic default charge (exposed so tests and reference models
  /// compute the same number the cache does).
  static std::size_t default_charge(const K& key, const V& value) {
    return sizeof(K) + sizeof(V) + detail::dynamic_bytes(key) +
           detail::dynamic_bytes(value);
  }

  [[nodiscard]] std::size_t shard_count() const { return mask_ + 1; }
  [[nodiscard]] std::size_t shard_of(const K& key) const {
    return common::mix64(static_cast<std::uint64_t>(Hash{}(key))) & mask_;
  }
  [[nodiscard]] std::size_t shard_entry_capacity() const {
    return cap_entries_;
  }
  [[nodiscard]] std::size_t shard_byte_capacity() const { return cap_bytes_; }

  /// Lookup; a live hit is freshened to most-recently-used.
  std::optional<V> get(const K& key) {
    Shard& sh = shard_for(key);
    common::MutexLock lock(sh.mu);
    stats_.gets.add();
    Node* node = find_live(sh, key);
    if (node == nullptr) {
      count_miss();
      return std::nullopt;
    }
    touch(sh, node);
    count_hit();
    return node->value;
  }

  /// Insert or overwrite, then evict from the LRU tail to the bounds.
  void put(const K& key, V value) {
    Shard& sh = shard_for(key);
    common::MutexLock lock(sh.mu);
    insert_locked(sh, key, std::move(value));
  }

  /// Remove a key (expired entries count as erases here, not expiries).
  bool erase(const K& key) {
    Shard& sh = shard_for(key);
    common::MutexLock lock(sh.mu);
    auto it = sh.map.find(key);
    if (it == sh.map.end()) return false;
    remove_node(sh, &it->second);
    stats_.erases.add();
    return true;
  }

  /// Memoized computation with single-flight semantics: at most one
  /// compute per key runs at a time; racing callers wait and share the
  /// leader's result (or its exception — failures cache nothing).
  V get_or_compute(const K& key, const std::function<V()>& compute) {
    Shard& sh = shard_for(key);
    std::shared_ptr<InFlight> flight;
    {
      common::MutexLock lock(sh.mu);
      stats_.gets.add();
      if (Node* node = find_live(sh, key)) {
        touch(sh, node);
        count_hit();
        return node->value;
      }
      auto it = sh.inflight.find(key);
      if (it != sh.inflight.end()) {
        flight = it->second;
        stats_.coalesced.add();
      } else {
        flight = std::make_shared<InFlight>();
        sh.inflight.emplace(key, flight);
        count_miss();
      }
    }

    if (flight->leader.exchange(false, std::memory_order_acq_rel)) {
      // This thread won the election: compute outside the shard lock so
      // hits on other keys in the shard proceed meanwhile.
      V value;
      try {
        value = compute();
      } catch (...) {
        {
          common::MutexLock lock(sh.mu);
          sh.inflight.erase(key);
        }
        {
          std::lock_guard flock(flight->mu);
          flight->error = std::current_exception();
          flight->done = true;
        }
        flight->cv.notify_all();
        throw;
      }
      {
        common::MutexLock lock(sh.mu);
        sh.inflight.erase(key);
        insert_locked(sh, key, value);
      }
      {
        std::lock_guard flock(flight->mu);
        flight->value = value;
        flight->done = true;
      }
      flight->cv.notify_all();
      return value;
    }

    std::unique_lock flock(flight->mu);
    flight->cv.wait(flock, [&] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    return *flight->value;
  }

  /// Presence probe without LRU or counter side effects (still reports a
  /// lapsed entry as absent). For tests and diagnostics.
  [[nodiscard]] bool peek(const K& key) const {
    const Shard& sh = shard_for(key);
    common::MutexLock lock(sh.mu);
    auto it = sh.map.find(key);
    return it != sh.map.end() && !lapsed(it->second);
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i <= mask_; ++i) {
      common::MutexLock lock(shards_[i].mu);
      n += shards_[i].map.size();
    }
    return n;
  }

  [[nodiscard]] std::size_t bytes() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i <= mask_; ++i) {
      common::MutexLock lock(shards_[i].mu);
      n += shards_[i].bytes;
    }
    return n;
  }

  [[nodiscard]] std::size_t entries_in(std::size_t shard) const {
    common::MutexLock lock(shards_[shard].mu);
    return shards_[shard].map.size();
  }

  [[nodiscard]] std::size_t bytes_in(std::size_t shard) const {
    common::MutexLock lock(shards_[shard].mu);
    return shards_[shard].bytes;
  }

  /// Keys of one shard in recency order (MRU first) — the ground truth the
  /// model-based test compares its reference list against.
  [[nodiscard]] std::vector<K> keys_in(std::size_t shard) const {
    const Shard& sh = shards_[shard];
    common::MutexLock lock(sh.mu);
    std::vector<K> out;
    out.reserve(sh.map.size());
    for (const Node* n = sh.head; n != nullptr; n = n->next)
      out.push_back(*n->key);
    return out;
  }

  void clear() {
    for (std::size_t i = 0; i <= mask_; ++i) {
      Shard& sh = shards_[i];
      common::MutexLock lock(sh.mu);
      sh.map.clear();
      sh.head = sh.tail = nullptr;
      sh.bytes = 0;
    }
  }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const Options& options() const { return options_; }

 private:
  struct Node {
    V value{};
    const K* key = nullptr;  ///< points at the owning map entry's key
    std::size_t charge = 0;
    std::uint64_t expires_at = 0;  ///< 0 = never
    Node* prev = nullptr;          ///< towards MRU
    Node* next = nullptr;          ///< towards LRU
  };

  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::optional<V> value;
    std::exception_ptr error;
    std::atomic<bool> leader{true};  ///< claimed by the computing thread
  };

  /// One shard: map + intrusive LRU list + in-flight computations. Node
  /// addresses are stable because unordered_map never relocates elements.
  struct Shard {
    mutable common::Mutex mu;
    std::unordered_map<K, Node, Hash> map APAR_GUARDED_BY(mu);
    std::unordered_map<K, std::shared_ptr<InFlight>, Hash> inflight
        APAR_GUARDED_BY(mu);
    Node* head APAR_GUARDED_BY(mu) = nullptr;  ///< most recently used
    Node* tail APAR_GUARDED_BY(mu) = nullptr;  ///< least recently used
    std::size_t bytes APAR_GUARDED_BY(mu) = 0;
  };

  Shard& shard_for(const K& key) { return shards_[shard_of(key)]; }
  const Shard& shard_for(const K& key) const { return shards_[shard_of(key)]; }

  [[nodiscard]] bool lapsed(const Node& node) const {
    return node.expires_at != 0 && options_.now() >= node.expires_at;
  }

  /// Find a usable entry; reaps (and counts) a lapsed one. Caller holds
  /// the shard lock and accounts the hit/miss.
  Node* find_live(Shard& sh, const K& key) APAR_REQUIRES(sh.mu) {
    auto it = sh.map.find(key);
    if (it == sh.map.end()) return nullptr;
    if (lapsed(it->second)) {
      remove_node(sh, &it->second);
      stats_.expiries.add();
      return nullptr;
    }
    return &it->second;
  }

  void insert_locked(Shard& sh, const K& key, V value) APAR_REQUIRES(sh.mu) {
    const std::size_t charge = options_.size_of
                                   ? options_.size_of(key, value)
                                   : default_charge(key, value);
    auto [it, fresh] = sh.map.try_emplace(key);
    Node& node = it->second;
    if (!fresh) {
      sh.bytes -= node.charge;
      unlink(sh, &node);
    }
    node.value = std::move(value);
    node.key = &it->first;
    node.charge = charge;
    node.expires_at =
        options_.ttl.count() > 0
            ? options_.now() + static_cast<std::uint64_t>(options_.ttl.count())
            : 0;
    link_front(sh, &node);
    sh.bytes += charge;
    stats_.inserts.add();
    while (sh.map.size() > cap_entries_ ||
           (cap_bytes_ != 0 && sh.bytes > cap_bytes_)) {
      Node* victim = sh.tail;
      remove_node(sh, victim);
      stats_.evictions.add();
      if (sh.map.empty()) break;
    }
  }

  /// Unlink + erase from the map; caller accounts the removal reason.
  void remove_node(Shard& sh, Node* node) APAR_REQUIRES(sh.mu) {
    unlink(sh, node);
    sh.bytes -= node->charge;
    sh.map.erase(*node->key);
  }

  void touch(Shard& sh, Node* node) APAR_REQUIRES(sh.mu) {
    if (sh.head == node) return;
    unlink(sh, node);
    link_front(sh, node);
  }

  void link_front(Shard& sh, Node* node) APAR_REQUIRES(sh.mu) {
    node->prev = nullptr;
    node->next = sh.head;
    if (sh.head != nullptr) sh.head->prev = node;
    sh.head = node;
    if (sh.tail == nullptr) sh.tail = node;
  }

  void unlink(Shard& sh, Node* node) APAR_REQUIRES(sh.mu) {
    if (node->prev != nullptr) node->prev->next = node->next;
    if (node->next != nullptr) node->next->prev = node->prev;
    if (sh.head == node) sh.head = node->next;
    if (sh.tail == node) sh.tail = node->prev;
    node->prev = node->next = nullptr;
  }

  void count_hit() {
    stats_.hits.add();
  }
  void count_miss() {
    stats_.misses.add();
  }

  Options options_;
  std::size_t mask_ = 0;
  std::size_t cap_entries_ = 1;
  std::size_t cap_bytes_ = 0;
  std::unique_ptr<Shard[]> shards_;
  CacheStats stats_;
  // Last: unlisted before the shards their levels read are destroyed.
  obs::Export entries_export_;
  obs::Export bytes_export_;
};

}  // namespace apar::cache
