// Unit tests for the sharded concurrent LRU: deterministic single-thread
// behaviour — recency order, entry/byte bounds, TTL reaping, counter
// exactness. The model-based fuzz harness (test_cache_model.cpp) replays
// the same rules at scale; these tests pin each rule individually.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "apar/cache/sharded_lru.hpp"

namespace cache = apar::cache;

namespace {

using Lru = cache::ShardedLru<std::string, std::string>;

/// One shard and a fixed charge of 10 bytes per entry: every structural
/// rule becomes exactly predictable.
Lru::Options single_shard(std::size_t max_entries, std::size_t max_bytes = 0) {
  Lru::Options o;
  o.shards = 1;
  o.max_entries = max_entries;
  o.max_bytes = max_bytes;
  o.size_of = [](const std::string&, const std::string&) {
    return std::size_t{10};
  };
  return o;
}

}  // namespace

TEST(ShardedLru, MissThenPutThenHit) {
  Lru lru(single_shard(4));
  EXPECT_FALSE(lru.get("a").has_value());
  lru.put("a", "1");
  const auto v = lru.get("a");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "1");

  const auto s = lru.stats().snapshot();
  EXPECT_EQ(s.gets, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.inserts, 1u);
}

TEST(ShardedLru, EvictsLeastRecentlyUsed) {
  Lru lru(single_shard(3));
  lru.put("a", "1");
  lru.put("b", "2");
  lru.put("c", "3");
  // Freshen "a": the LRU tail is now "b".
  ASSERT_TRUE(lru.get("a").has_value());
  lru.put("d", "4");

  EXPECT_FALSE(lru.peek("b"));
  EXPECT_TRUE(lru.peek("a"));
  EXPECT_TRUE(lru.peek("c"));
  EXPECT_TRUE(lru.peek("d"));
  EXPECT_EQ(lru.stats().snapshot().evictions, 1u);

  // MRU-first recency order.
  const auto keys = lru.keys_in(0);
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "d");
  EXPECT_EQ(keys[1], "a");
  EXPECT_EQ(keys[2], "c");
}

TEST(ShardedLru, OverwriteMovesToFrontAndCountsInsert) {
  Lru lru(single_shard(3));
  lru.put("a", "1");
  lru.put("b", "2");
  lru.put("a", "one");  // overwrite: "a" becomes MRU, still 2 entries
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.stats().snapshot().inserts, 3u);
  EXPECT_EQ(lru.keys_in(0).front(), "a");
  EXPECT_EQ(*lru.get("a"), "one");
}

TEST(ShardedLru, ByteBoundEvictsFromTail) {
  // 10 bytes per entry, 25-byte budget: the third insert is over budget
  // and evicts the tail.
  Lru lru(single_shard(100, 25));
  lru.put("a", "1");
  lru.put("b", "2");
  EXPECT_EQ(lru.bytes(), 20u);
  lru.put("c", "3");
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_FALSE(lru.peek("a"));
  EXPECT_EQ(lru.stats().snapshot().evictions, 1u);
}

TEST(ShardedLru, OversizedEntryEvictsItself) {
  Lru::Options o = single_shard(100, 5);  // every 10-byte entry is oversized
  Lru lru(o);
  lru.put("a", "1");
  // Inserted, then immediately evicted to honour the byte bound: the
  // deterministic "shard ends empty" rule the model test replays.
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_EQ(lru.bytes(), 0u);
  const auto s = lru.stats().snapshot();
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.evictions, 1u);
}

TEST(ShardedLru, TtlExpiresOnLookup) {
  std::uint64_t now = 0;
  Lru::Options o = single_shard(4);
  o.ttl = std::chrono::nanoseconds(100);
  o.now = [&now] { return now; };
  Lru lru(o);

  lru.put("a", "1");
  now = 99;
  EXPECT_TRUE(lru.get("a").has_value());  // still live
  now = 100;
  EXPECT_FALSE(lru.get("a").has_value());  // lapsed: reaped, miss
  const auto s = lru.stats().snapshot();
  EXPECT_EQ(s.expiries, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(lru.size(), 0u);
}

TEST(ShardedLru, TtlRefreshedByOverwriteNotByGet) {
  std::uint64_t now = 0;
  Lru::Options o = single_shard(4);
  o.ttl = std::chrono::nanoseconds(100);
  o.now = [&now] { return now; };
  Lru lru(o);

  lru.put("a", "1");
  now = 60;
  EXPECT_TRUE(lru.get("a").has_value());  // read does NOT extend the TTL
  now = 100;
  EXPECT_FALSE(lru.get("a").has_value());

  lru.put("b", "2");       // expires at 200
  now = 150;
  lru.put("b", "2b");      // overwrite: expiry pushed to 250
  now = 220;
  EXPECT_TRUE(lru.get("b").has_value());
}

TEST(ShardedLru, EraseCountsEraseEvenWhenExpired) {
  std::uint64_t now = 0;
  Lru::Options o = single_shard(4);
  o.ttl = std::chrono::nanoseconds(10);
  o.now = [&now] { return now; };
  Lru lru(o);

  lru.put("a", "1");
  now = 50;  // "a" lapsed but not yet reaped (no lookup touched it)
  EXPECT_TRUE(lru.erase("a"));
  EXPECT_FALSE(lru.erase("a"));
  const auto s = lru.stats().snapshot();
  EXPECT_EQ(s.erases, 1u);
  EXPECT_EQ(s.expiries, 0u);
}

TEST(ShardedLru, PeekHasNoSideEffects) {
  Lru lru(single_shard(2));
  lru.put("a", "1");
  lru.put("b", "2");
  EXPECT_TRUE(lru.peek("a"));
  // peek must not have freshened "a": it is still the LRU tail.
  lru.put("c", "3");
  EXPECT_FALSE(lru.peek("a"));
  const auto s = lru.stats().snapshot();
  EXPECT_EQ(s.gets, 0u);
  EXPECT_EQ(s.hits, 0u);
}

TEST(ShardedLru, ShardingSplitsCapacityCeil) {
  Lru::Options o;
  o.shards = 3;  // rounded up to 4
  o.max_entries = 10;
  Lru lru(o);
  EXPECT_EQ(lru.shard_count(), 4u);
  EXPECT_EQ(lru.shard_entry_capacity(), 3u);  // ceil(10/4)
  // Keys land on the shard shard_of says they do.
  lru.put("k", "v");
  EXPECT_EQ(lru.entries_in(lru.shard_of("k")), 1u);
}

TEST(ShardedLru, ClearResetsEntriesAndBytes) {
  Lru lru(single_shard(8));
  lru.put("a", "1");
  lru.put("b", "2");
  lru.clear();
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_EQ(lru.bytes(), 0u);
  EXPECT_FALSE(lru.peek("a"));
}

TEST(ShardedLru, DefaultChargeCountsDynamicPayload) {
  const std::string key(3, 'k');
  const std::string value(40, 'v');
  EXPECT_EQ(Lru::default_charge(key, value),
            sizeof(std::string) * 2 + 3 + 40);
}

TEST(ShardedLru, GetOrComputeCachesSuccessAndSkipsRecompute) {
  Lru lru(single_shard(4));
  int computed = 0;
  const auto compute = [&computed] {
    ++computed;
    return std::string("value");
  };
  EXPECT_EQ(lru.get_or_compute("k", compute), "value");
  EXPECT_EQ(lru.get_or_compute("k", compute), "value");
  EXPECT_EQ(computed, 1);
  const auto s = lru.stats().snapshot();
  EXPECT_EQ(s.gets, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
}

TEST(ShardedLru, GetOrComputeNeverCachesErrors) {
  Lru lru(single_shard(4));
  int calls = 0;
  const auto failing = [&calls]() -> std::string {
    ++calls;
    throw std::runtime_error("transient");
  };
  EXPECT_THROW(lru.get_or_compute("k", failing), std::runtime_error);
  EXPECT_FALSE(lru.peek("k"));
  // The failure did not poison the key: the next call recomputes.
  int ok_calls = 0;
  EXPECT_EQ(lru.get_or_compute("k",
                               [&ok_calls] {
                                 ++ok_calls;
                                 return std::string("fine");
                               }),
            "fine");
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ok_calls, 1);
  EXPECT_EQ(lru.stats().snapshot().inserts, 1u);
}

TEST(ShardedLru, StatsInvariantGetsSplitExactly) {
  Lru lru(single_shard(2));
  for (int i = 0; i < 50; ++i) {
    const std::string k = "k" + std::to_string(i % 5);
    if (i % 3 == 0) lru.put(k, "v");
    (void)lru.get(k);
  }
  const auto s = lru.stats().snapshot();
  EXPECT_EQ(s.gets, s.hits + s.misses + s.coalesced);
}

TEST(ShardedLru, ExportedSeriesAreTheCacheCounters) {
  // One mechanism: cache.<field>{cache} is read from the counters stats()
  // reports, so the exactness invariant holds in a scrape too, and the
  // entries/bytes levels track the live contents.
  auto& registry = apar::obs::MetricsRegistry::global();
  Lru::Options o = single_shard(2);
  o.name = "export-test";
  const apar::obs::Labels labels{{"cache", "export-test"}};
  Lru lru(o);
  for (int i = 0; i < 30; ++i) {
    const std::string k = "k" + std::to_string(i % 4);
    if (i % 3 == 0) lru.put(k, "v");
    (void)lru.get(k);
  }
  const auto s = lru.stats().snapshot();
  s.for_each([&](std::string_view field, std::uint64_t value) {
    EXPECT_EQ(registry.value("cache." + std::string(field), labels),
              static_cast<std::int64_t>(value))
        << field;
  });
  EXPECT_EQ(registry.value("cache.gets", labels),
            registry.value("cache.hits", labels) +
                registry.value("cache.misses", labels) +
                registry.value("cache.coalesced", labels));
  EXPECT_EQ(registry.value("cache.entries", labels),
            static_cast<std::int64_t>(lru.size()));
  EXPECT_EQ(registry.value("cache.bytes", labels),
            static_cast<std::int64_t>(lru.bytes()));
}
