// The one counter mechanism: a component's counter set is both the exact
// in-process count and the registry export — a scrape reads the same
// atomics — and the series stays monotonic after the component is gone.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apar/obs/counters.hpp"

namespace obs = apar::obs;

namespace {

#define TEST_WIDGET_FIELDS(X) X(made) X(broken) X(bytes)
APAR_OBS_COUNTER_SET(WidgetStats, TEST_WIDGET_FIELDS);

}  // namespace

TEST(CounterSet, SnapshotArithmeticAndFieldOrder) {
  WidgetStats stats;
  stats.made.add(3);
  stats.broken.add();
  stats.bytes.add(40);
  const WidgetStats::Snapshot a = stats.snapshot();
  EXPECT_EQ(a.made, 3u);
  EXPECT_EQ(a.broken, 1u);
  EXPECT_EQ(a.bytes, 40u);

  stats.made.add(2);
  const WidgetStats::Snapshot b = stats.snapshot();
  const WidgetStats::Snapshot delta = b - a;
  EXPECT_EQ(delta.made, 2u);
  EXPECT_EQ(delta.broken, 0u);
  EXPECT_EQ(a + delta, b);

  std::vector<std::pair<std::string, std::uint64_t>> seen;
  b.for_each([&](std::string_view name, std::uint64_t v) {
    seen.emplace_back(std::string(name), v);
  });
  const std::vector<std::pair<std::string, std::uint64_t>> want{
      {"made", 5}, {"broken", 1}, {"bytes", 40}};
  EXPECT_EQ(seen, want);
}

TEST(CounterSet, ExportReadsTheSameAtomics) {
  obs::MetricsRegistry registry;
  WidgetStats stats;
  stats.export_as("widget", {{"line", "a"}}, registry);
  EXPECT_EQ(registry.value("widget.made", {{"line", "a"}}), 0);
  stats.made.add(7);
  stats.bytes.add(100);
  EXPECT_EQ(registry.value("widget.made", {{"line", "a"}}), 7);
  EXPECT_EQ(registry.value("widget.bytes", {{"line", "a"}}), 100);

  std::int64_t from_snapshot = -1;
  for (const auto& m : registry.snapshot())
    if (m.name == "widget.made") from_snapshot = m.value;
  EXPECT_EQ(from_snapshot, 7);
  EXPECT_NE(registry.to_json().find("\"widget.broken\""), std::string::npos);
}

TEST(CounterSet, SameSeriesSumsLiveAndRetiredExporters) {
  obs::MetricsRegistry registry;
  auto first = std::make_unique<WidgetStats>();
  first->export_as("widget", {}, registry);
  WidgetStats second;
  second.export_as("widget", {}, registry);
  first->made.add(4);
  second.made.add(1);
  EXPECT_EQ(registry.value("widget.made"), 5);

  // A destroyed component's final count stays: rates never go negative.
  first.reset();
  EXPECT_EQ(registry.value("widget.made"), 5);
  second.made.add(2);
  EXPECT_EQ(registry.value("widget.made"), 7);
  EXPECT_EQ(second.made.value(), 3u);  // the set itself stays exact
}

TEST(CounterSet, KindClashRollsBackTheWholeSet) {
  obs::MetricsRegistry registry;
  registry.gauge("widget.broken");
  WidgetStats stats;
  EXPECT_THROW(stats.export_as("widget", {}, registry), std::logic_error);
  stats.made.add(9);
  // Nothing of the failed export is listed, so nothing can dangle.
  EXPECT_EQ(registry.value("widget.made"), 0);
}

TEST(CounterSet, ExportedLevelFollowsItsSourceAndLeavesWithIt) {
  obs::MetricsRegistry registry;
  std::int64_t depth = 3;
  {
    obs::Export level =
        registry.export_gauge("widget.depth", {}, [&] { return depth; });
    EXPECT_EQ(registry.value("widget.depth"), 3);
    depth = 5;
    EXPECT_EQ(registry.value("widget.depth"), 5);
  }
  EXPECT_EQ(registry.value("widget.depth"), 0);
}

TEST(CounterSet, ConcurrentIncrementsAreExactInBothViews) {
  obs::MetricsRegistry registry;
  WidgetStats stats;
  stats.export_as("widget", {}, registry);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) stats.made.add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(stats.made.value(), std::uint64_t{kThreads * kPerThread});
  EXPECT_EQ(registry.value("widget.made"), kThreads * kPerThread);
}

TEST(MetricsHold, KeepsTheSwitchOnWhileAlive) {
  obs::set_metrics_enabled(false);
  EXPECT_FALSE(obs::metrics_enabled());
  {
    obs::MetricsHold outer;
    EXPECT_TRUE(obs::metrics_enabled());
    {
      obs::MetricsHold inner;
      EXPECT_TRUE(obs::metrics_enabled());
    }
    EXPECT_TRUE(obs::metrics_enabled());
    // An explicit switch-off does not cut a holder short.
    obs::set_metrics_enabled(false);
    EXPECT_TRUE(obs::metrics_enabled());
  }
  EXPECT_FALSE(obs::metrics_enabled());
}
