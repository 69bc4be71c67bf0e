// Seeded stress for TaskGroup's parked-thread cache: nested spawns from
// several threads into one group, wait() racing thread reuse, throwing
// tasks, groups destroyed with threads parked, and spawns racing an idle
// thread's timeout exit. Designed to run under APAR_SANITIZE=thread|address
// (tools/run_stress.sh); every call is counted, so a lost or repeated call
// fails and a lost wake-up hangs into the test timeout.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apar/common/stress.hpp"
#include "apar/concurrency/task_group.hpp"
#include "stress_common.hpp"

namespace {

using apar::common::rng_at;
using apar::concurrency::TaskGroup;

struct Tally {
  std::atomic<std::uint64_t> planned{0};
  std::atomic<std::uint64_t> ran{0};
  std::atomic<std::uint64_t> threw{0};
};

/// Spawn a seeded tree of calls into `group`: each call may spin, sleep,
/// throw (when `throw_percent` > 0) and spawn up to three children. The
/// shape is a pure function of (seed, node), not of the interleaving.
void spawn_tree(TaskGroup& group, Tally& tally, std::uint64_t seed,
                std::uint64_t node, int depth, int throw_percent,
                const std::shared_ptr<int>& capture) {
  tally.planned.fetch_add(1, std::memory_order_relaxed);
  group.spawn([&group, &tally, seed, node, depth, throw_percent, capture] {
    auto rng = rng_at(seed, node);
    tally.ran.fetch_add(1, std::memory_order_relaxed);
    switch (rng.uniform(0, 3)) {
      case 0:
        std::this_thread::yield();
        break;
      case 1:
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.uniform(1, 200)));
        break;
      default:
        break;
    }
    if (depth > 0) {
      const auto children = rng.uniform(0, 3);
      for (std::uint64_t c = 0; c < children; ++c)
        spawn_tree(group, tally, seed, node * 4 + 1 + c, depth - 1,
                   throw_percent, capture);
    }
    if (throw_percent > 0 &&
        rng.uniform(0, 99) < static_cast<std::uint64_t>(throw_percent)) {
      tally.threw.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("seeded task failure");
    }
  });
}

/// Several producer threads each spawn `trees` seeded trees into `group`.
void produce(TaskGroup& group, Tally& tally, std::uint64_t seed, int round,
             int producers, int trees, int throw_percent,
             const std::shared_ptr<int>& capture) {
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p)
    threads.emplace_back([&, p] {
      for (int t = 0; t < trees; ++t) {
        const auto root = (static_cast<std::uint64_t>(round) << 40) |
                          (static_cast<std::uint64_t>(p) << 32) |
                          (static_cast<std::uint64_t>(t) << 20);
        spawn_tree(group, tally, seed, root, 3, throw_percent, capture);
      }
    });
  for (auto& t : threads) t.join();
}

TEST(StressTaskGroup, NestedSpawnsFromManyThreadsRunExactlyOnce) {
  const std::uint64_t seed = apar::test::announce_stress_seed(0x7A56ULL);
  TaskGroup group;
  Tally tally;
  auto capture = std::make_shared<int>(0);
  for (int round = 0; round < 6; ++round) {
    produce(group, tally, seed, round, 4, 6, 0, capture);
    group.wait();
    ASSERT_EQ(tally.ran.load(), tally.planned.load()) << "round " << round;
    ASSERT_EQ(capture.use_count(), 1) << "round " << round;
  }
}

TEST(StressTaskGroup, WaitRacesThreadReuse) {
  // Waiters return whenever the count touches zero, while producers keep
  // handing calls to threads that are parking at that very moment.
  const std::uint64_t seed = apar::test::announce_stress_seed(0x3A17ULL);
  TaskGroup group;
  Tally tally;
  auto capture = std::make_shared<int>(0);
  std::atomic<bool> producing{true};
  std::atomic<std::uint64_t> waits{0};
  std::vector<std::thread> waiters;
  for (int w = 0; w < 2; ++w)
    waiters.emplace_back([&] {
      while (producing.load()) {
        group.wait();
        waits.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      }
    });
  for (int round = 0; round < 6; ++round)
    produce(group, tally, seed, round, 3, 4, 0, capture);
  producing = false;
  for (auto& w : waiters) w.join();
  group.wait();
  EXPECT_EQ(tally.ran.load(), tally.planned.load());
  EXPECT_EQ(capture.use_count(), 1);
  EXPECT_GT(waits.load(), 0u);
}

TEST(StressTaskGroup, ThrowingTasksSurfaceAtWait) {
  const std::uint64_t seed = apar::test::announce_stress_seed(0x7E40ULL);
  TaskGroup group;
  auto capture = std::make_shared<int>(0);
  for (int round = 0; round < 6; ++round) {
    Tally tally;
    produce(group, tally, seed, round, 3, 4, 10, capture);
    bool surfaced = false;
    try {
      group.wait();
    } catch (const std::runtime_error&) {
      surfaced = true;
    }
    ASSERT_EQ(tally.ran.load(), tally.planned.load()) << "round " << round;
    ASSERT_EQ(surfaced, tally.threw.load() > 0) << "round " << round;
    ASSERT_EQ(capture.use_count(), 1) << "round " << round;
  }
}

TEST(StressTaskGroup, GroupsDestroyedWithThreadsParked) {
  const std::uint64_t seed = apar::test::announce_stress_seed(0xDE57ULL);
  for (int round = 0; round < 8; ++round) {
    Tally tally;
    auto capture = std::make_shared<int>(0);
    {
      TaskGroup group;
      produce(group, tally, seed, round, 2, 4, 0, capture);
      // Every other round leaves the calls running: the destructor waits
      // for them, then joins the parked threads.
      if (round % 2 == 0) group.wait();
    }
    ASSERT_EQ(tally.ran.load(), tally.planned.load()) << "round " << round;
    ASSERT_EQ(capture.use_count(), 1) << "round " << round;
  }
}

TEST(StressTaskGroup, SpawnsRaceIdleTimeoutExits) {
  // Park a set of threads, then spawn bursts from two threads at seeded
  // offsets around the moment those threads time out: each call must run
  // once, whether it lands on a thread that is leaving or on a new one.
  const std::uint64_t seed = apar::test::announce_stress_seed(0x1D1EULL);
  TaskGroup group;
  Tally tally;
  auto capture = std::make_shared<int>(0);
  for (int round = 0; round < 3; ++round) {
    produce(group, tally, seed, round, 2, 8, 0, capture);
    group.wait();
    auto rng = rng_at(seed, 1000 + static_cast<std::uint64_t>(round));
    const auto offset = std::chrono::milliseconds(rng.uniform(0, 40)) -
                        std::chrono::milliseconds(20);
    std::this_thread::sleep_for(TaskGroup::kIdleTimeout + offset);
    std::vector<std::thread> bursts;
    for (int b = 0; b < 2; ++b)
      bursts.emplace_back([&, b] {
        for (int i = 0; i < 40; ++i) {
          tally.planned.fetch_add(1, std::memory_order_relaxed);
          group.spawn([&tally, capture] {
            tally.ran.fetch_add(1, std::memory_order_relaxed);
          });
          std::this_thread::sleep_for(std::chrono::microseconds(500 + 100 * b));
        }
      });
    for (auto& t : bursts) t.join();
    group.wait();
    ASSERT_EQ(tally.ran.load(), tally.planned.load()) << "round " << round;
    ASSERT_EQ(capture.use_count(), 1) << "round " << round;
  }
}

}  // namespace
