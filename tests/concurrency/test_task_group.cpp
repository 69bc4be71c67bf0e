#include "apar/concurrency/task_group.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>

#include "apar/concurrency/thread_pool.hpp"
#include "apar/obs/trace_context.hpp"

namespace acc = apar::concurrency;
namespace obs = apar::obs;

namespace {

/// Threads of this process, as the kernel lists them.
std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

/// Threads that have run a task of these tests and then exited: a
/// thread_local's destructor runs as its thread exits, so a joined
/// thread has always been counted.
std::atomic<int> g_thread_exits{0};
struct ExitProbe {
  bool armed = false;
  ~ExitProbe() {
    if (armed) g_thread_exits.fetch_add(1);
  }
};
thread_local ExitProbe t_exit_probe;

/// Spawns `n` calls that each record their thread and hold it until all
/// `n` have started (or a 10 s deadline passes), so `n` distinct threads
/// must run them at once. Returns how many distinct threads did.
std::size_t spawn_blocked(acc::TaskGroup& group, std::size_t n,
                          bool arm_exit_probe = false) {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t started = 0;
  std::set<std::thread::id> ids;
  for (std::size_t i = 0; i < n; ++i)
    group.spawn([&] {
      if (arm_exit_probe) t_exit_probe.armed = true;
      std::unique_lock lock(mu);
      ids.insert(std::this_thread::get_id());
      if (++started == n) cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(10), [&] { return started == n; });
    });
  group.wait();
  return ids.size();
}

bool poll_until(std::chrono::steady_clock::duration limit,
                const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

}  // namespace

TEST(TaskGroup, WaitJoinsSpawnedThreads) {
  acc::TaskGroup group;
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i)
    group.spawn([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++count;
    });
  group.wait();
  EXPECT_EQ(count.load(), 20);
  EXPECT_EQ(group.outstanding(), 0u);
}

TEST(TaskGroup, TasksMaySpawnTasks) {
  acc::TaskGroup group;
  std::atomic<int> count{0};
  group.spawn([&] {
    ++count;
    group.spawn([&] {
      ++count;
      group.spawn([&] { ++count; });
    });
  });
  group.wait();
  EXPECT_EQ(count.load(), 3);
}

TEST(TaskGroup, WaitRethrowsFirstException) {
  acc::TaskGroup group;
  group.spawn([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(TaskGroup, ReusableAfterWait) {
  acc::TaskGroup group;
  std::atomic<int> count{0};
  group.spawn([&] { ++count; });
  group.wait();
  group.spawn([&] { ++count; });
  group.wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(TaskGroup, ErrorClearedAfterRethrow) {
  acc::TaskGroup group;
  group.spawn([] { throw std::runtime_error("once"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
  group.spawn([] {});
  EXPECT_NO_THROW(group.wait());
}

TEST(TaskGroup, RunOnPoolIsTracked) {
  acc::ThreadPool pool(2);
  acc::TaskGroup group;
  std::atomic<int> count{0};
  for (int i = 0; i < 30; ++i)
    group.run_on(pool, [&] { ++count; });
  group.wait();
  EXPECT_EQ(count.load(), 30);
}

TEST(TaskGroup, RunOnPropagatesException) {
  acc::ThreadPool pool(1);
  acc::TaskGroup group;
  group.run_on(pool, [] { throw std::logic_error("pool task failed"); });
  EXPECT_THROW(group.wait(), std::logic_error);
}

TEST(TaskGroup, ManualEnterLeave) {
  acc::TaskGroup group;
  group.enter();
  EXPECT_EQ(group.outstanding(), 1u);
  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    group.leave();
  });
  group.wait();
  EXPECT_EQ(group.outstanding(), 0u);
  t.join();
}

TEST(TaskGroup, ManualLeaveWithError) {
  acc::TaskGroup group;
  group.enter();
  group.leave(std::make_exception_ptr(std::runtime_error("manual")));
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(TaskGroup, WaitOnEmptyGroupReturnsImmediately) {
  acc::TaskGroup group;
  EXPECT_NO_THROW(group.wait());
}

TEST(TaskGroup, DestructorJoinsOutstandingWork) {
  std::atomic<int> count{0};
  {
    acc::TaskGroup group;
    for (int i = 0; i < 5; ++i)
      group.spawn([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ++count;
      });
  }
  EXPECT_EQ(count.load(), 5);
}

TEST(TaskGroupBatch, BatchScopeDefersAndFlushesRunOn) {
  acc::ThreadPool pool(2);
  acc::TaskGroup group;
  std::atomic<int> ran{0};
  {
    acc::TaskGroup::BatchScope batch(group);
    for (int i = 0; i < 10; ++i)
      group.run_on(pool, [&] { ran.fetch_add(1, std::memory_order_relaxed); });
    // Accounting is live even while the tasks are still batched.
    EXPECT_EQ(group.outstanding(), 10u);
  }
  group.wait();
  EXPECT_EQ(ran.load(), 10);
}

TEST(TaskGroupBatch, ExplicitFlushSubmitsEarly) {
  acc::ThreadPool pool(2);
  acc::TaskGroup group;
  std::atomic<int> ran{0};
  acc::TaskGroup::BatchScope batch(group);
  for (int i = 0; i < 4; ++i)
    group.run_on(pool, [&] { ran.fetch_add(1, std::memory_order_relaxed); });
  batch.flush();
  group.wait();  // must not deadlock: flush() already submitted the batch
  EXPECT_EQ(ran.load(), 4);
}

TEST(TaskGroupBatch, DifferentGroupBypassesTheScope) {
  acc::ThreadPool pool(2);
  acc::TaskGroup batched;
  acc::TaskGroup direct;
  std::atomic<int> ran{0};
  {
    acc::TaskGroup::BatchScope batch(batched);
    // run_on against a DIFFERENT group must not be captured by the scope.
    direct.run_on(pool, [&] { ran.fetch_add(1, std::memory_order_relaxed); });
    direct.wait();  // completes while the scope is still open
    EXPECT_EQ(ran.load(), 1);
  }
  batched.wait();
}

TEST(TaskGroupBatch, ExceptionsInsideBatchedTasksStillPropagate) {
  acc::ThreadPool pool(2);
  acc::TaskGroup group;
  {
    acc::TaskGroup::BatchScope batch(group);
    group.run_on(pool, [] { throw std::runtime_error("batched boom"); });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(TaskGroupBatch, FlushRunsInlineWhenPoolIsShuttingDown) {
  // A batch flushed against a pool that is shutting down must run its
  // tasks inline instead of losing them (bulk_post is all-or-nothing).
  // Arrange that from inside a worker task, which keeps running while the
  // destructor drains: once post() starts throwing, the pool is stopping.
  acc::TaskGroup group;
  std::atomic<int> ran{0};
  std::atomic<bool> entered{false};
  {
    acc::ThreadPool pool(1);
    pool.post([&] {
      entered.store(true, std::memory_order_release);
      for (;;) {
        try {
          pool.post([] {});
        } catch (const std::runtime_error&) {
          break;  // shutdown observed
        }
        std::this_thread::yield();
      }
      acc::TaskGroup::BatchScope batch(group);
      group.run_on(pool,
                   [&] { ran.fetch_add(1, std::memory_order_relaxed); });
      group.run_on(pool,
                   [&] { ran.fetch_add(1, std::memory_order_relaxed); });
      // Scope closes here: bulk_post throws (stopping) and the batch runs
      // inline on this worker thread.
    });
    while (!entered.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  group.wait();
  EXPECT_EQ(ran.load(), 2);
}

// ---- the parked-thread cache ---------------------------------------------

TEST(TaskGroup, BlockedCallsRunOnDistinctThreadsAtOnce) {
  // Thread-per-call stays unbounded: parked threads are reused, and every
  // call beyond them gets a new thread; nothing queues behind a busy one.
  acc::TaskGroup group;
  EXPECT_EQ(spawn_blocked(group, 8), 8u);  // leaves 8 threads parked
  EXPECT_EQ(spawn_blocked(group, 64), 64u);
}

TEST(TaskGroup, FortyThousandShortSpawnsBeforeWaitSucceed) {
  // Finished threads must not pile up until wait(): 40,000 of them exceed
  // the process's mapping limit (~32.7k threads at vm.max_map_count 65,530).
  acc::TaskGroup group;
  std::atomic<int> ran{0};
  for (int i = 0; i < 40'000; ++i)
    group.spawn([&] { ran.fetch_add(1, std::memory_order_relaxed); });
  group.wait();
  EXPECT_EQ(ran.load(), 40'000);
}

TEST(TaskGroup, ReusesTheMostRecentlyParkedThread) {
  acc::TaskGroup group;
  std::atomic<bool> release_first{false};
  std::atomic<bool> release_second{false};
  std::thread::id first, second, next;
  group.spawn([&] {
    first = std::this_thread::get_id();
    while (!release_first) std::this_thread::yield();
  });
  group.spawn([&] {
    second = std::this_thread::get_id();
    while (!release_second) std::this_thread::yield();
  });
  release_first = true;
  // A call counts as finished in the same critical section that parks its
  // thread, so once one call is outstanding the first thread is parked.
  ASSERT_TRUE(poll_until(std::chrono::seconds(10),
                         [&] { return group.outstanding() == 1; }));
  release_second = true;
  group.wait();
  ASSERT_NE(first, second);
  group.spawn([&] { next = std::this_thread::get_id(); });
  group.wait();
  EXPECT_EQ(next, second);
}

TEST(TaskGroup, ReusedThreadStartsWithoutTraceContext) {
  acc::TaskGroup group;
  std::unique_ptr<obs::SpanScope> leaked;
  std::thread::id first, second;
  group.spawn([&] {
    first = std::this_thread::get_id();
    leaked = std::make_unique<obs::SpanScope>();  // never closed here
  });
  group.wait();
  bool inherited = true;
  group.spawn([&] {
    second = std::this_thread::get_id();
    inherited = obs::current_context().valid();
    leaked.reset();
  });
  group.wait();
  ASSERT_EQ(first, second);
  EXPECT_FALSE(inherited);
}

TEST(TaskGroup, WaitReleasesEveryCapture) {
  acc::TaskGroup group;
  auto shared = std::make_shared<int>(0);
  for (int round = 0; round < 3; ++round) {  // new threads, then reused ones
    for (int i = 0; i < 16; ++i)
      group.spawn([shared] { std::this_thread::yield(); });
    group.spawn([shared] { throw std::runtime_error("capture and throw"); });
    EXPECT_THROW(group.wait(), std::runtime_error);
    EXPECT_EQ(shared.use_count(), 1) << "round " << round;
  }
}

TEST(TaskGroup, DestructorJoinsParkedThreads) {
  const std::size_t before = thread_count();
  const int exits = g_thread_exits.load();
  std::optional<acc::TaskGroup> group(std::in_place);
  ASSERT_EQ(spawn_blocked(*group, 8, /*arm_exit_probe=*/true), 8u);
  EXPECT_EQ(thread_count(), before + 8);  // parked, not exited
  EXPECT_EQ(g_thread_exits.load(), exits);
  const auto t0 = std::chrono::steady_clock::now();
  group.reset();
  const auto teardown = std::chrono::steady_clock::now() - t0;
  // Joined, not left to time out: every thread has exited.
  EXPECT_EQ(g_thread_exits.load(), exits + 8);
  EXPECT_LT(teardown, acc::TaskGroup::kIdleTimeout);
  EXPECT_TRUE(poll_until(std::chrono::seconds(5),
                         [&] { return thread_count() == before; }));
}

TEST(TaskGroup, IdleThreadsExitAfterTheTimeout) {
  acc::TaskGroup group;
  const std::size_t before = thread_count();
  const int exits = g_thread_exits.load();
  ASSERT_EQ(spawn_blocked(group, 8, /*arm_exit_probe=*/true), 8u);
  EXPECT_EQ(thread_count(), before + 8);
  EXPECT_TRUE(poll_until(acc::TaskGroup::kIdleTimeout + std::chrono::seconds(10),
                         [&] {
                           return thread_count() == before &&
                                  g_thread_exits.load() == exits + 8;
                         }));
  // The group creates threads again once its cache has emptied.
  EXPECT_EQ(spawn_blocked(group, 2), 2u);
}

// ---- a spawn that cannot create its thread ---------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define APAR_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define APAR_TEST_SANITIZED 1
#endif
#endif

namespace {

std::size_t vm_size_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmSize:", 0) == 0)
      return std::stoull(line.substr(7)) * 1024;  // reported in kB
  return 0;
}

/// The forked child's half of FailedSpawnLeavesTheGroupUsable: 0 when every
/// expectation holds, else the number of the first that failed.
int failed_spawn_child() {
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  acc::TaskGroup group;
  rlimit original{};
  if (getrlimit(RLIMIT_AS, &original) != 0) return 10;
  // Room for small allocations but not for another thread's stack. The
  // group keeps every thread busy, so each spawn needs a new one, and the
  // few stacks glibc keeps cached run out quickly.
  rlimit low = original;
  low.rlim_cur = vm_size_bytes() + (4u << 20);
  if (setrlimit(RLIMIT_AS, &low) != 0) return 11;
  int outcome = 1;  // no spawn failed
  for (int i = 0; i < 256 && outcome == 1; ++i) {
    try {
      group.spawn([&] {
        while (!release)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
      });
    } catch (const std::system_error&) {
      outcome = 0;
    } catch (...) {
      outcome = 4;  // failed, but not as std::system_error
    }
  }
  release = true;
  if (outcome != 0) return outcome;
  group.wait();  // a leaked count would block here for ever
  if (group.outstanding() != 0) return 2;
  if (setrlimit(RLIMIT_AS, &original) != 0) return 12;
  for (int i = 0; i < 4; ++i) group.spawn([&] { ran.fetch_add(1); });
  group.wait();
  return ran.load() == 4 ? 0 : 3;
}

}  // namespace

TEST(TaskGroup, FailedSpawnLeavesTheGroupUsable) {
#ifdef APAR_TEST_SANITIZED
  GTEST_SKIP() << "sanitizers reserve address space RLIMIT_AS would cut off";
#else
  std::fflush(nullptr);
  const pid_t child = fork();
  ASSERT_NE(child, -1);
  if (child == 0) _exit(failed_spawn_child());
  int status = 0;
  const bool exited = poll_until(std::chrono::seconds(60), [&] {
    return waitpid(child, &status, WNOHANG) == child;
  });
  if (!exited) {
    kill(child, SIGKILL);
    waitpid(child, &status, 0);
    FAIL() << "the child hung after a failed spawn";
  }
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: no spawn failed; 2: the failed call stayed counted; "
         "3: the group did not run later calls; 4: spawn failed with "
         "another exception; 1x: rlimit set-up";
#endif
}
