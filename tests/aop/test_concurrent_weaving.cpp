// Thread-safety of the weaver itself: aspects plugged and unplugged while
// calls are in flight on other threads — the paper's "(un)plugged on the
// fly" claim under contention. Chains snapshot their advice (with
// keepalives), so a detach can never invalidate a running call.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "apar/aop/trace.hpp"
#include "apar/obs/trace_context.hpp"
#include "fixtures.hpp"

namespace aop = apar::aop;
using apar::test::Worker;

TEST(ConcurrentWeaving, ReusedThreadStartsEachCallWithEmptyAspectStack) {
  // An async continuation runs under the aspect stack of the call that
  // spawned it, plus the frames of the advice it runs, inside a trace
  // span. The group parks that thread afterwards; the next call it runs
  // must start as on a fresh thread: no frames and no trace context.
  aop::Context ctx;
  auto split = std::make_shared<aop::Aspect>("split");
  split->around_method<&Worker::process>(
      aop::order::kPartitionSplit, aop::Scope::core_only(), [](auto& inv) {
        // Issued inside split's frame: the continuation's snapshot is
        // non-empty.
        auto& [pack] = inv.args();
        inv.context().template call<&Worker::process>(inv.target(), pack);
      });
  auto async = std::make_shared<aop::Aspect>("async");
  async->around_method<&Worker::process>(
      aop::order::kConcurrencyAsync, aop::Scope::any(),
      [](auto& inv) { inv.context().tasks().spawn(inv.continuation()); });
  auto tracer = std::make_shared<aop::Tracer>();
  auto trace = std::make_shared<aop::TraceAspect<Worker>>(
      "Trace", tracer, aop::order::kConcurrencyAsync + 10);
  trace->trace_method<&Worker::process>();
  std::size_t frames_in_call = 0;
  bool traced_in_call = false;
  std::thread::id call_thread;
  auto probe = std::make_shared<aop::Aspect>("probe");
  probe->around_method<&Worker::process>(
      aop::order::kConcurrencyAsync + 20, aop::Scope::any(), [&](auto& inv) {
        frames_in_call = aop::detail::tls_aspect_stack().size();
        traced_in_call = apar::obs::current_context().valid();
        call_thread = std::this_thread::get_id();
        inv.proceed();
      });
  for (const auto& aspect :
       std::vector<std::shared_ptr<aop::Aspect>>{split, async, trace, probe})
    ctx.attach(aspect);

  auto w = ctx.create<Worker>(1);
  std::vector<int> pack{1};
  ctx.call<&Worker::process>(w, pack);
  ctx.quiesce();
  ASSERT_EQ(w.local()->packs_seen().size(), 1u);
  EXPECT_GE(frames_in_call, 3u);  // split, Trace, probe
  EXPECT_TRUE(traced_in_call);

  std::size_t frames_next = 1;
  bool traced_next = true;
  std::thread::id next_thread;
  ctx.tasks().spawn([&] {
    frames_next = aop::detail::tls_aspect_stack().size();
    traced_next = apar::obs::current_context().valid();
    next_thread = std::this_thread::get_id();
  });
  ctx.quiesce();
  ASSERT_EQ(next_thread, call_thread);  // the one parked thread
  EXPECT_EQ(frames_next, 0u);
  EXPECT_FALSE(traced_next);
}

TEST(ConcurrentWeaving, PlugUnplugWhileCallsRun) {
  aop::Context ctx;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> advised{0};

  // One worker object per caller thread: Worker itself is not thread safe
  // and no sync aspect is plugged — isolation is the test's business.
  constexpr int kCallers = 3;
  std::vector<aop::Ref<Worker>> workers;
  for (int t = 0; t < kCallers; ++t) workers.push_back(ctx.create<Worker>(t));

  std::vector<std::uint64_t> calls(kCallers, 0);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      while (!stop) {
        std::vector<int> pack{1};
        ctx.call<&Worker::process>(workers[static_cast<size_t>(t)], pack);
        ++calls[static_cast<size_t>(t)];
      }
    });
  }

  // Churn: attach/detach an advice-bearing aspect as fast as possible.
  for (int round = 0; round < 200; ++round) {
    auto aspect = std::make_shared<aop::Aspect>("churn");
    aspect->before_method<&Worker::process>(
        aop::order::kDefault, aop::Scope::any(),
        [&advised](auto&) { ++advised; });
    ctx.attach(aspect);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    ctx.detach("churn");
  }
  stop = true;
  for (auto& t : callers) t.join();

  // Every call reached its object exactly once, churn notwithstanding.
  for (int t = 0; t < kCallers; ++t) {
    EXPECT_EQ(
        workers[static_cast<size_t>(t)].local()->packs_seen().size(),
        calls[static_cast<size_t>(t)])
        << "caller " << t;
    EXPECT_GT(calls[static_cast<size_t>(t)], 0u);
  }
}

TEST(ConcurrentWeaving, EnableDisableChurnIsSafe) {
  aop::Context ctx;
  auto aspect = std::make_shared<aop::Aspect>("toggle");
  std::atomic<std::uint64_t> advised{0};
  aspect->before_method<&Worker::process>(
      aop::order::kDefault, aop::Scope::any(),
      [&advised](auto&) { ++advised; });
  ctx.attach(aspect);
  auto w = ctx.create<Worker>(1);

  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    while (!stop) {
      aspect->set_enabled(false);
      aspect->set_enabled(true);
    }
  });
  for (int i = 0; i < 5'000; ++i) {
    std::vector<int> pack{1};
    ctx.call<&Worker::process>(w, pack);
  }
  stop = true;
  toggler.join();
  EXPECT_EQ(w.local()->packs_seen().size(), 5'000u);
  EXPECT_LE(advised.load(), 5'000u);
}

TEST(ConcurrentWeaving, ManyContextsAreIndependent) {
  // Contexts share nothing but the thread-local scope stack; concurrent
  // use of independent contexts must not interfere.
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&failures, t] {
      aop::Context ctx;
      auto aspect = std::make_shared<aop::Aspect>("local");
      std::atomic<int> hits{0};
      aspect->before_method<&Worker::process>(
          aop::order::kDefault, aop::Scope::any(), [&hits](auto&) { ++hits; });
      ctx.attach(aspect);
      auto w = ctx.create<Worker>(t);
      for (int i = 0; i < 500; ++i) {
        std::vector<int> pack{1};
        ctx.call<&Worker::process>(w, pack);
      }
      if (hits.load() != 500) ++failures;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}
