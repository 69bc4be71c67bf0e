// Ablation: where does the aspect abstraction's overhead come from?
//
// Complements Figure 16 (end-to-end < 5% claim) with microbenchmarks of the
// dispatch path itself: direct virtual-free call vs compile-time weaving vs
// runtime weaving (with growing advice chains). google-benchmark binary.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "apar/aop/aop.hpp"

namespace aop = apar::aop;

namespace {

class Target {
 public:
  long long bump(long long x) {
    value_ += x;
    return value_;
  }

 private:
  long long value_ = 0;
};

}  // namespace

APAR_CLASS_NAME(Target, "Target");
APAR_METHOD_NAME(&Target::bump, "bump");

namespace {

void BM_DirectCall(benchmark::State& state) {
  Target target;
  long long x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(target.bump(++x));
  }
}
BENCHMARK(BM_DirectCall);

struct PassThrough {
  template <class Next, class T, class... A>
  static decltype(auto) around(Next&& next, T&, A&&... args) {
    return next(std::forward<A>(args)...);
  }
};

void BM_StaticWeave_1Aspect(benchmark::State& state) {
  aop::ct::Woven<Target, PassThrough> woven;
  long long x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(woven.call<&Target::bump>(++x));
  }
}
BENCHMARK(BM_StaticWeave_1Aspect);

void BM_StaticWeave_5Aspects(benchmark::State& state) {
  aop::ct::Woven<Target, PassThrough, PassThrough, PassThrough, PassThrough,
                 PassThrough>
      woven;
  long long x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(woven.call<&Target::bump>(++x));
  }
}
BENCHMARK(BM_StaticWeave_5Aspects);

void BM_RuntimeWeave_NoAspects(benchmark::State& state) {
  aop::Context ctx;
  auto target = ctx.create<Target>();
  long long x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.call<&Target::bump>(target, ++x));
  }
}
BENCHMARK(BM_RuntimeWeave_NoAspects);

void add_passthrough_advice(aop::Aspect& aspect, int count) {
  for (int i = 0; i < count; ++i) {
    aspect.around_method<&Target::bump>(
        aop::order::kDefault + i, aop::Scope::any(),
        [](auto& inv) { return inv.proceed(); });
  }
}

void BM_RuntimeWeave_AdviceChain(benchmark::State& state) {
  aop::Context ctx;
  auto aspect = std::make_shared<aop::Aspect>("chain");
  add_passthrough_advice(*aspect, static_cast<int>(state.range(0)));
  ctx.attach(aspect);
  auto target = ctx.create<Target>();
  long long x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.call<&Target::bump>(target, ++x));
  }
}
BENCHMARK(BM_RuntimeWeave_AdviceChain)->Arg(1)->Arg(2)->Arg(5)->Arg(10);

void BM_RuntimeWeave_ScopedAdvice(benchmark::State& state) {
  // Scope checks (core_only) happen per invocation; measure their cost.
  aop::Context ctx;
  auto aspect = std::make_shared<aop::Aspect>("scoped");
  aspect->around_method<&Target::bump>(
      aop::order::kDefault, aop::Scope::core_only(),
      [](auto& inv) { return inv.proceed(); });
  ctx.attach(aspect);
  auto target = ctx.create<Target>();
  long long x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.call<&Target::bump>(target, ++x));
  }
}
BENCHMARK(BM_RuntimeWeave_ScopedAdvice);

void BM_PatternMatch(benchmark::State& state) {
  const aop::Pattern pattern("Prime*.fil*");
  const aop::Signature sig{"PrimeFilter", "filter",
                           aop::JoinPointKind::kMethodCall};
  for (auto _ : state) {
    benchmark::DoNotOptimize(pattern.matches(sig));
  }
}
BENCHMARK(BM_PatternMatch);

void BM_AttachDetachEpoch(benchmark::State& state) {
  // Cost of (un)plugging an aspect — the paper's "on the fly" operation.
  aop::Context ctx;
  auto aspect = std::make_shared<aop::Aspect>("toggle");
  add_passthrough_advice(*aspect, 1);
  for (auto _ : state) {
    ctx.attach(aspect);
    auto removed = ctx.detach("toggle");
    benchmark::DoNotOptimize(removed);
  }
}
BENCHMARK(BM_AttachDetachEpoch);

}  // namespace

BENCHMARK_MAIN();
