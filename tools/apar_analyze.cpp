// apar-analyze: weave-plan verifier and pluggable concurrency analysis.
//
// Builds each named aspect composition exactly as the benches and the
// Table-1 version matrix do, then runs the static weave-plan analyzer
// (src/analysis) over the plugged aspects: dead pointcuts, order
// collisions, double synchronisation, distribution hazards, cache
// safety. The
// deliberately broken `demo-broken` composition additionally scripts an
// ABBA acquisition sequence under a plugged LockOrderAspect to exercise
// the dynamic lock-order analysis.
//
// Exit status: 0 when no finding at or above --threshold was reported,
// 1 otherwise (2 for usage errors) — CI gates on this.
//
// Usage:
//   apar-analyze [--threshold=info|warning|error] [--json FILE] [--list]
//                [--effects] [composition ...]
//
// With no compositions named, every shipped (clean) composition is
// analyzed: the full sieve version matrix plus heat:heartbeat.
//
// --effects additionally runs the declared-effects race analysis
// (src/analysis/effects.hpp) over every selected composition: shared
// written state reachable from concurrent join points without a common
// monitor, divergence between local and remote replicas, cache/effect
// conflicts, and statically-derived lock-order cycles. The
// `demo-broken-race` composition is this pass's seeded-defect fixture and
// always includes it.
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "apar/adapt/adaptation_aspect.hpp"
#include "apar/analysis/effects.hpp"
#include "apar/analysis/lock_order_aspect.hpp"
#include "apar/analysis/report.hpp"
#include "apar/analysis/weave_plan.hpp"
#include "apar/aop/aop.hpp"
#include "apar/aop/trace.hpp"
#include "apar/apps/heat_band.hpp"
#include "apar/cache/cache_aspect.hpp"
#include "apar/cluster/cluster.hpp"
#include "apar/cluster/middleware.hpp"
#include "apar/common/config.hpp"
#include "apar/common/json.hpp"
#include "apar/concurrency/sync_registry.hpp"
#include "apar/net/reactor.hpp"
#include "apar/net/tcp_middleware.hpp"
#include "apar/obs/metrics.hpp"
#include "apar/obs/profiling_aspect.hpp"
#include "apar/sieve/versions.hpp"
#include "apar/strategies/concurrency_aspect.hpp"
#include "apar/strategies/distribution_aspect.hpp"
#include "apar/strategies/farm_aspect.hpp"
#include "apar/strategies/heartbeat_aspect.hpp"

namespace adapt = apar::adapt;
namespace analysis = apar::analysis;
namespace aop = apar::aop;
namespace cache = apar::cache;
namespace cluster = apar::cluster;
namespace common = apar::common;
namespace concurrency = apar::concurrency;
namespace net = apar::net;
namespace sieve = apar::sieve;
namespace strategies = apar::strategies;

namespace demo {

/// A type src/serial cannot marshal — the distribution hazard seed.
struct Opaque {
  void* handle = nullptr;
};

/// Tiny core class for the broken demo composition.
class Ledger {
 public:
  explicit Ledger(long long opening = 0) : balance_(opening) {}

  void deposit(long long amount) { balance_ += amount; }
  void withdraw(long long amount) { balance_ -= amount; }
  void put(Opaque token) { (void)token; }
  [[nodiscard]] long long balance() const { return balance_; }

 private:
  long long balance_ = 0;
};

}  // namespace demo

APAR_CLASS_NAME(demo::Ledger, "Ledger");
APAR_METHOD_NAME(&demo::Ledger::deposit, "deposit");
APAR_METHOD_NAME(&demo::Ledger::withdraw, "withdraw");
APAR_METHOD_NAME(&demo::Ledger::put, "put");
APAR_METHOD_NAME(&demo::Ledger::balance, "balance");

// Declared effects for the seeded race fixture: both mutators touch the
// one "balance" cell (put stays undeclared on purpose — it is the
// unknown-effects specimen when advised into a concurrent weave).
APAR_METHOD_WRITES(&demo::Ledger::deposit, "balance");
APAR_METHOD_WRITES(&demo::Ledger::withdraw, "balance");
APAR_METHOD_READS(&demo::Ledger::balance, "balance");

namespace {

/// Set by --effects: every selected composition's report additionally
/// merges the declared-effects race analysis.
bool g_effects = false;

analysis::Report analyze_plan(const aop::Context& ctx) {
  analysis::Report report = analysis::analyze_weave_plan(ctx);
  if (g_effects) report.merge(analysis::analyze_effects(ctx));
  return report;
}

analysis::Report analyze_sieve(sieve::Version version) {
  sieve::SieveConfig config;
  config.max = 20'000;
  config.filters = 2;
  config.pack_size = 2'000;
  config.nodes = 3;
  config.node_executors = 2;
  config.loopback_costs = true;
  sieve::SieveHarness harness(version, config);
  return analyze_plan(harness.context());
}

analysis::Report analyze_heartbeat() {
  using Heart =
      strategies::HeartbeatAspect<apar::apps::HeatBand, long long, long long,
                                  long long, long long, double>;
  aop::Context ctx;
  Heart::Options opts;
  opts.bands = 2;
  opts.ctor_args = [](std::size_t i, std::size_t k,
                      const std::tuple<long long, long long, long long,
                                       long long, double>& original) {
    const auto [rows, cols, offset, total, ns] = original;
    (void)offset;
    const long long share = rows / static_cast<long long>(k);
    return std::make_tuple(share, cols,
                           static_cast<long long>(i) * share, total, ns);
  };
  ctx.attach(std::make_shared<Heart>("Heartbeat", std::move(opts)));
  auto report = analyze_plan(ctx);
  ctx.quiesce();
  return report;
}

/// A TcpMiddleware wired to an endpoint that is never dialed: the
/// middleware connects lazily, so static analysis can inspect a real-wire
/// composition without any server process running.
net::TcpMiddleware::Options undialed_tcp() {
  net::TcpMiddleware::Options opts;
  opts.endpoints = {{"127.0.0.1", 1}};
  return opts;
}

/// The two-process sieve weave (examples/sieve_client.cpp): farm +
/// concurrency + distribution over the REAL TCP transport. Verifying it
/// here is stronger than for the simulated middlewares — wire-transport
/// targets promote serialization findings to errors, so a clean report
/// means every distributed argument genuinely crosses the socket.
analysis::Report analyze_sieve_tcp() {
  using Farm = strategies::FarmAspect<sieve::PrimeFilter, long long,
                                      long long, long long, double>;
  using Conc = strategies::ConcurrencyAspect<sieve::PrimeFilter>;
  using Dist = strategies::DistributionAspect<sieve::PrimeFilter, long long,
                                              long long, double>;
  net::TcpMiddleware middleware(undialed_tcp());
  net::TcpFabric fabric(middleware);

  aop::Context ctx;
  Farm::Options fopts;
  fopts.duplicates = 2;
  fopts.pack_size = 2'000;
  ctx.attach(std::make_shared<Farm>("Partition", fopts));
  auto conc = std::make_shared<Conc>("Concurrency");
  conc->async_method<&sieve::PrimeFilter::process>()
      .async_method<&sieve::PrimeFilter::filter>()
      .guarded_method<&sieve::PrimeFilter::collect>();
  ctx.attach(conc);
  auto dist = std::make_shared<Dist>("Distribution", fabric, middleware);
  dist->distribute_method<&sieve::PrimeFilter::filter>()
      .distribute_method<&sieve::PrimeFilter::process>(/*allow_one_way=*/true)
      .distribute_method<&sieve::PrimeFilter::collect>(/*allow_one_way=*/true)
      .distribute_method<&sieve::PrimeFilter::take_results>();
  ctx.attach(dist);

  auto report = analyze_plan(ctx);
  ctx.quiesce();
  return report;
}

/// The TCP sieve weave as served by a TcpServer's reactor:
/// ReactorIngressAspect declares that every served method may be entered
/// from whichever server thread read the request — unconfined concurrency
/// injected by the TRANSPORT, not by any client-side weave. The effects
/// pass then demands a monitor covering every pair of served methods that
/// race on declared state, which is why Conc guards take_results here
/// (collect and take_results both write "results"; the plain FarmTCP weave
/// only ever calls take_results from the single gather thread, but a
/// reactor server cannot assume that). Must analyze clean: the template
/// for exposing a class behind the reactor safely.
analysis::Report analyze_sieve_tcp_reactor() {
  using Farm = strategies::FarmAspect<sieve::PrimeFilter, long long,
                                      long long, long long, double>;
  using Conc = strategies::ConcurrencyAspect<sieve::PrimeFilter>;
  using Dist = strategies::DistributionAspect<sieve::PrimeFilter, long long,
                                              long long, double>;
  net::TcpMiddleware middleware(undialed_tcp());
  net::TcpFabric fabric(middleware);

  aop::Context ctx;
  Farm::Options fopts;
  fopts.duplicates = 2;
  fopts.pack_size = 2'000;
  ctx.attach(std::make_shared<Farm>("Partition", fopts));
  auto ingress =
      std::make_shared<net::ReactorIngressAspect<sieve::PrimeFilter>>();
  ingress->serve_method<&sieve::PrimeFilter::filter>()
      .serve_method<&sieve::PrimeFilter::process>()
      .serve_method<&sieve::PrimeFilter::collect>()
      .serve_method<&sieve::PrimeFilter::take_results>();
  ctx.attach(ingress);
  auto conc = std::make_shared<Conc>("Concurrency");
  conc->async_method<&sieve::PrimeFilter::process>()
      .async_method<&sieve::PrimeFilter::filter>()
      .guarded_method<&sieve::PrimeFilter::collect>()
      .guarded_method<&sieve::PrimeFilter::take_results>();
  ctx.attach(conc);
  auto dist = std::make_shared<Dist>("Distribution", fabric, middleware);
  dist->distribute_method<&sieve::PrimeFilter::filter>()
      .distribute_method<&sieve::PrimeFilter::process>(/*allow_one_way=*/true)
      .distribute_method<&sieve::PrimeFilter::collect>(/*allow_one_way=*/true)
      .distribute_method<&sieve::PrimeFilter::take_results>();
  ctx.attach(dist);

  auto report = analyze_plan(ctx);
  ctx.quiesce();
  return report;
}

/// The TCP sieve weave with the memoisation aspect in front of the wire:
/// CacheAspect caches PrimeFilter::filter (declared idempotent, all-
/// serializable effect) at the optimisation layer, so hits return before
/// the distribution advice runs. Must analyze clean — the template for
/// safe caching over a real transport.
analysis::Report analyze_sieve_tcp_cached() {
  using Conc = strategies::ConcurrencyAspect<sieve::PrimeFilter>;
  using Dist = strategies::DistributionAspect<sieve::PrimeFilter, long long,
                                              long long, double>;
  net::TcpMiddleware middleware(undialed_tcp());
  net::TcpFabric fabric(middleware);

  aop::Context ctx;
  auto conc = std::make_shared<Conc>("Concurrency");
  conc->guarded_method<&sieve::PrimeFilter::collect>();
  ctx.attach(conc);
  auto memo = std::make_shared<cache::CacheAspect<sieve::PrimeFilter>>("Memo");
  memo->cache_method<&sieve::PrimeFilter::filter>();
  ctx.attach(memo);
  auto dist = std::make_shared<Dist>("Distribution", fabric, middleware);
  dist->distribute_method<&sieve::PrimeFilter::filter>();
  ctx.attach(dist);

  auto report = analyze_plan(ctx);
  ctx.quiesce();
  return report;
}

/// The TCP sieve weave with the full observability plane plugged in:
/// ProfilingAspect (order 40) outside TraceAspect (order 50) outside the
/// functional aspects (100..500). Their orders land in the weave-plan
/// composition table, so the collision pass covers the observability
/// layer too — two profilers at the same order on the same method would
/// gate exactly like two concurrency aspects do. Must analyze clean.
analysis::Report analyze_sieve_tcp_obs() {
  using Farm = strategies::FarmAspect<sieve::PrimeFilter, long long,
                                      long long, long long, double>;
  using Conc = strategies::ConcurrencyAspect<sieve::PrimeFilter>;
  using Dist = strategies::DistributionAspect<sieve::PrimeFilter, long long,
                                              long long, double>;
  net::TcpMiddleware middleware(undialed_tcp());
  net::TcpFabric fabric(middleware);

  aop::Context ctx;
  auto profiling = std::make_shared<apar::obs::ProfilingAspect<
      sieve::PrimeFilter>>("Profiling", apar::obs::MetricsRegistry::global());
  profiling->profile_method<&sieve::PrimeFilter::process>()
      .profile_method<&sieve::PrimeFilter::filter>();
  ctx.attach(profiling);
  auto trace = std::make_shared<aop::TraceAspect<sieve::PrimeFilter>>(
      "Trace", aop::Tracer::global());
  trace->trace_method<&sieve::PrimeFilter::process>()
      .trace_method<&sieve::PrimeFilter::filter>()
      .trace_method<&sieve::PrimeFilter::collect>();
  ctx.attach(trace);
  Farm::Options fopts;
  fopts.duplicates = 2;
  fopts.pack_size = 2'000;
  ctx.attach(std::make_shared<Farm>("Partition", fopts));
  auto conc = std::make_shared<Conc>("Concurrency");
  conc->async_method<&sieve::PrimeFilter::process>()
      .async_method<&sieve::PrimeFilter::filter>()
      .guarded_method<&sieve::PrimeFilter::collect>();
  ctx.attach(conc);
  auto dist = std::make_shared<Dist>("Distribution", fabric, middleware);
  dist->distribute_method<&sieve::PrimeFilter::filter>()
      .distribute_method<&sieve::PrimeFilter::process>(/*allow_one_way=*/true)
      .distribute_method<&sieve::PrimeFilter::collect>(/*allow_one_way=*/true)
      .distribute_method<&sieve::PrimeFilter::take_results>();
  ctx.attach(dist);

  auto report = analyze_plan(ctx);
  ctx.quiesce();
  return report;
}

/// The self-tuning sieve weave: an AdaptationAspect plugged outermost
/// around Farm + Concurrency, declaring which parallelism knobs its
/// controller actuates behind process/filter (pool workers via online
/// resize, pack grain via the farm's atomic pack_size). Must analyze
/// clean: every concurrency-spawning advice on the adapted signatures —
/// the farm's split and the concurrency aspect's async dispatch — declares
/// mark_online_resizable(), so the controller can retune mid-run without
/// orphaning or double-running accepted work.
analysis::Report analyze_sieve_farm_adapt() {
  using Farm = strategies::FarmAspect<sieve::PrimeFilter, long long,
                                      long long, long long, double>;
  using Conc = strategies::ConcurrencyAspect<sieve::PrimeFilter>;

  aop::Context ctx;
  Farm::Options fopts;
  fopts.duplicates = 2;
  fopts.pack_size = 2'000;
  auto farm = std::make_shared<Farm>("Partition", fopts);
  ctx.attach(farm);
  auto conc = std::make_shared<Conc>("Concurrency");
  conc->async_method<&sieve::PrimeFilter::process>()
      .async_method<&sieve::PrimeFilter::filter>()
      .guarded_method<&sieve::PrimeFilter::collect>();
  ctx.attach(conc);
  auto tuner =
      std::make_shared<adapt::AdaptationAspect<sieve::PrimeFilter>>();
  tuner->controller().set_grain_knob(adapt::Knob(
      "grain", 250, 20'000,
      static_cast<std::int64_t>(farm->pack_size()),
      [farm](std::int64_t v) {
        farm->set_pack_size(static_cast<std::size_t>(v));
      }));
  tuner->adapt_method<&sieve::PrimeFilter::process>({"workers", "grain"})
      .adapt_method<&sieve::PrimeFilter::filter>({"workers", "grain"});
  ctx.attach(tuner);

  auto report = analyze_plan(ctx);
  ctx.quiesce();
  return report;
}

/// The adaptation misuse fixture: the AdaptationAspect declares it will
/// retune {workers, grain} behind Ledger.deposit, but the farm it is
/// plugged against sizes its worker fan-out once at plug time — its split
/// advice spawns concurrency WITHOUT mark_online_resizable(). Unlike a
/// latent hazard, the controller is guaranteed to actuate at runtime, so
/// the analyzer must reject the composition outright
/// (adaptation-unsafe-resize, error).
analysis::Report analyze_demo_broken_adapt() {
  aop::Context ctx;
  auto farm = std::make_shared<aop::Aspect>("StaticFarm");
  farm->around_call<demo::Ledger, void, long long>(
          aop::Pattern("Ledger.deposit"), aop::order::kPartitionSplit,
          aop::Scope::any(), [](auto& inv) { return inv.proceed(); })
      .mark_spawns_concurrency();
  ctx.attach(farm);
  auto tuner = std::make_shared<adapt::AdaptationAspect<demo::Ledger>>();
  tuner->adapt_method<&demo::Ledger::deposit>({"workers", "grain"});
  ctx.attach(tuner);

  auto report = analyze_plan(ctx);
  ctx.quiesce();
  return report;
}

/// Every cache-safety defect at once, over the real wire so each gates as
/// an error: memoizing deposit (a mutator nobody declared idempotent —
/// hits would silently skip remote state transitions) and put (non-
/// idempotent AND an unserializable effect, so the cache never fires while
/// every call still pays the round-trip).
analysis::Report analyze_demo_broken_cache() {
  net::TcpMiddleware middleware(undialed_tcp());
  net::TcpFabric fabric(middleware);

  aop::Context ctx;
  auto dist =
      std::make_shared<strategies::DistributionAspect<demo::Ledger, long long>>(
          "Distribution", fabric, middleware);
  dist->distribute_method<&demo::Ledger::deposit>()
      .distribute_method<&demo::Ledger::put>();
  ctx.attach(dist);
  auto memo = std::make_shared<cache::CacheAspect<demo::Ledger>>("Memo");
  memo->cache_method<&demo::Ledger::deposit>()
      .cache_method<&demo::Ledger::put>();
  ctx.attach(memo);

  auto report = analyze_plan(ctx);
  ctx.quiesce();
  return report;
}

/// demo-broken's distribution hazard, retargeted at the real wire: over
/// the simulated RMI the unserializable put(Opaque) is a warning (local
/// dispatch still works); over TcpMiddleware there IS no local dispatch,
/// so the same weave must gate as an error.
analysis::Report analyze_demo_broken_tcp() {
  net::TcpMiddleware middleware(undialed_tcp());
  net::TcpFabric fabric(middleware);

  aop::Context ctx;
  auto dist =
      std::make_shared<strategies::DistributionAspect<demo::Ledger, long long>>(
          "Distribution", fabric, middleware);
  dist->distribute_method<&demo::Ledger::put>();
  ctx.attach(dist);

  auto report = analyze_plan(ctx);
  ctx.quiesce();
  return report;
}

/// The acceptance composition: one aspect set carrying every static defect
/// class at once, plus a scripted ABBA acquisition for the dynamic check.
analysis::Report analyze_demo_broken() {
  // The cluster outlives ctx: ctx's destructor quiesces, and the
  // distribution aspect drains this fabric when it does.
  cluster::Cluster::Options copts;
  copts.nodes = 2;
  copts.executors_per_node = 1;
  cluster::Cluster demo_cluster(copts);
  cluster::RmiMiddleware middleware(demo_cluster,
                                    cluster::CostModel::loopback());
  aop::Context ctx;

  // (1) Dead pointcut: "Ledger.depositt" — note the typo.
  auto typo = std::make_shared<aop::Aspect>("Audit");
  typo->around_call<demo::Ledger, void, long long>(
      aop::Pattern("Ledger.depositt"), aop::order::kDefault, aop::Scope::any(),
      [](auto& inv) { return inv.proceed(); });
  ctx.attach(typo);

  // (2)+(3) Two concurrency aspects guarding the same method: equal order
  // (kConcurrencySync twice) AND double synchronisation.
  auto sync_a = std::make_shared<strategies::ConcurrencyAspect<demo::Ledger>>(
      "SyncA");
  sync_a->guarded_method<&demo::Ledger::deposit>();
  auto sync_b = std::make_shared<strategies::ConcurrencyAspect<demo::Ledger>>(
      "SyncB");
  sync_b->guarded_method<&demo::Ledger::deposit>();
  ctx.attach(sync_a);
  ctx.attach(sync_b);

  // (4) Distribution hazard: put(Opaque) cannot cross the wire.
  auto dist =
      std::make_shared<strategies::DistributionAspect<demo::Ledger, long long>>(
          "Distribution", demo_cluster, middleware);
  dist->distribute_method<&demo::Ledger::put>();
  ctx.attach(dist);

  // (5) Cache misuse: memoizing deposit, a mutator nobody declared
  // idempotent. A warning here (simulated middleware); the same weave over
  // TCP is demo-broken-cache, where it gates as an error.
  auto memo = std::make_shared<cache::CacheAspect<demo::Ledger>>("Memo");
  memo->cache_method<&demo::Ledger::deposit>();
  ctx.attach(memo);

  auto report = analyze_plan(ctx);

  // (6) Dynamic half: plug the lock-order aspect and acquire two monitors
  // in conflicting orders — the ABBA shape, scripted sequentially so the
  // demo itself never deadlocks.
  auto lock_order = std::make_shared<analysis::LockOrderAspect>();
  ctx.attach(lock_order);
  {
    concurrency::SyncRegistry monitors;
    demo::Ledger a(1), b(2);
    {
      auto first = monitors.acquire(&a);
      auto second = monitors.acquire(&b);
    }
    {
      auto first = monitors.acquire(&b);
      auto second = monitors.acquire(&a);
    }
  }
  report.merge(lock_order->report());
  ctx.detach(lock_order->name());

  ctx.quiesce();
  return report;
}

/// The effects acceptance composition: every declared-effects defect class
/// at once. SyncA fires deposit asynchronously, SyncB withdraw — both
/// mutators write the one "balance" cell, but each aspect guards only its
/// own method, so no single monitor covers the racing pair
/// (unsynchronized-shared-write). A TCP distribution aspect ships deposit
/// but not withdraw, so remote and local replicas of "balance" diverge
/// (remote-divergent-write, error over the real wire). A cache aspect
/// memoizes the balance-writing deposit (cache-effect-conflict, escalated
/// by the wire-mandatory distributor). And two bridge advices running
/// inside the monitors each initiate the other aspect's guarded method —
/// the ABBA shape demo-broken scripts dynamically, derived here from
/// advice metadata alone (static-lock-order-cycle). Always analyzed with
/// the effects pass: this composition IS its fixture.
analysis::Report analyze_demo_broken_race() {
  net::TcpMiddleware middleware(undialed_tcp());
  net::TcpFabric fabric(middleware);

  aop::Context ctx;
  auto sync_a = std::make_shared<strategies::ConcurrencyAspect<demo::Ledger>>(
      "SyncA");
  sync_a->async_method<&demo::Ledger::deposit>();
  ctx.attach(sync_a);
  auto sync_b = std::make_shared<strategies::ConcurrencyAspect<demo::Ledger>>(
      "SyncB");
  sync_b->async_method<&demo::Ledger::withdraw>();
  ctx.attach(sync_b);

  auto dist =
      std::make_shared<strategies::DistributionAspect<demo::Ledger, long long>>(
          "Distribution", fabric, middleware);
  dist->distribute_method<&demo::Ledger::deposit>();
  ctx.attach(dist);

  auto memo = std::make_shared<cache::CacheAspect<demo::Ledger>>("Memo");
  memo->cache_method<&demo::Ledger::deposit>();
  ctx.attach(memo);

  // The bridges run inside the monitors (higher order = inner) and declare
  // that they call into the other guarded method while the first monitor
  // is still held.
  auto bridge = std::make_shared<aop::Aspect>("Bridge");
  bridge
      ->around_call<demo::Ledger, void, long long>(
          aop::Pattern("Ledger.deposit"), aop::order::kOptimisation + 10,
          aop::Scope::any(), [](auto& inv) { return inv.proceed(); })
      .mark_initiates({"Ledger.withdraw"});
  bridge
      ->around_call<demo::Ledger, void, long long>(
          aop::Pattern("Ledger.withdraw"), aop::order::kOptimisation + 10,
          aop::Scope::any(), [](auto& inv) { return inv.proceed(); })
      .mark_initiates({"Ledger.deposit"});
  ctx.attach(bridge);

  analysis::Report report = analysis::analyze_weave_plan(ctx);
  report.merge(analysis::analyze_effects(ctx));
  ctx.quiesce();
  return report;
}

using Builder = std::function<analysis::Report()>;

std::vector<std::pair<std::string, Builder>> all_compositions() {
  std::vector<std::pair<std::string, Builder>> out;
  out.emplace_back("sieve:Sequential",
                   [] { return analyze_sieve(sieve::Version::kSequential); });
  for (const sieve::Version v : sieve::extended_versions()) {
    out.emplace_back("sieve:" + std::string(sieve::version_name(v)),
                     [v] { return analyze_sieve(v); });
  }
  out.emplace_back("heat:heartbeat", [] { return analyze_heartbeat(); });
  out.emplace_back("sieve:FarmTCP", [] { return analyze_sieve_tcp(); });
  out.emplace_back("sieve:FarmTCP+Cache",
                   [] { return analyze_sieve_tcp_cached(); });
  out.emplace_back("sieve:FarmTCP+Obs", [] { return analyze_sieve_tcp_obs(); });
  out.emplace_back("sieve:FarmTCP+Reactor",
                   [] { return analyze_sieve_tcp_reactor(); });
  out.emplace_back("sieve:Farm+Adapt",
                   [] { return analyze_sieve_farm_adapt(); });
  return out;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threshold=info|warning|error] [--json FILE] "
               "[--list] [--effects] [composition ...]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const common::Config cli(argc, argv);

  const auto threshold =
      analysis::parse_severity(cli.get("threshold", "warning"));
  if (!threshold) {
    std::fprintf(stderr, "apar-analyze: bad --threshold value '%s'\n",
                 cli.get("threshold").c_str());
    return usage(argv[0]);
  }

  g_effects = cli.get_bool("effects", false);

  auto clean = all_compositions();
  if (cli.get_bool("list", false)) {
    for (const auto& [name, build] : clean) std::printf("%s\n", name.c_str());
    std::printf("demo-broken\n");
    std::printf("demo-broken-tcp\n");
    std::printf("demo-broken-cache\n");
    std::printf("demo-broken-race\n");
    std::printf("demo-broken-adapt\n");
    return 0;
  }

  // Resolve the requested compositions (default: every clean one).
  std::vector<std::pair<std::string, Builder>> selected;
  if (cli.positional().empty()) {
    selected = clean;
  } else {
    for (const std::string& want : cli.positional()) {
      if (want == "demo-broken") {
        selected.emplace_back(want, [] { return analyze_demo_broken(); });
        continue;
      }
      if (want == "demo-broken-race") {
        selected.emplace_back(want,
                              [] { return analyze_demo_broken_race(); });
        continue;
      }
      if (want == "demo-broken-tcp") {
        selected.emplace_back(want,
                              [] { return analyze_demo_broken_tcp(); });
        continue;
      }
      if (want == "demo-broken-cache") {
        selected.emplace_back(want,
                              [] { return analyze_demo_broken_cache(); });
        continue;
      }
      if (want == "demo-broken-adapt") {
        selected.emplace_back(want,
                              [] { return analyze_demo_broken_adapt(); });
        continue;
      }
      bool found = false;
      for (const auto& [name, build] : clean) {
        if (name == want) {
          selected.emplace_back(name, build);
          found = true;
          break;
        }
      }
      if (!found) {
        std::fprintf(stderr, "apar-analyze: unknown composition '%s'\n",
                     want.c_str());
        return usage(argv[0]);
      }
    }
  }

  std::size_t gating = 0;
  std::size_t total = 0;
  std::string json = "{\n  \"schema_version\": " +
                     std::to_string(analysis::kReportSchemaVersion) +
                     ",\n  \"threshold\": \"" +
                     std::string(analysis::severity_name(*threshold)) +
                     "\",\n  \"compositions\": [";
  bool first = true;
  for (const auto& [name, build] : selected) {
    const analysis::Report report = build();
    total += report.size();
    gating += report.count_at_least(*threshold);

    std::printf("== %s: %zu finding(s) ==\n", name.c_str(), report.size());
    if (!report.empty()) std::printf("%s\n", report.table(2).c_str());

    if (!first) json += ",";
    first = false;
    json += "\n    {\"name\": \"" + common::json_escape(name) +
            "\", \"report\": " + report.json() + "}";
  }
  json += first ? "],\n" : "\n  ],\n";
  json += "  \"total\": " + common::json_number(double(total)) +
          ",\n  \"at_or_above_threshold\": " +
          common::json_number(double(gating)) + "\n}\n";

  if (cli.has("json")) {
    const std::string path = cli.get("json");
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "apar-analyze: cannot write %s\n", path.c_str());
      return 2;
    }
  }

  std::printf("%zu finding(s) total, %zu at or above threshold '%s'\n", total,
              gating, analysis::severity_name(*threshold).data());
  return gating > 0 ? 1 : 0;
}
