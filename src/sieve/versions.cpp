#include "apar/sieve/versions.hpp"

#include <stdexcept>
#include <tuple>

#include "apar/common/stopwatch.hpp"
#include "apar/sieve/workload.hpp"
#include "apar/strategies/strategies.hpp"

namespace apar::sieve {

namespace {

using CandPack = long long;
using PipeAspect =
    strategies::PipelineAspect<PrimeFilter, long long, long long, long long,
                               double>;
using FarmAspect =
    strategies::FarmAspect<PrimeFilter, long long, long long, long long,
                           double>;
using DFarmAspect =
    strategies::DynamicFarmAspect<PrimeFilter, long long, long long,
                                  long long, double>;
using ConcAspect = strategies::ConcurrencyAspect<PrimeFilter>;
using DistAspect =
    strategies::DistributionAspect<PrimeFilter, long long, long long, double>;
using LocalCpu = strategies::optimisation::LocalCpuAspect<PrimeFilter>;

/// Pipeline stages get balanced sub-ranges of the base primes (paper
/// Figure 8: "create filter with specific parameters").
strategies::CtorPartitioner<long long, long long, double>
pipeline_ctor_partitioner(long long max) {
  return [max](std::size_t i, std::size_t k,
               const std::tuple<long long, long long, double>& original) {
    const auto ranges = balanced_prime_ranges(max, k);
    return std::make_tuple(ranges[i].first, ranges[i].second,
                           std::get<2>(original));
  };
}

}  // namespace

std::string_view version_name(Version v) {
  switch (v) {
    case Version::kSequential: return "Sequential";
    case Version::kFarmThreads: return "FarmThreads";
    case Version::kPipeRmi: return "PipeRMI";
    case Version::kFarmRmi: return "FarmRMI";
    case Version::kFarmDRmi: return "FarmDRMI";
    case Version::kFarmMpp: return "FarmMPP";
    case Version::kFarmHybrid: return "FarmHybrid";
  }
  return "?";
}

const std::vector<Version>& table1_versions() {
  static const std::vector<Version> versions{
      Version::kFarmThreads, Version::kPipeRmi, Version::kFarmRmi,
      Version::kFarmDRmi, Version::kFarmMpp};
  return versions;
}

const std::vector<Version>& extended_versions() {
  static const std::vector<Version> versions = [] {
    auto v = table1_versions();
    v.push_back(Version::kFarmHybrid);
    return v;
  }();
  return versions;
}

SieveHarness::SieveHarness(Version version, SieveConfig config)
    : version_(version), config_(config) {
  build();
}

SieveHarness::~SieveHarness() {
  // The context must quiesce and drop aspects (which join their worker
  // threads) before the cluster it talks to disappears.
  ctx_.reset();
  middleware_.reset();
  backends_.clear();
  cluster_.reset();
}

void SieveHarness::build() {
  ctx_ = std::make_unique<aop::Context>();

  const bool distributed = version_ == Version::kPipeRmi ||
                           version_ == Version::kFarmRmi ||
                           version_ == Version::kFarmDRmi ||
                           version_ == Version::kFarmMpp ||
                           version_ == Version::kFarmHybrid;

  if (distributed) {
    cluster::Cluster::Options copts;
    copts.nodes = config_.nodes;
    copts.executors_per_node = config_.node_executors;
    cluster_ = std::make_unique<cluster::Cluster>(copts);
    cluster_->registry()
        .bind<PrimeFilter>("PrimeFilter")
        .ctor<long long, long long, double>()
        .method<&PrimeFilter::filter>("filter")
        .method<&PrimeFilter::process>("process")
        .method<&PrimeFilter::collect>("collect")
        .method<&PrimeFilter::take_results>("take_results");
    const cluster::CostModel rmi_costs = config_.loopback_costs
                                             ? cluster::CostModel::loopback()
                                             : cluster::CostModel::rmi();
    const cluster::CostModel mpp_costs = config_.loopback_costs
                                             ? cluster::CostModel::loopback()
                                             : cluster::CostModel::mpp();
    if (version_ == Version::kFarmMpp) {
      middleware_ =
          std::make_unique<cluster::MppMiddleware>(*cluster_, mpp_costs);
    } else if (version_ == Version::kFarmHybrid) {
      // Paper §5.3: MPP carries the performance-critical filter traffic,
      // RMI the control plane (creations, registry, result gathering).
      backends_.push_back(
          std::make_unique<cluster::RmiMiddleware>(*cluster_, rmi_costs));
      backends_.push_back(
          std::make_unique<cluster::MppMiddleware>(*cluster_, mpp_costs));
      middleware_ = std::make_unique<cluster::HybridMiddleware>(
          *backends_[0], *backends_[1],
          std::vector<std::string>{"filter", "process", "collect"});
    } else {
      middleware_ =
          std::make_unique<cluster::RmiMiddleware>(*cluster_, rmi_costs);
    }
  }

  // --- partition ---------------------------------------------------------
  switch (version_) {
    case Version::kSequential:
      gather_ = nullptr;
      break;
    case Version::kPipeRmi: {
      PipeAspect::Options opts;
      opts.duplicates = config_.filters;
      opts.pack_size = config_.pack_size;
      opts.ctor_args = pipeline_ctor_partitioner(config_.max);
      auto pipe = std::make_shared<PipeAspect>("Partition", opts);
      ctx_->attach(pipe);
      gather_ = [pipe](aop::Context& ctx) { return pipe->gather_results(ctx); };
      break;
    }
    case Version::kFarmDRmi: {
      DFarmAspect::Options opts;
      opts.duplicates = config_.filters;
      opts.pack_size = config_.pack_size;
      auto dfarm = std::make_shared<DFarmAspect>("Partition", opts);
      ctx_->attach(dfarm);
      gather_ = [dfarm](aop::Context& ctx) {
        return dfarm->gather_results(ctx);
      };
      break;
    }
    case Version::kFarmThreads:
    case Version::kFarmRmi:
    case Version::kFarmMpp:
    case Version::kFarmHybrid: {
      FarmAspect::Options opts;
      opts.duplicates = config_.filters;
      opts.pack_size = config_.pack_size;
      auto farm = std::make_shared<FarmAspect>("Partition", opts);
      ctx_->attach(farm);
      gather_ = [farm](aop::Context& ctx) { return farm->gather_results(ctx); };
      break;
    }
  }

  // --- concurrency (Table 1: all versions except Sequential and the
  // merged dynamic farm) -------------------------------------------------
  if (version_ == Version::kFarmThreads || version_ == Version::kPipeRmi ||
      version_ == Version::kFarmRmi || version_ == Version::kFarmMpp ||
      version_ == Version::kFarmHybrid) {
    auto conc = std::make_shared<ConcAspect>("Concurrency");
    conc->async_method<&PrimeFilter::process>()
        .async_method<&PrimeFilter::filter>()
        .guarded_method<&PrimeFilter::collect>();
    ctx_->attach(conc);
  }

  // --- the "one machine" constraint for the shared-memory version --------
  if (version_ == Version::kFarmThreads) {
    auto cpu = std::make_shared<LocalCpu>("LocalCpu", config_.local_cpu_slots);
    cpu->limit_method<&PrimeFilter::process>()
        .limit_method<&PrimeFilter::filter>();
    ctx_->attach(cpu);
  }

  // --- distribution -------------------------------------------------------
  if (distributed) {
    DistAspect::Options opts;
    opts.register_names = config_.register_names;
    auto dist = std::make_shared<DistAspect>("Distribution", *cluster_,
                                             *middleware_, opts);
    dist->distribute_method<&PrimeFilter::filter>()
        .distribute_method<&PrimeFilter::process>(/*allow_one_way=*/true)
        .distribute_method<&PrimeFilter::collect>(/*allow_one_way=*/true)
        .distribute_method<&PrimeFilter::take_results>();
    ctx_->attach(dist);
  }
}

SieveResult SieveHarness::run() {
  SieveResult result;
  auto candidates = odd_candidates(config_.max);
  const long long root = sieve_root(config_.max);

  const auto traffic = [this] {
    struct Totals {
      std::uint64_t sync = 0, one_way = 0, bytes = 0;
    } t;
    auto add = [&t](const cluster::MiddlewareStats& s) {
      t.sync += s.sync_calls.value() + s.creates.value();
      t.one_way += s.one_way_calls.value();
      t.bytes += s.bytes_sent.value() + s.bytes_received.value();
    };
    if (!backends_.empty()) {
      for (const auto& b : backends_) add(b->stats());
    } else if (middleware_) {
      add(middleware_->stats());
    }
    return t;
  };
  const auto before = traffic();

  common::Stopwatch sw;
  // ---- the entire core functionality (paper §5.1) ----
  auto p = ctx_->create<PrimeFilter>(2LL, root, config_.ns_per_op);
  ctx_->call<&PrimeFilter::process>(p, candidates);
  ctx_->quiesce();
  // ----------------------------------------------------
  result.seconds = sw.seconds();

  std::vector<long long> survivors =
      gather_ ? gather_(*ctx_) : ctx_->call<&PrimeFilter::take_results>(p);
  result.primes =
      count_primes_up_to(root) + static_cast<long long>(survivors.size());

  if (middleware_) {
    const auto after = traffic();
    result.sync_messages = after.sync - before.sync;
    result.one_way_messages = after.one_way - before.one_way;
    result.bytes_on_wire = after.bytes - before.bytes;
  }
  return result;
}

std::vector<std::string> SieveHarness::plugged_aspects() const {
  return ctx_->attached();
}

std::uint64_t measure_total_ops(long long max) {
  PrimeFilter filter(2, sieve_root(max), 0.0);
  auto candidates = odd_candidates(max);
  filter.process(candidates);
  return filter.ops();
}

double calibrate_ns_per_op(long long max, double target_seconds) {
  const auto ops = measure_total_ops(max);
  if (ops == 0) return 0.0;
  return target_seconds * 1e9 / static_cast<double>(ops);
}

}  // namespace apar::sieve
