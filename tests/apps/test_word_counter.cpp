// WordCounter: Stage<std::string> — the same partition aspects as the
// sieve, but with strings (and maps of strings) crossing the simulated
// wire. Exercises the serialization substrate's non-arithmetic paths
// end-to-end.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "apar/apps/word_counter.hpp"
#include "apar/cluster/middleware.hpp"
#include "apar/common/rng.hpp"
#include "apar/strategies/strategies.hpp"

namespace aop = apar::aop;
namespace ac = apar::cluster;
namespace st = apar::strategies;
using apar::apps::WordCounter;
namespace wc = apar::apps::wc;

namespace {

std::vector<std::string> corpus(std::size_t n, std::uint64_t seed) {
  static const std::vector<std::string> base{
      "The",   "quick,", "Brown", "fox!",  "jumps", "over", "the",
      "LAZY",  "dog.",   "a",     "it",    "Prime", "sieve", "ASPECT",
      "weave", "par;",   "of",    "and",   "Farm",  "pipeline"};
  apar::common::Rng rng(seed);
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(base[rng.uniform(0, base.size() - 1)]);
  return out;
}

std::map<std::string, long long> sequential_counts(
    const std::vector<std::string>& text) {
  WordCounter all(wc::kAll);
  auto data = text;
  all.process(data);
  return all.counts();
}

void register_word_counter(ac::rpc::Registry& registry) {
  registry.bind<WordCounter>("WordCounter")
      .ctor<long long, double>()
      .method<&WordCounter::filter>("filter")
      .method<&WordCounter::process>("process")
      .method<&WordCounter::collect>("collect")
      .method<&WordCounter::take_results>("take_results")
      .method<&WordCounter::counts>("counts");
}

}  // namespace

TEST(WordCounter, NormalisationStepsComposeInOrder) {
  WordCounter lower(wc::kLowercase), strip(wc::kStripPunct),
      drop(wc::kDropShort), all(wc::kAll);
  std::vector<std::string> staged{"Quick,", "A", "fox!"};
  auto direct = staged;
  lower.filter(staged);
  strip.filter(staged);
  drop.filter(staged);
  all.filter(direct);
  EXPECT_EQ(staged, direct);
  EXPECT_EQ(direct, (std::vector<std::string>{"quick", "fox"}));
}

TEST(WordCounter, CountsAccumulate) {
  WordCounter counter(wc::kAll);
  std::vector<std::string> a{"Dog", "dog.", "CAT"};
  counter.process(a);
  std::vector<std::string> b{"dog"};
  counter.process(b);
  const auto counts = counter.counts();
  EXPECT_EQ(counts.at("dog"), 3);
  EXPECT_EQ(counts.at("cat"), 1);
  EXPECT_EQ(counter.tokens_seen(), 4u);
}

TEST(WordCounter, FarmedCountingMatchesSequential) {
  const auto text = corpus(2'000, 7);
  const auto expected = sequential_counts(text);

  aop::Context ctx;
  using Farm = st::FarmAspect<WordCounter, std::string, long long, double>;
  Farm::Options opts;
  opts.duplicates = 3;
  opts.pack_size = 64;
  auto farm = std::make_shared<Farm>(opts);
  ctx.attach(farm);
  auto conc = std::make_shared<st::ConcurrencyAspect<WordCounter>>(
      "Concurrency");
  conc->async_method<&WordCounter::process>();
  ctx.attach(conc);

  auto first = ctx.create<WordCounter>(wc::kAll, 0.0);
  auto data = text;
  ctx.call<&WordCounter::process>(first, data);
  ctx.quiesce();

  std::map<std::string, long long> merged;
  for (const auto& w : farm->workers())
    for (const auto& [token, n] : w.local()->counts()) merged[token] += n;
  EXPECT_EQ(merged, expected);
}

TEST(WordCounter, PipelinedNormalisationMatchesSequential) {
  const auto text = corpus(1'000, 9);
  const auto expected = sequential_counts(text);

  aop::Context ctx;
  using Pipe = st::PipelineAspect<WordCounter, std::string, long long, double>;
  Pipe::Options opts;
  opts.duplicates = 3;  // lowercase | strip | drop, one bit per stage
  opts.pack_size = 50;
  opts.ctor_args = [](std::size_t i, std::size_t,
                      const std::tuple<long long, double>& orig) {
    return std::make_tuple(1LL << i, std::get<1>(orig));
  };
  auto pipe = std::make_shared<Pipe>(opts);
  ctx.attach(pipe);

  auto first = ctx.create<WordCounter>(wc::kAll, 0.0);
  auto data = text;
  ctx.call<&WordCounter::process>(first, data);
  ctx.quiesce();

  // Counting happens at the pipeline exit (the last stage's collect).
  EXPECT_EQ(pipe->stages().back().local()->counts(), expected);
}

TEST(WordCounter, DistributedFarmMovesStringsOverTheWire) {
  const auto text = corpus(1'500, 11);
  const auto expected = sequential_counts(text);

  ac::Cluster cluster(ac::Cluster::Options{3, 2});
  register_word_counter(cluster.registry());
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());

  aop::Context ctx;
  using Farm = st::FarmAspect<WordCounter, std::string, long long, double>;
  Farm::Options opts;
  opts.duplicates = 3;
  opts.pack_size = 100;
  auto farm = std::make_shared<Farm>(opts);
  ctx.attach(farm);
  auto conc = std::make_shared<st::ConcurrencyAspect<WordCounter>>(
      "Concurrency");
  conc->async_method<&WordCounter::process>();
  ctx.attach(conc);

  using Dist = st::DistributionAspect<WordCounter, long long, double>;
  auto dist = std::make_shared<Dist>("Distribution", cluster, rmi);
  dist->distribute_method<&WordCounter::process>()
      .distribute_method<&WordCounter::counts>()
      .distribute_method<&WordCounter::take_results>();
  ctx.attach(dist);

  auto first = ctx.create<WordCounter>(wc::kAll, 0.0);
  EXPECT_TRUE(first.is_remote());
  auto data = text;
  ctx.call<&WordCounter::process>(first, data);
  ctx.quiesce();

  // Merge per-worker counts fetched THROUGH the middleware: maps of
  // strings serialized back.
  std::map<std::string, long long> merged;
  for (auto& w : farm->workers()) {
    const auto counts = ctx.call<&WordCounter::counts>(w);
    for (const auto& [token, n] : counts) merged[token] += n;
  }
  EXPECT_EQ(merged, expected);
  EXPECT_GT(rmi.stats().bytes_sent.value(), 0u);
  ctx.detach("Distribution");
  ctx.quiesce();
}
