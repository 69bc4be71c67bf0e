#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>

#include "apar/common/rng.hpp"
#include "apar/common/stopwatch.hpp"
#include "apar/sieve/prime_filter.hpp"
#include "apar/sieve/workload.hpp"

using apar::sieve::PrimeFilter;
namespace sv = apar::sieve;
using sv::detail::FilterLoop;

namespace {

/// The trial division PrimeFilter::filter stands for: `%` by each of the
/// filter's primes in ascending order, up to the first divisor. Returns
/// the survivors and adds every division tried to `ops`.
std::vector<long long> reference_filter(const PrimeFilter& f,
                                        const std::vector<long long>& pack,
                                        std::uint64_t& ops) {
  std::vector<long long> survivors;
  for (const long long candidate : pack) {
    bool composite = false;
    for (const long long p : f.primes()) {
      ++ops;
      if (candidate % p == 0) {
        composite = true;
        break;
      }
    }
    if (!composite) survivors.push_back(candidate);
  }
  return survivors;
}

/// Filters `pack` through `f` and through the reference loop; both must
/// keep the same survivors and count the same divisions.
void expect_matches_reference(PrimeFilter& f, std::vector<long long> pack) {
  std::uint64_t reference_ops = 0;
  const auto expected = reference_filter(f, pack, reference_ops);
  const std::uint64_t before = f.ops();
  f.filter(pack);
  EXPECT_EQ(pack, expected);
  EXPECT_EQ(f.ops() - before, reference_ops);
}

/// Runs `pack` through one of the filter's loops and the reference loop;
/// both must keep the same survivors and count the same divisions.
void expect_loop_matches_reference(FilterLoop loop, const PrimeFilter& f,
                                   const std::vector<long long>& pack) {
  std::uint64_t reference_ops = 0;
  const auto expected = reference_filter(f, pack, reference_ops);
  std::vector<long long> survivors;
  EXPECT_EQ(loop(f, pack, survivors), reference_ops);
  EXPECT_EQ(survivors, expected);
}

/// What the AVX-512 loop needs and this host lacks.
std::string missing_avx512_feature() {
#if defined(__x86_64__)
  return "AVX-512F";
#else
  return "an x86-64 build";
#endif
}

__extension__ typedef unsigned __int128 u128;

std::uint64_t mul_mod(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>(static_cast<u128>(a) * b % m);
}

/// Miller–Rabin with the first 12 prime bases: exact for every n < 2^64.
bool is_prime(std::uint64_t n) {
  constexpr std::uint64_t kBases[] = {2,  3,  5,  7,  11, 13,
                                      17, 19, 23, 29, 31, 37};
  if (n < 2) return false;
  for (const std::uint64_t b : kBases)
    if (n % b == 0) return n == b;
  std::uint64_t d = n - 1;
  int s = 0;
  for (; d % 2 == 0; d /= 2) ++s;
  for (const std::uint64_t b : kBases) {
    std::uint64_t x = 1;
    for (std::uint64_t base = b, e = d; e != 0; e >>= 1) {
      if (e & 1) x = mul_mod(x, base, n);
      base = mul_mod(base, base, n);
    }
    if (x == 1 || x == n - 1) continue;
    bool witness = true;
    for (int r = 1; r < s && witness; ++r) {
      x = mul_mod(x, x, n);
      witness = x != n - 1;
    }
    if (witness) return false;
  }
  return true;
}

}  // namespace

TEST(Workload, Isqrt) {
  EXPECT_EQ(sv::isqrt(0), 0);
  EXPECT_EQ(sv::isqrt(1), 1);
  EXPECT_EQ(sv::isqrt(3), 1);
  EXPECT_EQ(sv::isqrt(4), 2);
  EXPECT_EQ(sv::isqrt(99), 9);
  EXPECT_EQ(sv::isqrt(100), 10);
  EXPECT_EQ(sv::isqrt(10'000'000), 3162);
}

TEST(Workload, PrimesUpToKnownValues) {
  for (const long long n : {-5LL, 0LL, 1LL})
    EXPECT_TRUE(sv::primes_up_to(n).empty()) << n;
  EXPECT_EQ(sv::primes_up_to(2), (std::vector<long long>{2}));
  EXPECT_EQ(sv::primes_up_to(3), (std::vector<long long>{2, 3}));
  EXPECT_EQ(sv::primes_up_to(4), (std::vector<long long>{2, 3}));
  EXPECT_EQ(sv::primes_up_to(20),
            (std::vector<long long>{2, 3, 5, 7, 11, 13, 17, 19}));
  // pi(10^4) = 1229, pi(10^5) = 9592, pi(10^6) = 78498 (table values).
  EXPECT_EQ(sv::count_primes_up_to(10'000), 1229);
  EXPECT_EQ(sv::count_primes_up_to(100'000), 9592);
  EXPECT_EQ(sv::count_primes_up_to(1'000'000), 78'498);
}

TEST(Workload, PrimesUpToMatchesMillerRabinAtEveryBound) {
  // Covers every n whose table ends on a prime, its square or either side.
  std::vector<long long> expected;
  for (long long n = 0; n <= 1'000; ++n) {
    if (is_prime(static_cast<std::uint64_t>(n))) expected.push_back(n);
    ASSERT_EQ(sv::primes_up_to(n), expected) << "n = " << n;
  }
}

TEST(Workload, OddCandidatesRange) {
  const auto cands = sv::odd_candidates(100);  // root = 10
  ASSERT_FALSE(cands.empty());
  EXPECT_EQ(cands.front(), 11);
  EXPECT_EQ(cands.back(), 99);
  for (long long c : cands) EXPECT_EQ(c % 2, 1);
  EXPECT_EQ(cands.size(), 45u);
}

TEST(Workload, BalancedRangesCoverBasePrimes) {
  const auto ranges = sv::balanced_prime_ranges(10'000, 4);
  ASSERT_EQ(ranges.size(), 4u);
  EXPECT_EQ(ranges.front().first, 2);
  EXPECT_EQ(ranges.back().second, 100);
  for (std::size_t i = 1; i < ranges.size(); ++i)
    EXPECT_EQ(ranges[i].first, ranges[i - 1].second + 1);
  // Every base prime falls in exactly one range; shares are balanced.
  const auto primes = sv::primes_up_to(100);  // 25 primes
  std::vector<std::size_t> counts(4, 0);
  for (long long p : primes)
    for (std::size_t i = 0; i < 4; ++i)
      if (p >= ranges[i].first && p <= ranges[i].second) ++counts[i];
  EXPECT_EQ(counts[0] + counts[1] + counts[2] + counts[3], 25u);
  for (auto c : counts) {
    EXPECT_GE(c, 6u);
    EXPECT_LE(c, 7u);
  }
}

TEST(Workload, MoreRangesThanPrimesYieldsEmptyTail) {
  const auto ranges = sv::balanced_prime_ranges(9, 5);  // primes <= 3: {2,3}
  ASSERT_EQ(ranges.size(), 5u);
  EXPECT_EQ(ranges.front().first, 2);
  EXPECT_EQ(ranges.back().second, 3);
}

TEST(PrimeFilterTest, CtorComputesPrimesInRange) {
  PrimeFilter f(5, 20);
  EXPECT_EQ(f.primes(), (std::vector<long long>{5, 7, 11, 13, 17, 19}));
  EXPECT_EQ(f.pmin(), 5);
  EXPECT_EQ(f.pmax(), 20);
}

TEST(PrimeFilterTest, EmptyRangeFiltersNothing) {
  PrimeFilter f(8, 10);  // no primes in [8, 10]
  EXPECT_TRUE(f.primes().empty());
  std::vector<long long> pack{12, 15, 21};
  f.filter(pack);
  EXPECT_EQ(pack, (std::vector<long long>{12, 15, 21}));
}

TEST(PrimeFilterTest, FilterRemovesMultiples) {
  PrimeFilter f(2, 10);  // primes 2,3,5,7
  std::vector<long long> pack{11, 12, 13, 14, 15, 49, 121, 127};
  f.filter(pack);
  // 121 = 11^2 survives (11 not in filter range); 49 = 7^2 removed.
  EXPECT_EQ(pack, (std::vector<long long>{11, 13, 121, 127}));
}

TEST(PrimeFilterTest, TwoStageFilteringEqualsOneStage) {
  // The pipeline identity: filtering by [2,5] then [6,10] equals
  // filtering by [2,10].
  std::vector<long long> pack = sv::odd_candidates(400);
  auto staged = pack;
  PrimeFilter lo(2, 5), hi(6, 10), all(2, 10);
  lo.filter(staged);
  hi.filter(staged);
  all.filter(pack);
  EXPECT_EQ(staged, pack);
}

TEST(PrimeFilterTest, ProcessCollectsSurvivors) {
  PrimeFilter f(2, 10);
  std::vector<long long> pack{11, 12, 13};
  f.process(pack);
  EXPECT_EQ(f.take_results(), (std::vector<long long>{11, 13}));
  EXPECT_TRUE(f.take_results().empty());  // drained
}

TEST(PrimeFilterTest, CollectAppends) {
  PrimeFilter f(2, 10);
  f.collect({3, 5});
  f.collect({7});
  EXPECT_EQ(f.take_results(), (std::vector<long long>{3, 5, 7}));
}

TEST(PrimeFilterTest, OpsCountTrialDivisions) {
  PrimeFilter f(2, 10);  // 4 primes
  std::vector<long long> pack{13};  // survivor: tries all 4 primes
  f.filter(pack);
  EXPECT_EQ(f.ops(), 4u);
  std::vector<long long> even{14};  // divisible by 2: 1 division
  f.filter(even);
  EXPECT_EQ(f.ops(), 5u);
}

TEST(PrimeFilterTest, FullSieveMatchesReference) {
  const long long kMax = 50'000;
  PrimeFilter f(2, sv::isqrt(kMax));
  auto candidates = sv::odd_candidates(kMax);
  f.process(candidates);
  const long long total = sv::count_primes_up_to(sv::isqrt(kMax)) +
                          static_cast<long long>(f.take_results().size());
  EXPECT_EQ(total, sv::count_primes_up_to(kMax));
}

namespace {

/// For each base prime p of `f`, p·Q and −p·Q with Q the first prime
/// above 2^62 / p, so p is their only factor among the base primes and
/// each is caught by p after every smaller prime has been tried; then the
/// edge candidates. Every magnitude but 0 and 1 is 2^32 or more, so the
/// loops take their wide path.
std::vector<long long> table_entry_pack(const PrimeFilter& f) {
  std::vector<long long> pack;
  for (const long long p : f.primes()) {
    const auto up = static_cast<std::uint64_t>(p);
    auto q = (std::uint64_t{1} << 62) / up;  // above 65,535 for every p
    while (!is_prime(q)) ++q;
    const auto product = static_cast<long long>(up * q);
    pack.push_back(product);
    pack.push_back(-product);
  }
  for (const long long edge :
       {0LL, 1LL, -1LL, LLONG_MIN, LLONG_MAX, LLONG_MAX - 1})
    pack.push_back(edge);
  return pack;
}

/// The least prime above 65,535: p · kNarrowQ < 2^32 for every p < 2^16.
constexpr long long kNarrowQ = 65'537;

/// For each base prime p of `f`, p·65,537 and its ±2 neighbours, each of
/// either sign: 65,537 is prime and above every base prime, so p is the
/// first divisor of ±p·65,537, caught by p's own table lane, while the
/// neighbours exercise the lanes before and after it. All are below 2^32.
std::vector<long long> narrow_entry_pack(const PrimeFilter& f) {
  std::vector<long long> pack;
  for (const long long p : f.primes()) {
    const long long product = p * kNarrowQ;
    for (const long long c : {product - 2, product, product + 2}) {
      pack.push_back(c);
      pack.push_back(-c);
    }
  }
  return pack;
}

/// Odd candidates over the benchmark's sieve windows (1,000,001 up), then
/// any integer in [−2^62, 2^62], odd and even, either sign.
std::vector<std::vector<long long>> seeded_packs() {
  apar::common::Rng rng(20'260'401);
  std::vector<long long> window(20'000);
  for (auto& c : window)
    c = 1'000'001 + 2 * static_cast<long long>(rng() % 1'000'100);
  std::vector<long long> wide(20'000);
  const std::uint64_t span = (std::uint64_t{1} << 63) + 1;
  for (auto& c : wide)
    c = static_cast<long long>(rng() % span - (std::uint64_t{1} << 62));
  return {window, wide};
}

}  // namespace

TEST(PrimeFilterTest, EveryTableEntryMatchesModulo) {
  PrimeFilter f(2, 65'535);
  ASSERT_EQ(f.primes().size(), 6'542u);
  expect_matches_reference(f, table_entry_pack(f));
}

TEST(PrimeFilterTest, SeededPacksMatchModulo) {
  PrimeFilter f(2, 1'739);
  for (const auto& pack : seeded_packs()) expect_matches_reference(f, pack);
}

TEST(PrimeFilterTest, DivisorTableHoldsPaddedOddPrimes) {
  for (const auto& [pmin, pmax] : {std::pair{2LL, 61LL}, std::pair{3LL, 59LL},
                                   std::pair{2LL, 2LL}, std::pair{8LL, 10LL}}) {
    SCOPED_TRACE(std::to_string(pmin) + ".." + std::to_string(pmax));
    PrimeFilter f(pmin, pmax);
    const auto& table = f.divisor_table();
    const bool two = !f.primes().empty() && f.primes().front() == 2;
    EXPECT_EQ(table.two, two);
    ASSERT_EQ(table.odd, f.primes().size() - (two ? 1 : 0));
    ASSERT_EQ(sv::detail::DivisorTable::kLanes, 16u);
    ASSERT_EQ(table.inverse.size(), (table.odd + 15) / 16 * 16);
    ASSERT_EQ(table.limit.size(), table.inverse.size());
    for (std::size_t i = 0; i < table.inverse.size(); ++i) {
      if (i >= table.odd) {  // pad lane
        EXPECT_EQ(table.inverse[i], 1u) << i;
        EXPECT_EQ(table.limit[i], 0u) << i;
        continue;
      }
      const auto q = static_cast<std::uint32_t>(f.primes()[i + (two ? 1 : 0)]);
      EXPECT_EQ(static_cast<std::uint32_t>(q * table.inverse[i]), 1u) << q;
      EXPECT_EQ(table.limit[i], UINT32_MAX / q) << q;
    }
  }
}

// The 16-lane loop reads the arrays with aligned loads, one cache line
// each. Filters of several sizes, built between allocations of odd sizes,
// and a copy of one, so that `malloc`'s own 16-byte alignment would put
// some of them mid-line.
TEST(PrimeFilterTest, DivisorTableStartsOnACacheLine) {
  std::vector<PrimeFilter> filters;
  std::vector<std::vector<char>> spacers;
  for (const long long pmax : {61LL, 1'732LL, 1'789LL, 65'535LL, 7LL}) {
    spacers.emplace_back(static_cast<std::size_t>(pmax % 97) * 16 + 8);
    filters.emplace_back(2, pmax);
  }
  filters.push_back(filters[1]);
  for (const PrimeFilter& f : filters) {
    const auto& table = f.divisor_table();
    SCOPED_TRACE(std::to_string(table.inverse.size()) + " lanes");
    ASSERT_FALSE(table.inverse.empty());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(table.inverse.data()) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(table.limit.data()) % 64, 0u);
  }
}

namespace {

struct LoopCase {
  const char* name;
  FilterLoop (*loop)();  // null when this host cannot run the loop
};

void PrintTo(const LoopCase& loop, std::ostream* os) { *os << loop.name; }

FilterLoop scalar_loop() { return &sv::detail::filter_scalar; }

/// Each of PrimeFilter's loops against `%`, not only the one this host's
/// `filter` picks: the scalar loop everywhere, the AVX-512 loop where the
/// CPU has AVX-512F.
class PrimeFilterLoop : public ::testing::TestWithParam<LoopCase> {
 protected:
  void SetUp() override {
    loop_ = GetParam().loop();
    if (loop_ == nullptr)
      GTEST_SKIP() << GetParam().name << " loop needs "
                   << missing_avx512_feature() << ", which this host lacks";
  }

  FilterLoop loop_ = nullptr;
};

}  // namespace

TEST_P(PrimeFilterLoop, EveryTableEntryMatchesModulo) {
  PrimeFilter f(2, 65'535);
  ASSERT_EQ(f.primes().size(), 6'542u);
  // Every entry through the lanes and through the wide path, in one pack
  // that switches between the two.
  const auto narrow = narrow_entry_pack(f);
  const auto wide = table_entry_pack(f);
  std::vector<long long> pack;
  for (std::size_t i = 0; i < narrow.size(); ++i) {
    pack.push_back(narrow[i]);
    if (i < wide.size()) pack.push_back(wide[i]);
  }
  expect_loop_matches_reference(loop_, f, pack);
}

TEST_P(PrimeFilterLoop, SeededPacksMatchModulo) {
  // With and without the parity test for 2.
  for (const long long pmin : {2LL, 3LL}) {
    PrimeFilter f(pmin, 1'739);
    SCOPED_TRACE("pmin " + std::to_string(pmin));
    for (const auto& pack : seeded_packs())
      expect_loop_matches_reference(loop_, f, pack);
  }
}

TEST_P(PrimeFilterLoop, OddPrimeCountsOnAndOffTheLaneWidth) {
  // 16 odd primes fill one vector of 16 lanes exactly; 17 leave 15 pad
  // lanes.
  for (const auto& [pmin, pmax, odd] :
       {std::tuple{2LL, 59LL, 16u}, std::tuple{3LL, 59LL, 16u},
        std::tuple{2LL, 61LL, 17u}, std::tuple{3LL, 61LL, 17u}}) {
    PrimeFilter f(pmin, pmax);
    SCOPED_TRACE(std::to_string(pmin) + ".." + std::to_string(pmax));
    ASSERT_EQ(f.divisor_table().odd, odd);
    expect_loop_matches_reference(loop_, f, table_entry_pack(f));
    for (const auto& pack : seeded_packs())
      expect_loop_matches_reference(loop_, f, pack);
  }
}

TEST_P(PrimeFilterLoop, OnlyThePrimeTwo) {
  PrimeFilter f(2, 2);
  ASSERT_EQ(f.divisor_table().odd, 0u);
  std::vector<long long> pack;
  for (long long c = -9; c <= 9; ++c) pack.push_back(c);
  expect_loop_matches_reference(loop_, f, pack);
  expect_loop_matches_reference(loop_, f, seeded_packs().back());
}

TEST_P(PrimeFilterLoop, EdgeCandidatesInEveryShapeOfTable) {
  // Either side of the table's width: 2^32 − 1 = 3·5·17·257·65,537 is
  // the widest magnitude the lanes test, 2^32 the narrowest one the wide
  // path does, and 2^32 + 1 = 641·6,700,417. Without 2 in the table, 2^32
  // survives: it must not reach the lanes, where its low 32 bits (0)
  // would match the first entry.
  constexpr long long kTwo32 = 1LL << 32;
  const std::vector<long long> edges{
      0,          1,      -1,      LLONG_MIN,  LLONG_MAX,  kTwo32 - 1,
      1 - kTwo32, kTwo32, -kTwo32, kTwo32 + 1, -kTwo32 - 1};
  for (const auto& [pmin, pmax] :
       {std::pair{2LL, 1'739LL}, std::pair{3LL, 1'739LL}, std::pair{2LL, 2LL},
        std::pair{2LL, 59LL}, std::pair{3LL, 61LL}, std::pair{8LL, 10LL}}) {
    PrimeFilter f(pmin, pmax);
    SCOPED_TRACE(std::to_string(pmin) + ".." + std::to_string(pmax));
    expect_loop_matches_reference(loop_, f, edges);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Loops, PrimeFilterLoop,
    ::testing::Values(LoopCase{"Scalar", scalar_loop},
                      LoopCase{"Avx512", sv::detail::filter_avx512}),
    [](const ::testing::TestParamInfo<LoopCase>& info) {
      return std::string(info.param.name);
    });

TEST(PrimeFilterTest, WorkModelSleepsProportionally) {
  PrimeFilter slow(2, 100, 50'000.0);  // 50 us per division
  std::vector<long long> pack{101};    // survivor: 25 divisions
  apar::common::Stopwatch sw;
  slow.filter(pack);
  EXPECT_GE(sw.millis(), 1.0);  // 25 x 50us = 1.25 ms
}
