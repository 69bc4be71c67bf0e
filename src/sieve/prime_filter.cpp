#include "apar/sieve/prime_filter.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <thread>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "apar/sieve/workload.hpp"

namespace apar::sieve {

namespace detail {
namespace {

/// |candidate| as unsigned, so 0, negatives and LLONG_MIN divide as `%`.
std::uint64_t magnitude(long long candidate) {
  const auto bits = static_cast<std::uint64_t>(candidate);
  return candidate < 0 ? 0 - bits : bits;
}

/// Whether the divisor table's 32-bit test holds for magnitude `m`.
bool narrow(std::uint64_t m) {
  return m <= std::numeric_limits<std::uint32_t>::max();
}

/// Index of the first odd base prime dividing `m`, by `%`, or `odd` when
/// none does: the path of a candidate too wide for the table.
std::size_t first_wide_divisor(const PrimeFilter& filter, std::uint64_t m) {
  const DivisorTable& table = filter.divisor_table();
  const long long* odd_primes = filter.primes().data() + (table.two ? 1 : 0);
  std::size_t first = 0;
  while (first < table.odd &&
         m % static_cast<std::uint64_t>(odd_primes[first]) != 0)
    ++first;
  return first;
}

#if defined(__x86_64__)
__attribute__((target("avx512f"))) std::uint64_t filter_16_lanes(
    const PrimeFilter& filter, const std::vector<long long>& pack,
    std::vector<long long>& survivors) {
  const DivisorTable& table = filter.divisor_table();
  const std::size_t lanes = table.inverse.size();
  std::uint64_t divisions = 0;
  for (const long long candidate : pack) {
    const std::uint64_t m = magnitude(candidate);
    if (table.two) {
      ++divisions;
      if (m % 2 == 0) continue;
    }
    std::size_t first = table.odd;  // index of the first divisor
    if (!narrow(m)) {
      first = first_wide_divisor(filter, m);
    } else {
      const __m512i broadcast = _mm512_set1_epi32(static_cast<int>(m));
      for (std::size_t i = 0; i < lanes; i += DivisorTable::kLanes) {
        const __m512i product = _mm512_mullo_epi32(
            broadcast, _mm512_load_si512(table.inverse.data() + i));
        const __mmask16 divides = _mm512_cmple_epu32_mask(
            product, _mm512_load_si512(table.limit.data() + i));
        if (divides != 0) {
          first = i + static_cast<std::size_t>(
                          std::countr_zero(static_cast<unsigned>(divides)));
          break;
        }
      }
    }
    if (first == table.odd) {
      divisions += table.odd;
      survivors.push_back(candidate);
    } else {
      divisions += first + 1;
    }
  }
  return divisions;
}
#endif

}  // namespace

std::uint64_t filter_scalar(const PrimeFilter& filter,
                            const std::vector<long long>& pack,
                            std::vector<long long>& survivors) {
  const DivisorTable& table = filter.divisor_table();
  std::uint64_t divisions = 0;
  for (const long long candidate : pack) {
    const std::uint64_t m = magnitude(candidate);
    if (table.two) {
      ++divisions;
      if (m % 2 == 0) continue;
    }
    std::size_t first = 0;  // index of the first divisor
    if (!narrow(m)) {
      first = first_wide_divisor(filter, m);
    } else {
      const auto m32 = static_cast<std::uint32_t>(m);
      while (first < table.odd &&
             static_cast<std::uint32_t>(m32 * table.inverse[first]) >
                 table.limit[first])
        ++first;
    }
    if (first == table.odd) {
      divisions += table.odd;
      survivors.push_back(candidate);
    } else {
      divisions += first + 1;
    }
  }
  return divisions;
}

FilterLoop filter_avx512() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return &filter_16_lanes;
#endif
  return nullptr;
}

}  // namespace detail

PrimeFilter::PrimeFilter(long long pmin, long long pmax, double ns_per_op)
    : pmin_(pmin), pmax_(pmax), ns_per_op_(ns_per_op) {
  const std::vector<long long> all = primes_up_to(pmax);
  const auto first = std::lower_bound(all.begin(), all.end(), pmin);
  const auto count = static_cast<std::size_t>(all.end() - first);
  table_.two = count != 0 && *first == 2;
  table_.odd = count - (table_.two ? 1 : 0);
  constexpr std::size_t kLanes = detail::DivisorTable::kLanes;
  const std::size_t padded = (table_.odd + kLanes - 1) / kLanes * kLanes;
  primes_.reserve(count);
  table_.inverse.reserve(padded);
  table_.limit.reserve(padded);
  for (auto it = first; it != all.end(); ++it) {
    primes_.push_back(*it);
    if (*it == 2) continue;
    if (!detail::narrow(static_cast<std::uint64_t>(*it))) {
      // Divides no 32-bit magnitude but 0: an entry that matches only 0.
      table_.inverse.push_back(1);
      table_.limit.push_back(0);
      continue;
    }
    const auto q = static_cast<std::uint32_t>(*it);
    // Newton's iteration x <- x(2 - qx) doubles the correct low bits; an
    // odd q is its own inverse mod 8, so 3 -> 6 -> 12 -> 24 -> 48.
    std::uint32_t inverse = q;
    for (int step = 0; step < 4; ++step) inverse *= 2 - q * inverse;
    table_.inverse.push_back(inverse);
    table_.limit.push_back(std::numeric_limits<std::uint32_t>::max() / q);
  }
  table_.inverse.resize(padded, 1);
  table_.limit.resize(padded, 0);
}

void PrimeFilter::filter(std::vector<long long>& pack) {
  static const detail::FilterLoop loop = [] {
    const detail::FilterLoop lanes = detail::filter_avx512();
    return lanes != nullptr ? lanes : &detail::filter_scalar;
  }();
  scratch_.clear();
  const std::uint64_t divisions = loop(*this, pack, scratch_);
  pack = scratch_;
  ops_ += divisions;
  charge(divisions);
}

void PrimeFilter::process(std::vector<long long>& pack) {
  filter(pack);
  collect(pack);
}

void PrimeFilter::collect(const std::vector<long long>& pack) {
  found_.insert(found_.end(), pack.begin(), pack.end());
}

std::vector<long long> PrimeFilter::take_results() {
  std::vector<long long> out;
  out.swap(found_);
  return out;
}

void PrimeFilter::charge(std::uint64_t ops_delta) {
  if (ns_per_op_ <= 0.0 || ops_delta == 0) return;
  // Simulated compute: sleeping (rather than spinning) lets concurrent
  // filters overlap on the single-core host the way real machines would.
  std::this_thread::sleep_for(std::chrono::duration<double, std::nano>(
      ns_per_op_ * static_cast<double>(ops_delta)));
}

}  // namespace apar::sieve
