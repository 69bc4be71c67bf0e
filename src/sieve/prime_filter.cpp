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

#if defined(__x86_64__)
__attribute__((target("avx512f,avx512dq"))) std::uint64_t filter_8_lanes(
    const DivisorTable& table, const std::vector<long long>& pack,
    std::vector<long long>& survivors) {
  const std::size_t lanes = table.inverse.size();
  std::uint64_t divisions = 0;
  for (const long long candidate : pack) {
    const std::uint64_t m = magnitude(candidate);
    if (table.two) {
      ++divisions;
      if (m % 2 == 0) continue;
    }
    const __m512i broadcast = _mm512_set1_epi64(static_cast<long long>(m));
    std::size_t first = lanes;  // index of the first divisor
    for (std::size_t i = 0; i < lanes; i += DivisorTable::kLanes) {
      const __m512i product = _mm512_mullo_epi64(
          broadcast, _mm512_loadu_si512(table.inverse.data() + i));
      const __mmask8 divides = _mm512_cmple_epu64_mask(
          product, _mm512_loadu_si512(table.limit.data() + i));
      if (divides != 0) {
        first = i + static_cast<std::size_t>(
                        std::countr_zero(static_cast<unsigned>(divides)));
        break;
      }
    }
    if (first == lanes) {
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

std::uint64_t filter_scalar(const DivisorTable& table,
                            const std::vector<long long>& pack,
                            std::vector<long long>& survivors) {
  std::uint64_t divisions = 0;
  for (const long long candidate : pack) {
    const std::uint64_t m = magnitude(candidate);
    if (table.two) {
      ++divisions;
      if (m % 2 == 0) continue;
    }
    std::size_t first = 0;  // index of the first divisor
    while (first < table.odd &&
           m * table.inverse[first] > table.limit[first])
      ++first;
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
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq"))
    return &filter_8_lanes;
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
    const auto q = static_cast<std::uint64_t>(*it);
    // Newton's iteration x <- x(2 - qx) doubles the correct low bits; an
    // odd q is its own inverse mod 8, so 3 -> 6 -> 12 -> 24 -> 48 -> 96.
    std::uint64_t inverse = q;
    for (int step = 0; step < 5; ++step) inverse *= 2 - q * inverse;
    table_.inverse.push_back(inverse);
    table_.limit.push_back(std::numeric_limits<std::uint64_t>::max() / q);
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
  const std::uint64_t divisions = loop(table_, pack, scratch_);
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
