#include "apar/sieve/workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

namespace apar::sieve {

long long isqrt(long long n) {
  if (n < 0) return 0;
  long long r = 0;
  while ((r + 1) * (r + 1) <= n) ++r;
  return r;
}

long long sieve_root(long long max) {
  if (max < 2) return isqrt(max);
  return std::max<long long>(isqrt(max), 2);
}

std::vector<long long> primes_up_to(long long n) {
  std::vector<long long> primes;
  if (n < 2) return primes;
  // pi(n) < 1.25506 n / ln n for n > 1 (Rosser & Schoenfeld, 1962).
  primes.reserve(static_cast<std::size_t>(
      1.25506 * static_cast<double>(n) / std::log(static_cast<double>(n)) +
      1.0));
  primes.push_back(2);
  // Odd numbers only: composite[i] stands for 2i + 1 (index 0, the
  // number 1, is never read), so the table holds n/2 bits.
  const auto slots = static_cast<std::size_t>((n - 1) / 2) + 1;
  std::vector<bool> composite(slots, false);
  std::size_t i = 1;
  for (; i < slots; ++i) {
    if (composite[i]) continue;
    const auto p = static_cast<long long>(2 * i + 1);
    if (p > n / p) break;  // every composite left has a factor below p
    primes.push_back(p);
    // p², p² + 2p, ...: the odd multiples of p not yet struck out.
    const auto step = static_cast<std::size_t>(p);
    for (auto m = static_cast<std::size_t>(p * p / 2); m < slots; m += step)
      composite[m] = true;
  }
  for (; i < slots; ++i)
    if (!composite[i]) primes.push_back(static_cast<long long>(2 * i + 1));
  return primes;
}

long long count_primes_up_to(long long n) {
  return static_cast<long long>(primes_up_to(n).size());
}

std::vector<long long> odd_candidates(long long max) {
  std::vector<long long> out;
  const long long root = sieve_root(max);
  long long first = root + 1;
  if (first % 2 == 0) ++first;
  if (first < 3) first = 3;
  out.reserve(static_cast<std::size_t>((max - first) / 2 + 1));
  for (long long x = first; x <= max; x += 2) out.push_back(x);
  return out;
}

std::vector<std::pair<long long, long long>> balanced_prime_ranges(
    long long max, std::size_t k) {
  if (k == 0) k = 1;
  const long long root = sieve_root(max);
  const auto primes = primes_up_to(root);
  std::vector<std::pair<long long, long long>> ranges;
  ranges.reserve(k);
  const std::size_t total = primes.size();
  std::size_t begin = 0;
  long long lo = 2;
  for (std::size_t i = 0; i < k; ++i) {
    // Primes are distributed as evenly as possible: the first (total % k)
    // ranges get one extra.
    const std::size_t share = total / k + (i < total % k ? 1 : 0);
    const std::size_t end = begin + share;
    const long long hi =
        (i + 1 == k) ? root : (end > 0 && end <= total ? primes[end - 1] : lo);
    ranges.emplace_back(lo, hi);
    lo = hi + 1;
    begin = end;
  }
  return ranges;
}

}  // namespace apar::sieve
