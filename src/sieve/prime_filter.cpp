#include "apar/sieve/prime_filter.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <thread>

#include "apar/sieve/workload.hpp"

namespace apar::sieve {

PrimeFilter::PrimeFilter(long long pmin, long long pmax, double ns_per_op)
    : pmin_(pmin), pmax_(pmax), ns_per_op_(ns_per_op) {
  const std::vector<long long> all = primes_up_to(pmax);
  const auto first = std::lower_bound(all.begin(), all.end(), pmin);
  const auto count = static_cast<std::size_t>(all.end() - first);
  primes_.reserve(count);
  divisors_.reserve(count);
  for (auto it = first; it != all.end(); ++it) {
    const auto p = static_cast<std::uint64_t>(*it);
    const int shift = std::countr_zero(p);
    const std::uint64_t q = p >> shift;
    // Newton's iteration x <- x(2 - qx) doubles the correct low bits; an
    // odd q is its own inverse mod 8, so 3 -> 6 -> 12 -> 24 -> 48 -> 96.
    std::uint64_t inverse = q;
    for (int step = 0; step < 5; ++step) inverse *= 2 - q * inverse;
    primes_.push_back(*it);
    divisors_.push_back(
        {inverse, std::numeric_limits<std::uint64_t>::max() / p, shift});
  }
}

void PrimeFilter::filter(std::vector<long long>& pack) {
  std::uint64_t divisions = 0;
  scratch_.clear();
  for (const long long candidate : pack) {
    // |candidate| as unsigned, so 0, negatives and LLONG_MIN divide as `%`.
    const auto bits = static_cast<std::uint64_t>(candidate);
    const std::uint64_t magnitude = candidate < 0 ? 0 - bits : bits;
    bool composite = false;
    for (const Divisor& d : divisors_) {
      ++divisions;
      if (std::rotr(magnitude * d.inverse, d.shift) <= d.limit) {
        composite = true;
        break;
      }
    }
    if (!composite) scratch_.push_back(candidate);
  }
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
