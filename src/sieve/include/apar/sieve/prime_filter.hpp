#pragma once

#include <cstdint>
#include <vector>

#include "apar/aop/signature.hpp"

namespace apar::sieve {

/// The paper's core functionality (§5.1): a prime filter holding the base
/// primes of a range, able to remove their multiples from packs of
/// candidate numbers. Deliberately sequential and NOT thread safe (the
/// scratch buffer is shared across calls) — protecting it is the
/// concurrency aspect's job, exactly as in the paper.
///
/// `filter` is trial division without the divide instruction. The
/// constructor stores, per base prime p = 2^k·q (q odd), q's inverse mod
/// 2^64, floor((2^64 − 1) / p) and k; |c| is then divisible by p iff
/// rotr(|c| · q⁻¹, k) <= that limit (Granlund & Montgomery, PLDI 1994):
/// one multiply and one compare in place of a 64-bit `%`. Candidates are
/// tried against the primes in ascending order up to the first divisor,
/// so `ops()` still counts the trial divisions `%` would have made.
///
/// The third constructor argument is the *work model*: simulated
/// nanoseconds charged per trial division actually performed. On the
/// single-core reproduction host this calibrated sleep stands in for the
/// paper's real Xeon compute so that concurrent filters overlap like real
/// machines would (see DESIGN.md, "Substitutions"); 0 disables it.
class PrimeFilter {
 public:
  /// Computes the base primes in [pmin, pmax] (inclusive).
  PrimeFilter(long long pmin, long long pmax, double ns_per_op = 0.0);

  /// Remove from `pack` every number divisible by one of this filter's
  /// base primes. Candidates must exceed pmax (true for sieve packs, which
  /// start above sqrt(max)).
  void filter(std::vector<long long>& pack);

  /// Full sequential semantics: filter the pack and retain the survivors
  /// as results. What core functionality calls; what a farm worker runs.
  void process(std::vector<long long>& pack);

  /// Retain an already fully-filtered pack (pipeline exit).
  void collect(const std::vector<long long>& pack);

  /// Move the retained results out (empties the internal buffer).
  std::vector<long long> take_results();

  [[nodiscard]] const std::vector<long long>& primes() const {
    return primes_;
  }
  [[nodiscard]] long long pmin() const { return pmin_; }
  [[nodiscard]] long long pmax() const { return pmax_; }

  /// Trial divisions performed so far (the work-model currency).
  [[nodiscard]] std::uint64_t ops() const { return ops_; }

 private:
  /// One base prime p = 2^shift · q, q odd, as `filter` tests it.
  struct Divisor {
    std::uint64_t inverse;  // q⁻¹ mod 2^64
    std::uint64_t limit;    // floor((2^64 − 1) / p)
    int shift;
  };

  void charge(std::uint64_t ops_delta);

  long long pmin_;
  long long pmax_;
  double ns_per_op_;
  std::vector<long long> primes_;
  std::vector<Divisor> divisors_;  // primes_[i]'s test, same order
  std::vector<long long> scratch_;  // shared across calls: NOT thread safe
  std::vector<long long> found_;
  std::uint64_t ops_ = 0;
};

}  // namespace apar::sieve

APAR_CLASS_NAME(apar::sieve::PrimeFilter, "PrimeFilter");
APAR_METHOD_NAME(&apar::sieve::PrimeFilter::filter, "filter");
// filter's observable effect — the surviving pack — depends only on the
// pack values and the construction-fixed base primes, so a sieve segment
// is memoisable. ops() is a diagnostic, not part of the contract.
// process/collect/take_results mutate retained state and are NOT declared.
APAR_METHOD_IDEMPOTENT(&apar::sieve::PrimeFilter::filter);
APAR_METHOD_NAME(&apar::sieve::PrimeFilter::process, "process");
APAR_METHOD_NAME(&apar::sieve::PrimeFilter::collect, "collect");
APAR_METHOD_NAME(&apar::sieve::PrimeFilter::take_results, "take_results");

// Declared effect sets (per instance): "primes" is the construction-fixed
// base-prime table, "scratch" the shared survivor buffer, "results" the
// retained-pack store. ops_ is a diagnostic, outside the contract — same
// position the idempotency declaration above takes.
APAR_METHOD_READS(&apar::sieve::PrimeFilter::filter, "primes");
APAR_METHOD_WRITES(&apar::sieve::PrimeFilter::filter, "scratch");
APAR_METHOD_READS(&apar::sieve::PrimeFilter::process, "primes");
APAR_METHOD_WRITES(&apar::sieve::PrimeFilter::process, "scratch");
APAR_METHOD_WRITES(&apar::sieve::PrimeFilter::process, "results");
APAR_METHOD_WRITES(&apar::sieve::PrimeFilter::collect, "results");
APAR_METHOD_WRITES(&apar::sieve::PrimeFilter::take_results, "results");
// Every filter/process call clears "scratch" before reading it, so a
// memoized hit that skips the write is replay-equivalent — which is why
// caching filter is sound. It is still shared mutable state for the race
// analysis: unguarded concurrent filters racing on scratch stay an error.
APAR_STATE_IDEMPOTENT(apar::sieve::PrimeFilter, "scratch");
