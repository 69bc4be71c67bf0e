#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "apar/aop/signature.hpp"

namespace apar::sieve {

class PrimeFilter;

namespace detail {

/// Allocates on a 64-byte boundary, so that each 16-lane load of the
/// divisor table reads one cache line. `malloc` alone aligns to 16 bytes,
/// and where in a line it put the arrays depended on what the process had
/// allocated before: farm duplicates built in one process drew different
/// offsets, and with the inverses off a line boundary the 16-lane loop
/// ran ~15% slower.
template <class T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlignment{64};

  CacheLineAllocator() = default;
  template <class U>
  constexpr CacheLineAllocator(
      const CacheLineAllocator<U>& /*other*/) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlignment));
  }
  void deallocate(T* p, std::size_t /*n*/) noexcept {
    ::operator delete(p, kAlignment);
  }
  bool operator==(const CacheLineAllocator& /*other*/) const = default;
};

/// PrimeFilter's divisor table. For m < 2^32, an odd q divides m iff
/// m · q⁻¹ mod 2^32 is at most floor((2^32 − 1) / q) (Granlund &
/// Montgomery, PLDI 1994), so the odd base primes are stored, ascending,
/// as those two 32-bit numbers in two arrays; a prime of 2^32 or more,
/// which divides no such m but 0, is stored as {1, 0}. The arrays are
/// padded to a multiple of kLanes entries with {inverse 1, limit 0}: a pad
/// entry matches only m = 0, which the first real entry matches already,
/// so a pad entry is never the first divisor. Both arrays start on a
/// cache line. The prime 2 is a parity test, not an entry.
struct DivisorTable {
  static constexpr std::size_t kLanes = 16;
  using Array = std::vector<std::uint32_t, CacheLineAllocator<std::uint32_t>>;

  bool two = false;     ///< 2 is a base prime: tested first, by parity
  std::size_t odd = 0;  ///< real entries; the arrays are padded past them
  Array inverse;  ///< q⁻¹ mod 2^32
  Array limit;    ///< floor((2^32 − 1) / q)
};

/// The loops `PrimeFilter::filter` chooses between, named so that tests
/// can run each one. A loop appends the candidates of `pack` that none of
/// `filter`'s base primes divides to `survivors` and returns the trial
/// divisions made: primes in ascending order up to the first divisor,
/// each try counted. A candidate of magnitude 2^32 or more, which only
/// tests make, is divided by `filter.primes()` with `%` in either loop.
using FilterLoop = std::uint64_t (*)(const PrimeFilter& filter,
                                     const std::vector<long long>& pack,
                                     std::vector<long long>& survivors);

/// One table entry at a time: `uint32(m * inverse) <= limit`.
std::uint64_t filter_scalar(const PrimeFilter& filter,
                            const std::vector<long long>& pack,
                            std::vector<long long>& survivors);

/// Sixteen table entries per AVX-512F multiply and compare, or null when
/// this build is not x86-64 or this CPU lacks AVX-512F.
FilterLoop filter_avx512();

}  // namespace detail

/// The paper's core functionality (§5.1): a prime filter holding the base
/// primes of a range, able to remove their multiples from packs of
/// candidate numbers. Deliberately sequential and NOT thread safe (the
/// scratch buffer is shared across calls) — protecting it is the
/// concurrency aspect's job, exactly as in the paper.
///
/// `filter` is trial division without the divide instruction, over the
/// `detail::DivisorTable` the constructor builds: a candidate's magnitude
/// |c| is even iff 2 divides it, and for |c| < 2^32 an odd base prime q
/// divides it iff uint32(|c| · q⁻¹) <= floor((2^32 − 1) / q). On a CPU
/// with AVX-512F one vector multiply and one unsigned compare test |c|
/// against 16 primes, and the lowest matching lane is the first divisor;
/// elsewhere a scalar loop tests one prime per multiply. The CPU picks the
/// loop once per process; nothing else selects it. Every candidate a
/// workload makes is below 2^32; a wider one is divided by the base
/// primes with `%`. Either loop counts the primes tried in ascending order
/// up to the first divisor, so `ops()` still counts the trial divisions
/// `%` would have made.
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

  /// The base primes as `filter` tests them.
  [[nodiscard]] const detail::DivisorTable& divisor_table() const {
    return table_;
  }

 private:
  void charge(std::uint64_t ops_delta);

  long long pmin_;
  long long pmax_;
  double ns_per_op_;
  std::vector<long long> primes_;
  detail::DivisorTable table_;  // primes_ as filter tests them
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
