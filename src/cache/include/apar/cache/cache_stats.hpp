#pragma once

#include "apar/obs/counters.hpp"

namespace apar::cache {

/// Cache traffic counters, exposed like cluster::MiddlewareStats: one
/// relaxed atomic per event class so tests and dashboards can assert on
/// exactly what the cache did, exported as cache.<field>{cache} next to
/// the cache.entries / cache.bytes levels. Counter semantics (the
/// contract the model-based test replays against a reference
/// implementation):
///
///   gets        lookups of any flavour (get / get_or_compute)
///   hits        lookups answered from a live entry
///   misses      lookups that found nothing usable (absent or expired);
///               get_or_compute counts the computing leader here
///   coalesced   get_or_compute callers that waited on another thread's
///               in-flight computation instead of recomputing (neither a
///               hit nor a miss: the entry did not exist yet, but no
///               second compute ran either)
///   inserts     put() calls and successful leader computations (an
///               overwrite of a live key counts — it replaces the value)
///   evictions   entries removed to satisfy the entry or byte bound
///   expiries    entries removed because their TTL had lapsed
///   erases      explicit erase() removals
///
/// Exactness invariant (asserted by tests/cache):
///   gets == hits + misses + coalesced
#define APAR_CACHE_STATS_FIELDS(X) \
  X(gets) X(hits) X(misses) X(coalesced) X(inserts) X(evictions) X(expiries) \
  X(erases)
APAR_OBS_COUNTER_SET(CacheStats, APAR_CACHE_STATS_FIELDS);

}  // namespace apar::cache
