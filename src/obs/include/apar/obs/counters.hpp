#pragma once

#include <cstdint>
#include <string_view>
#include <utility>

#include "apar/obs/metrics.hpp"

/// APAR_OBS_COUNTER_SET(Name, FIELDS) declares a component's counters from
/// ONE field list, given as an X-macro:
///
///   #define APAR_CACHE_STATS_FIELDS(X) X(gets) X(hits) X(misses)
///   APAR_OBS_COUNTER_SET(CacheStats, APAR_CACHE_STATS_FIELDS);
///
/// The struct it declares has
///
///   - one obs::Counter per field, a relaxed atomic: `stats.hits.add()` on
///     the hot path, `stats.hits.value()` for the exact in-process count;
///   - Snapshot, a copyable plain-integer view with +, -, == and
///     for_each(fn(name, value)), and snapshot() to take one;
///   - export_as(prefix, labels[, registry]), which lists every field in
///     the (global) registry as counter "<prefix>.<field>"{labels} until
///     the set is destroyed. A scrape reads these same atomics, so what a
///     test asserts on and what telemetry exports cannot drift apart;
///   - store(), which overwrites every field — for aggregate views that
///     are recomputed from live sets and never exported.
///
/// Adding a counter is one edit to the field list; nothing else enumerates
/// the fields.
#define APAR_OBS_COUNTER_SET(Name, FIELDS)                                   \
  struct Name {                                                              \
    FIELDS(APAR_OBS_DETAIL_COUNTER)                                          \
                                                                             \
    struct Snapshot {                                                        \
      FIELDS(APAR_OBS_DETAIL_VALUE)                                          \
                                                                             \
      Snapshot& operator+=(const Snapshot& o) {                              \
        FIELDS(APAR_OBS_DETAIL_ADD)                                          \
        return *this;                                                        \
      }                                                                      \
      Snapshot& operator-=(const Snapshot& o) {                              \
        FIELDS(APAR_OBS_DETAIL_SUB)                                          \
        return *this;                                                        \
      }                                                                      \
      friend Snapshot operator+(Snapshot a, const Snapshot& b) {             \
        return a += b;                                                       \
      }                                                                      \
      friend Snapshot operator-(Snapshot a, const Snapshot& b) {             \
        return a -= b;                                                       \
      }                                                                      \
      friend bool operator==(const Snapshot&, const Snapshot&) = default;    \
      template <class Fn>                                                    \
      void for_each(Fn&& fn) const {                                         \
        FIELDS(APAR_OBS_DETAIL_VISIT)                                        \
      }                                                                      \
    };                                                                       \
                                                                             \
    [[nodiscard]] Snapshot snapshot() const {                                \
      Snapshot s;                                                            \
      FIELDS(APAR_OBS_DETAIL_LOAD)                                           \
      return s;                                                              \
    }                                                                        \
    /* Overwrite every field: for unexported aggregate views only. */       \
    void store(const Snapshot& s) { FIELDS(APAR_OBS_DETAIL_STORE) }          \
                                                                             \
    void export_as(std::string_view prefix, ::apar::obs::Labels labels,     \
                   ::apar::obs::MetricsRegistry& registry =                 \
                       ::apar::obs::MetricsRegistry::global()) {            \
      const ::apar::obs::CounterField fields[] = {                           \
          FIELDS(APAR_OBS_DETAIL_FIELD)};                                    \
      exported_ = registry.export_counters(prefix, std::move(labels), fields); \
    }                                                                        \
                                                                             \
   private:                                                                  \
    /* Last member: unlisted before the counters it reads are destroyed. */ \
    ::apar::obs::Export exported_;                                           \
  }

#define APAR_OBS_DETAIL_COUNTER(f) ::apar::obs::Counter f;
#define APAR_OBS_DETAIL_VALUE(f) std::uint64_t f = 0;
#define APAR_OBS_DETAIL_ADD(f) f += o.f;
#define APAR_OBS_DETAIL_SUB(f) f -= o.f;
#define APAR_OBS_DETAIL_VISIT(f) fn(std::string_view(#f), f);
#define APAR_OBS_DETAIL_LOAD(f) s.f = f.value();
#define APAR_OBS_DETAIL_STORE(f) f.store(s.f);
#define APAR_OBS_DETAIL_FIELD(f) ::apar::obs::CounterField{#f, &f},
