#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "apar/aop/aop.hpp"
#include "apar/cache/sharded_lru.hpp"
#include "apar/serial/archive.hpp"
#include "apar/serial/wire_types.hpp"

namespace apar::cache {

namespace detail {

/// Copy-restore a decoded reply value into a by-reference parameter (the
/// same convention the distribution aspect uses, so a cache hit mutates
/// the caller's arguments exactly like the re-executed call would).
template <class Arg>
void read_restore(serial::Reader& reader, Arg& arg) {
  std::decay_t<Arg> tmp{};
  reader.value(tmp);
  arg = std::move(tmp);
}
template <class Arg>
void read_restore(serial::Reader& reader, const Arg& arg) {
  std::decay_t<Arg> tmp{};
  reader.value(tmp);
  (void)arg;  // const parameter: the recorded value is discarded
}

/// Cache metadata for the weave-plan analyzer: one WireArg per argument
/// plus one for a non-void result (everything the recorded effect has to
/// encode). Also notes every type in the global TypeRegistry.
template <class R, class... A>
std::vector<aop::WireArg> note_cache_args(
    std::type_identity<std::tuple<A...>>) {
  (serial::TypeRegistry::global().note<A>(), ...);
  std::vector<aop::WireArg> out{aop::WireArg{
      serial::wire_type_name<A>(), serial::kWireSerializable<A>}...};
  if constexpr (!std::is_void_v<R>) {
    serial::TypeRegistry::global().note<std::remove_cvref_t<R>>();
    out.push_back(aop::WireArg{
        serial::wire_type_name<std::remove_cvref_t<R>>(),
        serial::kWireSerializable<R> && !std::is_reference_v<R>});
  }
  return out;
}

}  // namespace detail

/// What distinguishes two targets in the cache key.
enum class KeyScope {
  /// Key includes the target's identity: two objects of the same class
  /// never share entries. The safe default — idempotency only promises a
  /// pure function of arguments *and construction-fixed state*, and two
  /// instances may have been constructed differently.
  kPerTarget,
  /// Key is signature + arguments only: every target of the class shares
  /// one entry set. Opt-in for fungible farm duplicates, where any worker
  /// gives the same answer by construction; exactly what makes the farm's
  /// remote calls cacheable in front of the wire.
  kArgsOnly,
};

/// The memoisation aspect — the runtime-pluggable realisation of the
/// paper's §4.5 cache, grown from "reuse the computed object" into a
/// result cache for idempotent method calls.
///
/// cache_method<M>() registers around advice (optimisation layer by
/// default, order 450) that keys on signature [+ target identity] + the
/// kCompact-serialized argument values and memoizes the call's *recorded
/// effect*: the post-call values of every argument plus the return value,
/// as one serialized blob in a ShardedLru. On a hit the effect is replayed
/// by copy-restore — by-reference arguments receive the recorded values,
/// the result is decoded and returned — and proceed() is never called, so
/// every inner layer is skipped. Because the optimisation layer sits
/// before distribution (order 500), a hit on a remote target never
/// reaches the middleware: the cache stands in front of the wire and a
/// hit costs zero network round-trips.
///
/// Misses run through ShardedLru::get_or_compute, so concurrent misses on
/// one key execute the underlying method exactly once (single-flight) and
/// a throwing call caches nothing.
///
/// Safety is a declared contract, checked statically: the aspect records
/// mark_caches metadata (argument/result serializability and the
/// APAR_METHOD_IDEMPOTENT verdict) on each advice, and apar-analyze's
/// cache-safety pass flags caching of undeclared or unserializable
/// signatures — escalated to an error when the join point is also
/// distributed over a real wire transport. A signature whose effect
/// cannot be serialized at all degrades to pass-through advice (the call
/// always proceeds), mirroring how the distribution aspect handles
/// unserializable arguments.
///
/// Caveat: advice on a directly self-recursive method would deadlock on
/// its own in-flight entry; memoize the outer call only.
template <class T>
class CacheAspect : public aop::Aspect {
 public:
  using Store = ShardedLru<std::string, std::vector<std::byte>>;

  struct Options {
    std::size_t shards = 8;
    std::size_t max_entries = 1024;
    std::size_t max_bytes = 0;        ///< 0 = unbounded
    std::chrono::nanoseconds ttl{0};  ///< 0 = entries never expire
    int order = aop::order::kOptimisation;
  };

  CacheAspect(std::string name, Options options = {})
      : Aspect(std::move(name)), options_(options), store_(store_options()) {}

  explicit CacheAspect(Options options = {})
      : CacheAspect("Cache", options) {}

  /// Memoize method M (declared via APAR_METHOD_NAME; see KeyScope for
  /// what the key distinguishes).
  template <auto M>
  CacheAspect& cache_method(KeyScope key_scope = KeyScope::kPerTarget) {
    using Traits = aop::detail::MemberFnTraits<decltype(M)>;
    register_cached<M, typename Traits::Ret>(
        std::type_identity<typename Traits::ArgsTuple>{}, key_scope);
    return *this;
  }

  [[nodiscard]] Store& store() { return store_; }
  [[nodiscard]] const CacheStats& stats() const { return store_.stats(); }
  [[nodiscard]] std::uint64_t hits() const {
    return store_.stats().hits.value();
  }
  [[nodiscard]] std::uint64_t misses() const {
    return store_.stats().misses.value();
  }

  void invalidate_all() { store_.clear(); }

 private:
  typename Store::Options store_options() const {
    typename Store::Options so;
    so.shards = options_.shards;
    so.max_entries = options_.max_entries;
    so.max_bytes = options_.max_bytes;
    so.ttl = options_.ttl;
    so.name = this->name();
    return so;
  }

  template <auto M, class R, class... A>
  void register_cached(std::type_identity<std::tuple<A...>>,
                       KeyScope key_scope) {
    // Whether the effect (post-call arguments + result) can be recorded
    // and replayed. Reference results are excluded outright: a replayed
    // reference would dangle.
    constexpr bool kWireOk =
        (serial::kWireSerializable<A> && ...) && !std::is_reference_v<R> &&
        (std::is_void_v<R> || serial::kWireSerializable<R>);
    this->template around_method<M>(
            options_.order, aop::Scope::any(),
            [this, key_scope](aop::CallInvocation<T, R, A...>& inv) -> R {
              if constexpr (!kWireOk) {
                return inv.proceed();  // analyzer reports the gap
              } else {
                const std::string key = make_key(inv, key_scope);
                const std::vector<std::byte> effect =
                    store_.get_or_compute(key, [&] {
                      if constexpr (std::is_void_v<R>) {
                        inv.proceed();
                        return encode_effect<R>(inv.args());
                      } else {
                        R result = inv.proceed();
                        return encode_effect<R>(inv.args(), result);
                      }
                    });
                // Replay the effect. For the thread that just computed it
                // this re-assigns the values it already holds; for a hit
                // or a coalesced waiter it is the whole call.
                serial::Reader reader(effect, serial::Format::kCompact);
                std::apply(
                    [&](auto&... args) {
                      (detail::read_restore(reader, args), ...);
                    },
                    inv.args());
                if constexpr (!std::is_void_v<R>) {
                  std::remove_cvref_t<R> result{};
                  reader.value(result);
                  return result;
                }
              }
            })
        .mark_caches(detail::note_cache_args<R>(
                         std::type_identity<std::tuple<A...>>{}),
                     aop::method_idempotent<M>());
  }

  template <class R, class... A, class... Extra>
  static std::vector<std::byte> encode_effect(std::tuple<A...>& args,
                                              const Extra&... result) {
    return std::apply(
        [&](const auto&... as) {
          return serial::encode(serial::Format::kCompact, as..., result...);
        },
        args);
  }

  template <class R, class... A>
  std::string make_key(aop::CallInvocation<T, R, A...>& inv,
                       KeyScope key_scope) const {
    std::string key;
    const aop::Signature& sig = inv.signature();
    key.append(sig.class_name);
    key.push_back('.');
    key.append(sig.method_name);
    key.push_back('\0');
    if (key_scope == KeyScope::kPerTarget) {
      const void* id = inv.target().identity();
      key.append(reinterpret_cast<const char*>(&id), sizeof id);
    }
    key.push_back('\0');
    const auto arg_bytes = std::apply(
        [](const auto&... as) {
          return serial::encode(serial::Format::kCompact, as...);
        },
        inv.args());
    key.append(reinterpret_cast<const char*>(arg_bytes.data()),
               arg_bytes.size());
    return key;
  }

  Options options_;
  Store store_;
};

}  // namespace apar::cache
