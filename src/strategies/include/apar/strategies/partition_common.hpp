#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

namespace apar::strategies {

/// Split one large pack into sub-packs of at most `pack_size` elements —
/// the default method-call splitter (paper §4.1, Figure 5) — and hand each
/// one to `dispatch(std::vector<E>&)` as soon as it is built. Only the
/// pack in hand is held here, so when each dispatch keeps its own copy (an
/// asynchronous call) the packs are not held twice over.
template <class E, class Dispatch>
void for_each_pack(const std::vector<E>& data, std::size_t pack_size,
                   Dispatch&& dispatch) {
  if (pack_size == 0) pack_size = 1;
  for (std::size_t begin = 0; begin < data.size(); begin += pack_size) {
    const std::size_t end = std::min(begin + pack_size, data.size());
    std::vector<E> pack(data.begin() + static_cast<std::ptrdiff_t>(begin),
                        data.begin() + static_cast<std::ptrdiff_t>(end));
    dispatch(pack);
  }
}

/// All of for_each_pack's packs at once, for callers that queue or index
/// the whole partition.
template <class E>
std::vector<std::vector<E>> split_into_packs(const std::vector<E>& data,
                                             std::size_t pack_size) {
  std::vector<std::vector<E>> packs;
  for_each_pack(data, pack_size, [&](std::vector<E>& pack) {
    packs.push_back(std::move(pack));
  });
  return packs;
}

/// How a partition aspect derives each duplicate's constructor arguments
/// from the original creation (paper Figure 8: "create filter with specific
/// parameters"). Receives the duplicate index, the duplicate count, and the
/// original argument tuple.
template <class... CtorArgs>
using CtorPartitioner = std::function<std::tuple<CtorArgs...>(
    std::size_t index, std::size_t count, const std::tuple<CtorArgs...>&)>;

/// Broadcast partitioner: every duplicate gets the original arguments —
/// the farm's behaviour (§5.2: "constructor parameters are broadcasted").
template <class... CtorArgs>
CtorPartitioner<CtorArgs...> broadcast_ctor_args() {
  return [](std::size_t, std::size_t,
            const std::tuple<CtorArgs...>& original) { return original; };
}

}  // namespace apar::strategies
