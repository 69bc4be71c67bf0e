#pragma once

#include <map>
#include <mutex>
#include <vector>

#include "apar/net/socket.hpp"
#include "apar/obs/counters.hpp"

namespace apar::net {

/// ConnectionPool counters, exported as net.pool.<field>{pool="TCP"}. dials:
/// fresh connections established; reuses: healthy idle connections handed
/// out; discards: stale idle connections thrown away; evictions: idle
/// connections dropped by evict().
#define APAR_CONNECTION_POOL_STATS_FIELDS(X) \
  X(dials) X(reuses) X(discards) X(evictions)
APAR_OBS_COUNTER_SET(ConnectionPoolStats, APAR_CONNECTION_POOL_STATS_FIELDS);

/// Per-endpoint pool of idle TCP connections. Checkout order:
///
///   1. Pop an idle connection for the endpoint and poll-validate it
///      (Socket::idle_and_healthy). Stale connections — the server
///      restarted, or the peer pushed unexpected bytes — are discarded,
///      not repaired.
///   2. No healthy idle connection: dial a new one before `deadline`.
///
/// Callers return healthy connections with give_back() after a complete
/// request/reply exchange; a connection in an unknown state (an exchange
/// failed mid-way) must simply be dropped, which closes it. Each endpoint
/// keeps at most 8 idle connections.
class ConnectionPool {
 public:
  using Stats = ConnectionPoolStats::Snapshot;

  /// Labelled "TCP", like its owner, TcpMiddleware.
  ConnectionPool();

  /// What acquire() handed out: the connection, whether it was a reused
  /// idle one, and how many stale idle ones it threw away on the way
  /// (callers count fresh dials as connects, and dials that replace lost
  /// connections as reconnects).
  struct Checkout {
    Socket socket;
    bool reused = false;
    std::size_t discarded = 0;
  };

  /// Get a connection to `endpoint`, reusing an idle one when possible.
  Checkout acquire(const Endpoint& endpoint, Deadline deadline);

  /// Return a connection that completed its exchange cleanly. Beyond the
  /// per-endpoint idle cap the connection is closed instead.
  void give_back(const Endpoint& endpoint, Socket socket);

  /// Drop every idle connection to `endpoint` and return how many were
  /// dropped. Poll-validation cannot catch a server that was drained or
  /// restarted but whose old sockets are still half-open (nothing readable
  /// yet), so when a REUSED connection fails mid-exchange its idle
  /// siblings — dialed in the same server era — are presumed stale too and
  /// evicted wholesale; the next acquire() dials fresh.
  std::size_t evict(const Endpoint& endpoint);

  [[nodiscard]] Stats stats() const { return stats_.snapshot(); }
  [[nodiscard]] std::size_t idle_count(const Endpoint& endpoint) const;

 private:
  mutable std::mutex mutex_;
  std::map<Endpoint, std::vector<Socket>> idle_;
  ConnectionPoolStats stats_;
};

}  // namespace apar::net
