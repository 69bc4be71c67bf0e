#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apar/cluster/fabric.hpp"
#include "apar/cluster/middleware.hpp"
#include "apar/net/connection_pool.hpp"
#include "apar/net/frame.hpp"
#include "apar/net/socket.hpp"
#include "apar/obs/counters.hpp"

namespace apar::net {

/// TcpMiddleware's wire-level accounting for one endpoint, exported as
/// net.<field>{endpoint}: frame bytes INCLUDING headers, where the
/// inherited MiddlewareStats counts payload bytes only, mirroring what the
/// simulated middlewares charge. connects: fresh dials; reconnects: dials
/// that replace a connection this middleware lost to the endpoint (an
/// exchange failed on it, or the pool discarded or evicted it as stale);
/// retries: lookup retry attempts.
#define APAR_NET_STATS_FIELDS(X)                                      \
  X(connects) X(reconnects) X(retries) X(frames_sent) X(frames_received) \
  X(wire_bytes_sent) X(wire_bytes_received)
APAR_OBS_COUNTER_SET(NetStats, APAR_NET_STATS_FIELDS);

/// cluster::Middleware over real TCP sockets — the point of the subsystem:
/// DistributionAspect, FaultInjectingMiddleware and HybridMiddleware
/// compose over it unchanged, because the aspect seam only ever sees the
/// Middleware interface.
///
/// NodeId maps to Options::endpoints by index, so the aspect's placement
/// policies (round-robin, random) spread objects across real servers the
/// same way they spread them across simulated nodes. Name bindings and
/// lookups go to endpoints[0], the designated registry server (the RMI
/// registry analogue).
///
/// Failure semantics:
///   - Transport problems throw NetError (connect/timeout/closed/...).
///   - Server-side execution failures throw rpc::RpcError with the
///     server's message, exactly like the simulated middleware.
///   - Only LOOKUPS retry: they are idempotent, so a retry after a lost
///     reply cannot double-execute anything. A lookup retries up to 3
///     times, after 10, 20 and 40 ms, and reconnects through the pool.
///     Creations and calls are NOT retried — a lost reply leaves "did it
///     execute?" ambiguous, and surfacing that as NetError is the honest
///     answer.
///   - A request whose payload is over FrameHeader::kMaxPayload throws
///     NetError{kProtocol} before any byte is sent.
class TcpMiddleware final : public cluster::Middleware {
 public:
  struct Options {
    /// Placement targets; NodeId n dispatches to endpoints[n]. Must be
    /// non-empty. endpoints[0] doubles as the name registry.
    std::vector<Endpoint> endpoints;
    serial::Format format = serial::Format::kCompact;
    /// How long one exchange may take to send its request and read the
    /// reply.
    std::chrono::milliseconds io_deadline{5000};
  };

  /// Copyable snapshot of the wire-level accounting (one endpoint's, or
  /// the sum over all of them).
  using NetCounters = NetStats::Snapshot;

  explicit TcpMiddleware(Options options);

  // --- Middleware interface ----------------------------------------------
  /// "TCP", which also labels the {middleware} and {pool} series.
  [[nodiscard]] std::string_view name() const override;
  [[nodiscard]] serial::Format wire_format() const override {
    return options_.format;
  }
  /// One-ways still read the server's empty ack frame, which keeps the
  /// connection state unambiguous and makes TcpFabric::drain() a no-op.
  [[nodiscard]] bool supports_one_way() const override { return true; }
  [[nodiscard]] bool wire_transport() const override { return true; }

  cluster::RemoteHandle create(cluster::NodeId node,
                               std::string_view class_name,
                               std::vector<std::byte> ctor_args) override;
  std::vector<std::byte> invoke(const cluster::RemoteHandle& target,
                                std::string_view method,
                                std::vector<std::byte> args) override;
  void invoke_one_way(const cluster::RemoteHandle& target,
                      std::string_view method,
                      std::vector<std::byte> args) override;
  std::optional<cluster::RemoteHandle> lookup(std::string_view name) override;

  [[nodiscard]] const cluster::MiddlewareStats& stats() const override {
    return stats_;
  }
  [[nodiscard]] const cluster::CostModel& costs() const override {
    return costs_;
  }

  // --- TCP-specific surface ----------------------------------------------

  /// Publish a binding on the registry server (endpoints[0]).
  void bind_name(std::string name, cluster::RemoteHandle handle);

  /// Fetch the node's kTelemetry snapshot: metrics-registry JSON plus
  /// server counters, optionally including (and optionally flushing) the
  /// node's tagged trace buffer. Returns the server's raw JSON string.
  [[nodiscard]] std::string telemetry(cluster::NodeId node,
                                      bool include_trace = false,
                                      bool flush_trace = false);

  [[nodiscard]] const std::vector<Endpoint>& endpoints() const {
    return options_.endpoints;
  }
  /// Wire accounting summed over every endpoint.
  [[nodiscard]] NetCounters net_counters() const;
  [[nodiscard]] ConnectionPool& pool() { return pool_; }

 private:
  /// One framed request/reply over a pooled connection. Throws NetError
  /// on transport failure (the connection is dropped, not returned) and
  /// rpc::RpcError when the server answered kReplyError. When
  /// obs::tracing_enabled(), opens a "net.<op>" wire span (child of the
  /// calling thread's context) and ships its identity in the frame's
  /// trace trailer so the server's span joins the caller's trace.
  Frame roundtrip(std::size_t endpoint_index, FrameHeader::Op op,
                  std::vector<std::byte> payload);
  /// The raw frame exchange behind roundtrip(); `flags` goes into the
  /// header verbatim.
  Frame exchange(std::size_t endpoint_index, FrameHeader::Op op,
                 std::vector<std::byte> payload, std::uint8_t flags);

  const Endpoint& endpoint_for(cluster::NodeId node) const;

  Options options_;
  cluster::CostModel costs_{};  ///< TCP costs are real; nothing is charged
  cluster::MiddlewareStats stats_;
  ConnectionPool pool_;
  std::atomic<std::uint64_t> next_request_id_{1};

  /// One per endpoint, indexed like Options::endpoints.
  struct PerEndpoint {
    NetStats net;
    /// net.rtt_us{endpoint}; records while obs::metrics_enabled().
    std::shared_ptr<obs::Histogram> rtt_us;
    /// Connections to this endpoint lost and not yet replaced by a dial;
    /// each dial that replaces one counts as a reconnect.
    std::atomic<std::uint64_t> lost{0};
  };
  std::unique_ptr<PerEndpoint[]> per_endpoint_;
};

/// The distribution aspect's placement view over a set of TCP servers.
/// size() is how many endpoints exist, bind_name publishes to the
/// registry server, and drain() is a no-op because every one-way already
/// waited for its ack.
class TcpFabric final : public cluster::Fabric {
 public:
  explicit TcpFabric(TcpMiddleware& middleware) : middleware_(middleware) {}

  [[nodiscard]] std::size_t size() const override {
    return middleware_.endpoints().size();
  }
  void bind_name(std::string name, cluster::RemoteHandle handle) override {
    middleware_.bind_name(std::move(name), handle);
  }
  void drain() override {}

 private:
  TcpMiddleware& middleware_;
};

}  // namespace apar::net
