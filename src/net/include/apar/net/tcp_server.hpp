#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "apar/cluster/dispatcher.hpp"
#include "apar/cluster/name_server.hpp"
#include "apar/cluster/rpc.hpp"
#include "apar/net/frame.hpp"
#include "apar/net/reactor.hpp"
#include "apar/net/socket.hpp"

namespace apar::net {

/// One TCP "machine": a loopback-or-LAN server hosting a
/// cluster::Dispatcher behind the frame protocol. This is the real-wire
/// counterpart of cluster::Node — both drive the SAME Dispatcher, so a
/// request does exactly the same thing whether it arrived on a simulated
/// mailbox or a socket.
///
/// `workers` leader/followers threads share one epoll set (net::Reactor):
/// the thread that reads a request runs it and writes its reply, so
/// `workers` bounds CPU concurrency while the connection count is bounded
/// only by Options::reactor.max_connections. Every request goes through
/// process_request (framing, trace trailers, kTelemetry).
/// docs/networking.md has the architecture; tools/loadgen measures it.
class TcpServer {
 public:
  struct Options {
    std::uint16_t port = 0;   ///< 0 = pick an ephemeral port
    std::size_t workers = 4;  ///< serving threads (at least one)
    /// Connection limits and timeouts.
    Reactor::Options reactor;
    /// Dispatcher error-message prefix; default "tcp:<port>".
    std::string label;
  };

  /// Byte/frame accounting (ServerStats' fields), as a copyable snapshot.
  using Stats = ServerStats::Snapshot;

  explicit TcpServer(const cluster::rpc::Registry& registry)
      : TcpServer(registry, Options{}) {}
  TcpServer(const cluster::rpc::Registry& registry, Options options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Actual listening port (useful with Options::port = 0).
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  [[nodiscard]] cluster::Dispatcher& dispatcher() { return dispatcher_; }
  [[nodiscard]] cluster::NameServer& name_server() { return name_server_; }
  [[nodiscard]] Stats stats() const;
  /// Live connection count (0 after stop()).
  [[nodiscard]] std::size_t open_connections() const;

  /// Drain and shut down: stop accepting, let requests being served finish
  /// and their replies flush, and at Options::reactor.drain_timeout shut
  /// every connection down (stop() still waits for handlers running then).
  /// Every descriptor the server opened is closed when it returns.
  /// Idempotent; the destructor calls it.
  void stop();

 private:
  /// The request path: serve-span tracing, dispatch, telemetry —
  /// everything between a decoded request frame and its reply. Runs on the
  /// reactor thread that read the frame. Every failure, a reply over
  /// FrameHeader::kMaxPayload included, is answered with kReplyError.
  Frame process_request(const FrameHeader& header,
                        std::vector<std::byte> payload);
  /// kTelemetry reply body: node identity, every server counter, and the
  /// global metrics-registry JSON; tflags bit 0 adds the tagged trace
  /// buffer, bit 1 flushes (drains) it in the same exchange.
  [[nodiscard]] std::string telemetry_json(std::uint8_t tflags) const;

  Options options_;
  Listener listener_;
  std::chrono::steady_clock::time_point started_at_{
      std::chrono::steady_clock::now()};
  cluster::Dispatcher dispatcher_;
  cluster::NameServer name_server_;

  std::atomic<bool> stopped_{false};

  ServerStats stats_;

  // Last member: its threads run code touching everything above, so it
  // must be stopped (joined) first.
  Reactor reactor_;
};

}  // namespace apar::net
