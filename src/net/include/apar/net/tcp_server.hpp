#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "apar/cluster/dispatcher.hpp"
#include "apar/cluster/name_server.hpp"
#include "apar/cluster/rpc.hpp"
#include "apar/concurrency/thread_pool.hpp"
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
/// Two serving modes share one request path (process_request), so the
/// wire protocol — framing, trace trailers, kTelemetry, chaos knobs — is
/// byte-identical in both:
///
///   kThreadPerConnection (the paper's scale, the baseline): one acceptor
///   thread plus a ThreadPool of `workers` connection handlers. A
///   connection occupies a worker until the client disconnects, so at
///   most `workers` clients are served concurrently; additional
///   connections queue in the pool.
///
///   kReactor (the C10K answer): `workers` leader/followers threads share
///   one epoll set (src/net/reactor); the thread that reads a request
///   runs it and writes its reply, so `workers` bounds CPU concurrency
///   while the connection count is bounded only by
///   Options::reactor.max_connections. Adds write backpressure, idle
///   timeouts, slow-reader eviction, connection limits and graceful
///   drain. docs/networking.md has the architecture; tools/loadgen
///   measures the difference.
class TcpServer {
 public:
  enum class Mode {
    kThreadPerConnection,
    kReactor,
  };

  struct Options {
    std::uint16_t port = 0;      ///< 0 = pick an ephemeral port
    std::size_t workers = 4;     ///< handler threads (see Mode)
    Mode mode = Mode::kThreadPerConnection;
    /// Reactor-mode limits and timeouts; ignored in thread mode.
    Reactor::Options reactor;
    /// Per-frame I/O deadline once a frame has started arriving. Idle
    /// time between frames is unlimited (a quiet client is not an error).
    /// Thread mode only; the reactor's state machines never block, so
    /// its equivalents are reactor.idle_timeout/write_stall_timeout.
    std::chrono::milliseconds io_deadline{5000};
    /// Dispatcher error-message prefix; default "tcp:<port>".
    std::string label;

    // --- chaos knobs (tests only) ---------------------------------------
    /// Close the connection instead of replying for the first N request
    /// frames — the reply is "lost", clients see NetError{kClosed}.
    std::uint64_t chaos_drop_frames = 0;
    /// Stall the first N replies by `chaos_stall_ms` — lets tests force a
    /// client-side deadline expiry deterministically.
    std::uint64_t chaos_stall_frames = 0;
    std::chrono::milliseconds chaos_stall_ms{0};
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
  /// Live connection count; only meaningful in reactor mode (0 in thread
  /// mode, which does not track it, and after stop()).
  [[nodiscard]] std::size_t open_connections() const;

  /// Stop accepting and shut down. Thread mode closes the listener and
  /// joins the handlers; reactor mode drains gracefully first (requests
  /// being served finish and their replies flush; at
  /// Options::reactor.drain_timeout every connection is shut down, and
  /// stop() waits for handlers still running). Every descriptor the server
  /// opened is closed when it returns. Idempotent; the destructor calls it.
  void stop();

 private:
  void accept_loop();
  void serve_connection(Socket socket);
  /// The mode-independent request path: chaos drop/stall decisions,
  /// serve-span tracing, dispatch, telemetry — everything between a
  /// decoded request frame and its encoded reply. Called from a
  /// connection handler (thread mode) or the reactor thread that read
  /// the frame (reactor mode).
  ReplyAction process_request(const FrameHeader& header,
                              std::vector<std::byte> payload);
  /// Handle one request frame; returns false when the connection must
  /// close (chaos drop).
  bool handle_frame(Socket& socket, const FrameHeader& header,
                    std::vector<std::byte> payload);
  void send_frame(Socket& socket, FrameHeader header,
                  const std::vector<std::byte>& payload);
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
  std::atomic<std::uint64_t> request_seq_{0};  ///< chaos decision index

  ServerStats stats_;

  // Last members: workers_, acceptor_ and reactor_ run code touching
  // everything above, so they must be destroyed (joined) first. stop()
  // tears them down in the safe order (listener closed last).
  std::unique_ptr<concurrency::ThreadPool> workers_;  ///< thread mode only
  std::thread acceptor_;
  std::unique_ptr<Reactor> reactor_;
};

}  // namespace apar::net
