#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace apar::net {

/// Where a server lives. Host is resolved with getaddrinfo, so both
/// numeric addresses ("127.0.0.1") and names ("localhost") work.
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
  friend bool operator<(const Endpoint& a, const Endpoint& b) {
    return a.host != b.host ? a.host < b.host : a.port < b.port;
  }

  [[nodiscard]] std::string str() const {
    return host + ":" + std::to_string(port);
  }
};

using Deadline = std::chrono::steady_clock::time_point;

/// Deadline `timeout` from now.
[[nodiscard]] Deadline deadline_after(std::chrono::milliseconds timeout);

/// RAII wrapper over one connected (or listening) socket fd. All sockets
/// are non-blocking; blocking semantics come from the deadline-driven
/// poll() loops in send_all/recv_exact below — a stuck peer therefore
/// surfaces as NetError{kTimeout} at the deadline instead of hanging the
/// calling thread forever.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  void close();

  /// True if the connection is still usable for a fresh request: no
  /// unread bytes (a healthy idle connection is silent between requests)
  /// and no EOF/error pending. A restarted server's stale connections
  /// fail this check, which is how the pool avoids handing them out.
  [[nodiscard]] bool idle_and_healthy() const;

 private:
  int fd_ = -1;
};

/// Connect to `endpoint`, finishing before `deadline`. Throws
/// NetError{kConnect} on resolution/connection failure and
/// NetError{kTimeout} when the deadline expires first. The returned
/// socket has TCP_NODELAY set (frames are small; Nagle would serialize
/// the request/reply rhythm).
Socket dial(const Endpoint& endpoint, Deadline deadline);

/// Write all of `data`, finishing before `deadline`.
void send_all(Socket& socket, const std::byte* data, std::size_t size,
              Deadline deadline);

/// Write `head` then `tail` with gather writes, finishing before
/// `deadline`: a frame header and its payload leave in one sendmsg (one
/// segment under TCP_NODELAY when they fit).
void send_all(Socket& socket, const std::byte* head, std::size_t head_size,
              const std::byte* tail, std::size_t tail_size,
              Deadline deadline);

/// Wait until `socket` is readable, then read once: up to `size` bytes
/// into `out`, returning how many arrived (at least one). EOF throws
/// NetError{kClosed}; the deadline passing first, NetError{kTimeout}.
std::size_t recv_some(Socket& socket, std::byte* out, std::size_t size,
                      Deadline deadline);

/// Read exactly `size` bytes into `out`, finishing before `deadline`.
/// EOF mid-read throws NetError{kClosed}.
void recv_exact(Socket& socket, std::byte* out, std::size_t size,
                Deadline deadline);

/// Listening socket bound to 127.0.0.1. Port 0 picks an ephemeral port;
/// port() reports the actual one.
class Listener {
 public:
  explicit Listener(std::uint16_t port);

  Listener(Listener&&) noexcept = default;
  Listener& operator=(Listener&&) noexcept = default;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Raw listening descriptor, for event loops that poll it directly
  /// (src/net/reactor). The Listener keeps ownership.
  [[nodiscard]] int fd() const { return fd_.fd(); }

  /// Accept one connection, waiting at most `timeout` (0 = just poll).
  /// Returns an invalid Socket on timeout (so an accept loop can poll its
  /// stop flag, and a reactor can accept nonblockingly).
  Socket accept(std::chrono::milliseconds timeout);

  void close() { fd_.close(); }

 private:
  Socket fd_;
  std::uint16_t port_ = 0;
};

/// True when this environment can create and connect loopback TCP
/// sockets. Sandboxes without network namespaces make every net test
/// skip rather than fail.
bool loopback_available();

}  // namespace apar::net
