#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apar/aop/aop.hpp"
#include "apar/net/frame.hpp"
#include "apar/net/socket.hpp"
#include "apar/obs/counters.hpp"

namespace apar::net {

/// A server's wire and request accounting, owned by TcpServer and exported
/// as net.server.<field>{server}; stats() and a kTelemetry scrape read the
/// same counters. Byte counts include frame headers. A reply's frames_out
/// is counted before any of its bytes can reach the peer, so a client that
/// reads the stats after its reply sees it counted. rejected: closed at
/// accept, over max_connections; backpressure_pauses: replies left partly
/// unsent, which stop reads until they flush; idle_closed; slow_closed:
/// connections closed for a stalled write or a frame stalled mid-arrival;
/// dispatch_errors: requests answered kReplyError.
#define APAR_SERVER_STATS_FIELDS(X)                                        \
  X(accepted) X(rejected) X(frames_in) X(frames_out) X(bytes_in)           \
  X(bytes_out) X(protocol_errors) X(dispatch_errors)                       \
  X(backpressure_pauses) X(idle_closed) X(slow_closed)
APAR_OBS_COUNTER_SET(ServerStats, APAR_SERVER_STATS_FIELDS);

/// Leader/followers server for the frame protocol over one epoll set.
/// `threads` threads wait in epoll_wait, and every connection is armed
/// EPOLLIN | EPOLLONESHOT, so each readiness event goes to exactly one
/// thread, which owns the connection until it re-arms it.
///
/// The rule: a handler runs on the thread that read its frame. The owner
/// reads with one recv into its staging buffer (a large frame's payload,
/// once its header is known, is received in place, and payload memory is
/// committed only as its bytes arrive), runs each complete frame's handler
/// itself, writes the reply with one nonblocking sendmsg, and re-arms the
/// connection. Every thread not running a handler keeps waiting on the
/// set, so a blocked handler holds up only its own connection. With all
/// threads in handlers, new frames wait in the kernel. One connection's
/// frames are served one at a time in arrival order, so its replies leave
/// in request order with no reordering.
///
/// Keeping. Once every frame it read is answered, the owner keeps the
/// connection for up to 1 ms (kKeepWindow), polling that socket for the
/// next request, and serves it without an epoll_wait wake-up or a re-arm.
/// While no other thread waits on the set, one keeping thread watches the
/// set in the same poll, and an event there ends its keep: it re-arms the
/// connection and goes back to epoll_wait. A kept connection stays owned,
/// so sweeps skip it; stop()'s drain ends every keep.
///
/// Backpressure. When a reply is only partly written, the owner keeps the
/// unsent tail and the bytes it read after that frame, and re-arms the
/// connection for EPOLLOUT instead of reading. Whoever gets that event
/// flushes the tail; once it is gone, the frames held behind it are served
/// before anything newer is read. A connection therefore has at most one
/// request being served and one unsent reply tail.
///
/// Sweeps. About every 10 ms (kSweepInterval) one thread checks the
/// connection table. A connection no thread owns is closed when its tail
/// makes no progress for `stall_timeout` (slow-reader eviction), when a
/// frame began arriving longer than `stall_timeout` ago and is still
/// incomplete, or when it has been quiet longer than `idle_timeout` with
/// nothing unread; a connection being served or kept is never closed by a
/// sweep.
/// Accepts beyond `max_connections` are closed at once and counted as
/// rejected.
///
/// Closing. Only a connection's owner closes it. A sweep or stop() marks
/// the connection closing and shuts its socket down, so the peer sees the
/// close at once and the armed event fires; the thread that takes it
/// removes the connection from the set and closes the descriptor, so no
/// descriptor number is reused while an event for it may be in flight.
class Reactor {
 public:
  struct Options {
    std::size_t max_connections = 1024;
    /// Close connections with no traffic for this long (0 = never).
    std::chrono::milliseconds idle_timeout{0};
    /// Close a connection whose unsent reply makes no progress this long,
    /// or whose frame began arriving this long ago and is still incomplete.
    std::chrono::milliseconds stall_timeout{5000};
    /// stop() grace: how long requests being served may take to finish
    /// and their replies to flush before every connection is shut down.
    std::chrono::milliseconds drain_timeout{2000};
    /// SO_SNDBUF for accepted sockets (0 = kernel default). Only the
    /// server can shrink an accepted socket's send buffer; small values
    /// make slow-reader eviction and partial writes deterministic.
    int sndbuf_bytes = 0;
  };

  /// Runs on the reactor thread that read the request and returns the
  /// reply, which the reactor writes; its payload must fit
  /// FrameHeader::kMaxPayload. A handler that throws gets no reply: the
  /// reactor closes the connection, so the client sees its reply lost.
  using Handler =
      std::function<Frame(const FrameHeader&, std::vector<std::byte>)>;

  /// Starts `threads` (at least one) serving threads. The listener must
  /// outlive the reactor and stay open until stop() returns. The threads
  /// count into the server's `stats`. `label` names the reactor's own
  /// series ({"server", label}): the open-connections level and the
  /// queue-depth histogram, which records each reply's size.
  Reactor(Listener& listener, std::size_t threads, Handler handler,
          Options options, ServerStats& stats, const std::string& label);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Graceful drain: stop accepting, close idle connections, and let
  /// requests being served finish and their replies flush. At
  /// drain_timeout every remaining connection is shut down, so its peer
  /// sees the close then; a reply whose handler finishes later is
  /// discarded. Returns once every handler has returned and every
  /// descriptor the reactor opened is closed. Idempotent.
  void stop();

  [[nodiscard]] std::size_t open_connections() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Analysis-side model of the reactor's dispatch path: every served
/// method of T runs on an arbitrary server thread, concurrently with any
/// request on another connection — concurrency injected by the transport
/// rather than by a concurrency aspect, which the declared-effects race
/// pass (`apar-analyze --effects`) must see. Each serve_method registers a
/// pass-through advice just outside the concurrency layer marked
/// mark_spawns_concurrency() (unconfined: server threads, not a
/// target-confined helper thread), so a weave is only clean when some
/// aspect's monitors still cover every racing effect pair — the
/// composition gate for serving a weave behind a TcpServer.
template <class T>
class ReactorIngressAspect : public aop::Aspect {
 public:
  explicit ReactorIngressAspect(std::string name = "ReactorIngress")
      : Aspect(std::move(name)) {}

  template <auto M>
  ReactorIngressAspect& serve_method() {
    around_method<M>(aop::order::kConcurrencyAsync - 10, aop::Scope::any(),
                     [](auto& inv) { return inv.proceed(); })
        .mark_spawns_concurrency();
    return *this;
  }
};

}  // namespace apar::net
