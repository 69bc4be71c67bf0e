#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apar/aop/aop.hpp"
#include "apar/concurrency/thread_pool.hpp"
#include "apar/net/frame.hpp"
#include "apar/net/socket.hpp"
#include "apar/obs/counters.hpp"

namespace apar::net {

/// A server's wire and request accounting, owned by TcpServer and exported
/// as net.server.<field>{server}; stats() and a kTelemetry scrape read the
/// same counters. Byte counts include frame headers. A reply's frames_out
/// is counted before any of its bytes can reach the peer, so a client that
/// reads the stats after its reply sees it counted. In reactor mode the
/// loop and the pool workers that write replies share the counting, and
/// the reactor-only fields (rejected: closed at accept, over
/// max_connections; backpressure_pauses: read-pause transitions;
/// idle_closed; slow_closed: stalled-write evictions) stay 0 in thread
/// mode. dispatch_errors counts requests answered kReplyError.
#define APAR_SERVER_STATS_FIELDS(X)                                        \
  X(accepted) X(rejected) X(frames_in) X(frames_out) X(bytes_in)           \
  X(bytes_out) X(protocol_errors) X(dispatch_errors) X(chaos_dropped)      \
  X(chaos_stalled) X(backpressure_pauses) X(idle_closed) X(slow_closed)
APAR_OBS_COUNTER_SET(ServerStats, APAR_SERVER_STATS_FIELDS);

/// What the dispatch handler decided about one request frame: either a
/// reply to queue back on the connection, or (chaos only) an instruction
/// to close the connection without replying — the same "lost reply"
/// semantics TcpServer's thread-per-connection mode implements.
struct ReplyAction {
  bool drop = false;
  FrameHeader header;
  std::vector<std::byte> payload;
};

/// Event loop serving many connections over the frame protocol:
/// nonblocking accept, staged reads, request dispatch into a shared
/// work-stealing ThreadPool, and replies written strictly in request order
/// with backpressure. The loop thread never runs user code.
///
/// Reading. The loop alone reads. It reads a readable socket with one recv
/// into its staging buffer, dispatches every complete frame in it, and
/// stops at a short read; level-triggered readiness brings it back for the
/// rest. A large frame's payload, once its header is known, is received in
/// place, and payload memory is committed only as its bytes arrive. Each
/// frame gets an arrival-order sequence number. The loop calls the poller
/// only when a connection's interest changes.
///
/// Writing. Each connection has a write lock shared by the loop and the
/// pool workers. A worker whose reply is next in order, on a connection
/// with nothing parked, buffered, paused or draining, writes the reply
/// itself under that lock with one nonblocking gather write. Every other
/// reply goes through the completion queue to the loop: out-of-order
/// replies park until their predecessors are written, chaos drops close
/// the connection, and a paused or draining connection is the loop's to
/// decide. When a direct write is partial, the worker leaves the unsent
/// tail in the connection's outbound buffer and queues a notice, so the
/// loop finishes it and no later reply overtakes it. The loop's pause,
/// resume and drain decisions and the workers' direct-write check run
/// under the same lock. The queue's self-pipe is written only when the
/// queue goes from empty to non-empty, and the loop reads it once per wake.
///
/// Lifetimes. Every dispatched task co-owns its connection and the
/// completion queue. Closing a connection shuts its socket down, so the
/// peer sees the close at once, but the descriptor itself closes only
/// when the last task holding the connection lets go, so its number cannot
/// be reused under a worker still writing. A task that outlives stop(), or
/// the Reactor, touches only what it co-owns, plus the handler's captures
/// and `stats`, which the caller keeps alive until the pool has drained.
///
/// Backpressure: when a connection has `max_inflight` dispatched requests
/// or `max_outbound_bytes` of un-flushed reply bytes, the loop stops
/// reading from it; frames already staged when the pause began are
/// dispatched on resume, before anything read later. Writes that make no
/// progress for `write_stall_timeout` evict the connection (slow-reader
/// protection); connections idle longer than `idle_timeout` are closed;
/// accepts beyond `max_connections` are closed immediately and counted as
/// rejected.
///
/// The epoll backend (Linux) is level-triggered; `force_poll` selects the
/// portable poll(2) backend, which behaves identically and is exercised
/// by the test suite so the fallback never rots.
class Reactor {
 public:
  struct Options {
    std::size_t max_connections = 1024;
    /// Close connections with no traffic for this long (0 = never).
    std::chrono::milliseconds idle_timeout{0};
    /// Un-flushed reply bytes per connection before reads pause.
    std::size_t max_outbound_bytes = 1 << 20;
    /// Dispatched-but-unanswered requests per connection before reads
    /// pause (bounds worker-queue amplification from one pipelining
    /// client).
    std::size_t max_inflight = 64;
    /// Evict a connection whose pending writes make no progress this long.
    std::chrono::milliseconds write_stall_timeout{5000};
    /// stop() grace: how long to wait for in-flight requests to finish
    /// and queued replies to flush before force-closing.
    std::chrono::milliseconds drain_timeout{2000};
    /// Use the portable poll(2) backend even where epoll is available.
    bool force_poll = false;
    /// Test knob: SO_SNDBUF for accepted sockets (0 = kernel default);
    /// small values make slow-reader eviction and partial writes
    /// deterministic.
    int sndbuf_bytes = 0;
  };

  /// Runs on a pool worker with the decoded request; the reactor writes
  /// the reply it returns.
  using Handler =
      std::function<ReplyAction(const FrameHeader&, std::vector<std::byte>)>;

  /// The listener must outlive the reactor and stay open until stop()
  /// returns; `pool` executes handlers and is shared with the rest of the
  /// server. The loop and the workers count into the server's `stats`,
  /// which, like whatever `handler` captures, must outlive every task
  /// posted to `pool`. `label` names the reactor's own series
  /// ({"server", label}): the open-connections level and the queue-depth
  /// histogram, which records one sample per reply in both write paths.
  Reactor(Listener& listener, concurrency::ThreadPool& pool, Handler handler,
          Options options, ServerStats& stats, const std::string& label);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Graceful drain: stop accepting, stop reading, let in-flight requests
  /// finish and queued replies flush (up to drain_timeout), close
  /// everything, join the loop thread. Idempotent.
  void stop();

  [[nodiscard]] std::size_t open_connections() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Analysis-side model of the reactor's dispatch path: every served
/// method of T runs on an arbitrary ThreadPool worker, concurrently with
/// any other request — concurrency injected by the transport rather than
/// by a concurrency aspect, which the declared-effects race pass
/// (`apar-analyze --effects`) must see. Each serve_method registers a
/// pass-through advice just outside the concurrency layer marked
/// mark_spawns_concurrency() (unconfined: pool workers, not a
/// target-confined helper thread), so a weave is only clean when some
/// aspect's monitors still cover every racing effect pair — the
/// composition gate for serving a weave behind Mode::kReactor.
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
