#include "apar/net/reactor.hpp"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "apar/common/log.hpp"
#include "apar/common/thread_annotations.hpp"
#include "apar/net/error.hpp"
#include "apar/obs/metrics.hpp"

namespace apar::net {

namespace {

using Clock = std::chrono::steady_clock;

/// A thread's staging buffer: one recv carries many small frames, and a
/// large frame copies at most this much out of it before the rest of its
/// payload is received in place.
constexpr std::size_t kStageSize = 16 * 1024;

/// Timeouts are checked at most this often; it is also the longest a
/// thread waits on the set before it looks at the clock, and so how long
/// stop() waits at most for the threads to see that they must exit.
constexpr auto kSweepInterval = std::chrono::milliseconds(10);

/// How long the thread that wrote a reply waits on that connection alone for
/// its next request before handing it back to the set (see keep()).
constexpr auto kKeepWindow = std::chrono::milliseconds(1);

/// What a connection waits for once its owner is done with it.
enum class Next { kRead, kFlush, kClose };

/// One accepted connection. The decode state and the held bytes belong to
/// the thread that owns the connection's event; ownership passes from one
/// thread to the next through `mu`, which an owner takes when it picks the
/// event up and again when it re-arms. What sweeps and stop() read is
/// guarded by `mu`.
struct Conn {
  explicit Conn(Socket s) : socket(std::move(s)) {}

  Socket socket;

  // --- the owner's --------------------------------------------------------
  // The frame being assembled: header bytes until the header decodes, then
  // its payload, committed only as bytes arrive (payload.size() is the
  // committed part, payload_got the received part).
  std::array<std::byte, FrameHeader::kSize> header_buf{};
  std::size_t header_got = 0;
  bool have_header = false;
  FrameHeader header;
  std::vector<std::byte> payload;
  std::size_t payload_got = 0;
  /// A frame's first bytes arrived since the last hand-back.
  bool frame_started = false;
  /// Bytes read after a frame whose reply is still partly unsent; served
  /// once that tail flushes, before anything read later.
  std::vector<std::byte> held;

  [[nodiscard]] bool between_frames() const {
    return !have_header && header_got == 0;
  }

  // --- shared with sweeps and stop() --------------------------------------
  common::Mutex mu;
  bool busy APAR_GUARDED_BY(mu) = false;  ///< a thread serves or keeps it
  /// Shut down by a sweep or stop(), or being closed by its owner.
  bool closing APAR_GUARDED_BY(mu) = false;
  /// The unsent tail of the last reply, from `out_off` on.
  std::vector<std::byte> outbuf APAR_GUARDED_BY(mu);
  std::size_t out_off APAR_GUARDED_BY(mu) = 0;
  Clock::time_point last_active APAR_GUARDED_BY(mu);  ///< last hand-back
  Clock::time_point last_write_progress APAR_GUARDED_BY(mu);
  /// When the frame being assembled began arriving (stamped at the
  /// hand-back after its first bytes); empty between frames.
  std::optional<Clock::time_point> frame_began APAR_GUARDED_BY(mu);

  [[nodiscard]] bool tail_pending() const APAR_REQUIRES(mu) {
    return out_off < outbuf.size();
  }
  /// Mark the connection closing and shut its socket down: the peer sees
  /// the close at once, and the armed event fires for an owner to close it.
  void shut() APAR_REQUIRES(mu) {
    closing = true;
    ::shutdown(socket.fd(), SHUT_RDWR);
  }
};

/// A serving thread's keep timer (see keep()): one timerfd, armed to fire
/// once, closed with the thread.
class KeepTimer {
 public:
  KeepTimer() = default;
  ~KeepTimer() {
    if (fd_ >= 0) ::close(fd_);
  }
  KeepTimer(const KeepTimer&) = delete;
  KeepTimer& operator=(const KeepTimer&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  /// Fire once, `after` from now; re-arming also clears an expiry.
  void fire_in(Clock::duration after) const {
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(after).count();
    itimerspec spec{};
    spec.it_value.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
    spec.it_value.tv_nsec = static_cast<long>(ns % 1'000'000'000);
    ::timerfd_settime(fd_, 0, &spec, nullptr);
  }

 private:
  int fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
};

bool has_input(int fd) {
  std::byte b{};
  return ::recv(fd, &b, 1, MSG_PEEK | MSG_DONTWAIT) > 0;
}

}  // namespace

// --- Reactor::Impl ----------------------------------------------------------

struct Reactor::Impl {
  Impl(Listener& l, Handler h, Options o, ServerStats& s)
      : listener(l), handler(std::move(h)), options(o), stats(s) {}
  ~Impl() { close_set(); }

  Listener& listener;
  Handler handler;
  Options options;
  ServerStats& stats;
  std::shared_ptr<obs::Histogram> queue_depth;  ///< records while metrics on

  int ep = -1;  ///< the epoll set

  common::Mutex table_mu;  ///< taken before any connection's mu
  std::unordered_map<Conn*, std::unique_ptr<Conn>> conns
      APAR_GUARDED_BY(table_mu);
  std::atomic<bool> draining{false};
  std::atomic<bool> exiting{false};
  /// Threads waiting on the set: in epoll_wait, or watching it in keep().
  std::atomic<std::size_t> waiting{0};
  std::atomic<Clock::rep> next_sweep{0};
  std::atomic<std::size_t> open_count{0};
  obs::Export open_export;

  std::vector<std::thread> threads;
  std::once_flag stopped;

  void close_set() {
    if (ep >= 0) ::close(ep);
    ep = -1;
  }

  bool arm(int op, int fd, std::uint32_t events, void* tag) const {
    epoll_event ev{};
    ev.events = events;
    ev.data.ptr = tag;
    return ::epoll_ctl(ep, op, fd, &ev) == 0;
  }

  // --- a serving thread -------------------------------------------------

  void run() {
    std::vector<std::byte> stage(kStageSize);
    const KeepTimer timer;
    for (;;) {
      epoll_event ev{};
      waiting.fetch_add(1, std::memory_order_relaxed);
      const int n = ::epoll_wait(ep, &ev, 1,
                                 static_cast<int>(kSweepInterval.count()));
      waiting.fetch_sub(1, std::memory_order_relaxed);
      if (exiting.load(std::memory_order_acquire)) return;
      if (n == 1 && ev.data.ptr == &listener) {
        accept_all();
      } else if (n == 1) {
        serve(*static_cast<Conn*>(ev.data.ptr), ev.events, stage, timer);
      }
      maybe_sweep(Clock::now());
    }
  }

  void accept_all() {
    for (;;) {
      Socket client = listener.accept(std::chrono::milliseconds(0));
      if (!client.valid()) break;
      if (options.sndbuf_bytes > 0) {
        const int v = options.sndbuf_bytes;
        ::setsockopt(client.fd(), SOL_SOCKET, SO_SNDBUF, &v, sizeof(v));
      }
      auto owned = std::make_unique<Conn>(std::move(client));
      Conn* conn = owned.get();
      common::MutexLock table(table_mu);
      if (draining.load(std::memory_order_acquire)) return;  // stays out
      if (conns.size() >= options.max_connections) {
        stats.rejected.add();
        continue;  // client socket closes on scope exit
      }
      {
        // Publishes the new connection to whichever thread first owns it.
        common::MutexLock lock(conn->mu);
        conn->last_active = Clock::now();
      }
      conns.emplace(conn, std::move(owned));
      if (!arm(EPOLL_CTL_ADD, conn->socket.fd(), EPOLLIN | EPOLLONESHOT,
               conn)) {
        conns.erase(conn);
        continue;
      }
      stats.accepted.add();
      open_count.store(conns.size(), std::memory_order_relaxed);
    }
    // Fails harmlessly once stop() has taken the listener out of the set.
    if (!draining.load(std::memory_order_acquire))
      arm(EPOLL_CTL_MOD, listener.fd(), EPOLLIN | EPOLLONESHOT, &listener);
  }

  /// The owner's whole turn: take the connection, read and serve (or
  /// flush its tail and serve what was held behind it), keep it while its
  /// next requests follow their replies closely, and hand it back.
  void serve(Conn& conn, std::uint32_t events, std::vector<std::byte>& stage,
             const KeepTimer& timer) {
    Next next = Next::kClose;
    {
      common::MutexLock lock(conn.mu);
      if (!conn.closing && (events & (EPOLLERR | EPOLLHUP)) == 0) {
        conn.busy = true;
        next = conn.tail_pending() ? Next::kFlush : Next::kRead;
      }
    }
    if (next == Next::kFlush) {
      next = flush(conn);
    } else if (next == Next::kRead) {
      next = read(conn, stage);
    }
    bool keeping = false;
    while (next == Next::kRead && conn.between_frames() &&
           keep(conn, timer, keeping))
      next = read(conn, stage);
    if (!hand_back(conn, next)) close_conn(conn);
  }

  /// With every frame read so far answered, wait up to kKeepWindow on the
  /// connection alone for its next request: a client that calls again at
  /// once is served without an epoll_wait wake-up and a re-arm. True once
  /// the connection is readable.
  ///
  /// While no other thread waits on the set, this one watches it too, and
  /// an event there ends the keep, so that event waits no longer than it
  /// would for a handler to return. One watcher is enough: each further
  /// one would wake for the same event and take the set's lock on every
  /// poll. The window runs on the thread's timer, started with the first
  /// keep of a turn and moved on only when it fires; a poll timeout would
  /// arm and cancel a kernel timer around every request.
  bool keep(Conn& conn, const KeepTimer& timer, bool& keeping) {
    const auto now = Clock::now();
    maybe_sweep(now);
    if (timer.fd() < 0 || draining.load(std::memory_order_acquire))
      return false;
    const auto until = now + kKeepWindow;
    if (!std::exchange(keeping, true)) timer.fire_in(kKeepWindow);
    std::size_t none = 0;
    const bool watch =
        waiting.compare_exchange_strong(none, 1, std::memory_order_relaxed);
    pollfd fds[3] = {{conn.socket.fd(), POLLIN, 0},
                     {timer.fd(), POLLIN, 0},
                     {ep, POLLIN, 0}};
    bool readable = false;
    for (;;) {
      if (::poll(fds, watch ? 3 : 2, -1) < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (fds[2].revents != 0) break;  // an event on the set
      if (fds[0].revents != 0) {
        readable = true;
        break;
      }
      // The timer fired: the window ends, or it moves on to this keep's
      // deadline.
      const auto left = until - Clock::now();
      if (left <= Clock::duration::zero()) break;
      timer.fire_in(left);
    }
    if (watch) waiting.fetch_sub(1, std::memory_order_relaxed);
    return readable;
  }

  /// One recv at a time into the staging buffer, or straight into a large
  /// frame's payload once its header is known, until a short read or a
  /// reply that did not fit the socket.
  Next read(Conn& conn, std::vector<std::byte>& stage) {
    for (;;) {
      const bool in_place =
          conn.have_header && conn.header.payload_len > kStageSize;
      std::byte* dst = stage.data();
      std::size_t want = stage.size();
      if (in_place) {
        if (conn.payload_got == conn.payload.size())
          conn.payload.resize(conn.payload_got +
                              payload_chunk(conn.payload_got,
                                            conn.header.payload_len));
        dst = conn.payload.data() + conn.payload_got;
        want = conn.payload.size() - conn.payload_got;
      }
      const ssize_t n = ::recv(conn.socket.fd(), dst, want, 0);
      if (n == 0) return Next::kClose;  // EOF: normal close, mid-frame or not
      if (n < 0) {
        if (errno == EINTR) continue;
        return errno == EAGAIN || errno == EWOULDBLOCK ? Next::kRead
                                                       : Next::kClose;
      }
      const auto got = static_cast<std::size_t>(n);
      Next next = Next::kRead;
      if (in_place) {
        conn.payload_got += got;
        next = feed(conn, nullptr, 0);
      } else {
        next = feed(conn, stage.data(), got);
      }
      if (next != Next::kRead || got < want) return next;
    }
  }

  /// Decode received bytes and serve every complete frame. When a reply
  /// is left partly unsent, the rest of the bytes is held for later.
  Next feed(Conn& conn, const std::byte* data, std::size_t size) {
    for (;;) {
      if (conn.have_header && conn.payload_got == conn.header.payload_len) {
        const Next next = serve_frame(conn);
        if (next == Next::kFlush) conn.held.assign(data, data + size);
        if (next != Next::kRead) return next;
      }
      if (size == 0) return Next::kRead;
      std::size_t take = 0;
      if (!conn.have_header) {
        if (conn.header_got == 0) conn.frame_started = true;
        take = std::min(size, FrameHeader::kSize - conn.header_got);
        std::memcpy(conn.header_buf.data() + conn.header_got, data, take);
        conn.header_got += take;
        if (conn.header_got == FrameHeader::kSize) {
          try {
            conn.header = decode_header(conn.header_buf.data(),
                                        conn.header_buf.size());
          } catch (const NetError&) {
            stats.protocol_errors.add();
            return Next::kClose;
          }
          conn.have_header = true;
          conn.payload.reserve(
              std::min<std::size_t>(conn.header.payload_len, kPayloadReserve));
        }
      } else {
        take = std::min(size, conn.header.payload_len - conn.payload_got);
        if (conn.payload.size() < conn.payload_got + take)
          conn.payload.resize(conn.payload_got + take);
        std::memcpy(conn.payload.data() + conn.payload_got, data, take);
        conn.payload_got += take;
      }
      data += take;
      size -= take;
    }
  }

  /// Run the assembled frame's handler on this thread and write its reply.
  Next serve_frame(Conn& conn) {
    stats.frames_in.add();
    stats.bytes_in.add(FrameHeader::kSize + conn.payload_got);
    const FrameHeader header = conn.header;
    std::vector<std::byte> payload = std::move(conn.payload);
    conn.payload.clear();
    conn.payload_got = 0;
    conn.have_header = false;
    conn.header_got = 0;
    Frame reply;
    try {
      reply = handler(header, std::move(payload));
    } catch (...) {
      // The handler answers application errors itself; anything that
      // escapes means the request cannot be answered reliably, so the
      // connection closes without a reply.
      return Next::kClose;
    }
    return send_reply(conn, reply);
  }

  /// One nonblocking gather write; what the socket does not take becomes
  /// the connection's tail.
  Next send_reply(Conn& conn, Frame& reply) {
    reply.header.payload_len = static_cast<std::uint32_t>(reply.payload.size());
    auto head = encode_header(reply.header);
    const std::size_t total = head.size() + reply.payload.size();
    common::MutexLock lock(conn.mu);
    if (conn.closing) return Next::kClose;  // shut down under the handler
    // Counted before any byte can reach the peer, so a client that reads
    // the server's stats after its reply sees the reply counted.
    stats.frames_out.add();
    if (obs::metrics_enabled())
      queue_depth->record(static_cast<double>(total));

    iovec iov[2] = {{head.data(), head.size()},
                    {reply.payload.data(), reply.payload.size()}};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = reply.payload.empty() ? 1 : 2;
    ssize_t n = 0;
    do {
      n = ::sendmsg(conn.socket.fd(), &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    } while (n < 0 && errno == EINTR);
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return Next::kClose;
    const std::size_t sent = n > 0 ? static_cast<std::size_t>(n) : 0;
    if (sent > 0) stats.bytes_out.add(sent);
    if (sent == total) return Next::kRead;

    if (sent < head.size()) {
      conn.outbuf.assign(head.begin() + static_cast<std::ptrdiff_t>(sent),
                         head.end());
      conn.outbuf.insert(conn.outbuf.end(), reply.payload.begin(),
                         reply.payload.end());
      conn.out_off = 0;
    } else {
      conn.outbuf = std::move(reply.payload);
      conn.out_off = sent - head.size();
    }
    conn.last_write_progress = Clock::now();
    stats.backpressure_pauses.add();
    return Next::kFlush;
  }

  /// Push the unsent tail; once it is gone, serve the frames held behind
  /// it, unless the reactor is draining.
  Next flush(Conn& conn) {
    {
      common::MutexLock lock(conn.mu);
      while (conn.tail_pending()) {
        const ssize_t n = ::send(conn.socket.fd(),
                                 conn.outbuf.data() + conn.out_off,
                                 conn.outbuf.size() - conn.out_off,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
          conn.out_off += static_cast<std::size_t>(n);
          stats.bytes_out.add(static_cast<std::uint64_t>(n));
          conn.last_write_progress = Clock::now();
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          return Next::kFlush;
        } else if (n == 0 || errno != EINTR) {
          return Next::kClose;
        }
      }
      conn.outbuf = {};
      conn.out_off = 0;
    }
    if (draining.load(std::memory_order_acquire)) return Next::kRead;
    const std::vector<std::byte> held = std::move(conn.held);
    conn.held.clear();
    return feed(conn, held.data(), held.size());
  }

  /// Re-arm the connection for what it waits on. Returns false when its
  /// owner must close it instead: it failed, was shut down while owned,
  /// or has nothing left to send while the reactor drains.
  bool hand_back(Conn& conn, Next next) {
    const auto now = Clock::now();
    const bool started = std::exchange(conn.frame_started, false);
    common::MutexLock lock(conn.mu);
    conn.busy = false;
    if (conn.between_frames()) {
      conn.frame_began.reset();
    } else if (started) {
      conn.frame_began = now;
    }
    if (next != Next::kClose && !conn.closing &&
        (next == Next::kFlush || !draining.load(std::memory_order_acquire))) {
      conn.last_active = now;
      if (arm(EPOLL_CTL_MOD, conn.socket.fd(),
              (next == Next::kFlush ? EPOLLOUT : EPOLLIN) | EPOLLONESHOT,
              &conn))
        return true;
    }
    conn.closing = true;  // sweeps and stop() leave it to its owner now
    return false;
  }

  /// The owner's close: out of the set and the table, descriptor closed.
  /// No other thread can hold an event for it, so its number is free.
  void close_conn(Conn& conn) {
    arm(EPOLL_CTL_DEL, conn.socket.fd(), 0, nullptr);
    std::unique_ptr<Conn> owned;  // destroyed outside the table lock
    {
      common::MutexLock table(table_mu);
      owned = std::move(conns.extract(&conn).mapped());
      open_count.store(conns.size(), std::memory_order_relaxed);
    }
  }

  // --- sweeps and drain --------------------------------------------------

  /// One thread per kSweepInterval closes stalled writers, stalled senders
  /// and idle connections that no thread owns.
  void maybe_sweep(Clock::time_point now) {
    Clock::rep due = next_sweep.load(std::memory_order_relaxed);
    if (now.time_since_epoch().count() < due ||
        !next_sweep.compare_exchange_strong(
            due, (now + kSweepInterval).time_since_epoch().count(),
            std::memory_order_relaxed))
      return;
    common::MutexLock table(table_mu);
    for (auto& [raw, owned] : conns) {
      Conn& conn = *owned;
      common::MutexLock lock(conn.mu);
      if (conn.busy || conn.closing) continue;
      if (conn.tail_pending()) {
        if (now - conn.last_write_progress <= options.stall_timeout) continue;
        stats.slow_closed.add();
        APAR_DEBUG("net") << "reactor: evicting slow reader fd="
                          << conn.socket.fd();
      } else if (conn.frame_began &&
                 now - *conn.frame_began > options.stall_timeout) {
        stats.slow_closed.add();
        APAR_DEBUG("net") << "reactor: closing stalled sender fd="
                          << conn.socket.fd();
      } else {
        if (options.idle_timeout.count() == 0 ||
            now - conn.last_active <= options.idle_timeout ||
            has_input(conn.socket.fd()))
          continue;
        stats.idle_closed.add();
      }
      conn.shut();
    }
  }

  /// Shut down every connection not yet closing; with `idle_only`, only
  /// those no thread is serving and with nothing left to send.
  void shut_down(bool idle_only) {
    common::MutexLock table(table_mu);
    for (auto& [raw, owned] : conns) {
      Conn& conn = *owned;
      common::MutexLock lock(conn.mu);
      if (conn.closing || (idle_only && (conn.busy || conn.tail_pending())))
        continue;
      conn.shut();
    }
  }

  void wait_for_no_connections(Clock::time_point deadline) const {
    while (open_count.load(std::memory_order_relaxed) > 0 &&
           Clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
};

// --- Reactor ----------------------------------------------------------------

Reactor::Reactor(Listener& listener, std::size_t threads, Handler handler,
                 Options options, ServerStats& stats, const std::string& label)
    : impl_(std::make_unique<Impl>(listener, std::move(handler), options,
                                   stats)) {
  Impl& r = *impl_;
  auto& reg = obs::MetricsRegistry::global();
  const obs::Labels labels{{"server", label}};
  r.queue_depth = reg.histogram("net.server.queue_depth", labels,
                                obs::Histogram::bytes_bounds());
  r.open_export = reg.export_gauge(
      "net.server.open_connections", labels, [impl = impl_.get()] {
        return static_cast<std::int64_t>(
            impl->open_count.load(std::memory_order_relaxed));
      });

  r.ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (r.ep < 0 ||
      !r.arm(EPOLL_CTL_ADD, listener.fd(), EPOLLIN | EPOLLONESHOT, &listener))
    throw NetError(NetError::Kind::kIo, "reactor: epoll set-up failed");
  try {
    for (std::size_t i = 0; i < std::max<std::size_t>(threads, 1); ++i)
      r.threads.emplace_back([&r] { r.run(); });
  } catch (...) {
    stop();
    throw;
  }
}

Reactor::~Reactor() { stop(); }

void Reactor::stop() {
  Impl& r = *impl_;
  std::call_once(r.stopped, [&r] {
    r.draining.store(true, std::memory_order_release);
    r.arm(EPOLL_CTL_DEL, r.listener.fd(), 0, nullptr);
    r.shut_down(/*idle_only=*/true);
    r.wait_for_no_connections(Clock::now() + r.options.drain_timeout);
    r.shut_down(/*idle_only=*/false);
    r.wait_for_no_connections(Clock::time_point::max());

    // Each thread sees this within one kSweepInterval.
    r.exiting.store(true, std::memory_order_release);
    for (std::thread& t : r.threads) t.join();
    r.threads.clear();
    r.close_set();
  });
}

std::size_t Reactor::open_connections() const {
  return impl_->open_count.load(std::memory_order_relaxed);
}

}  // namespace apar::net
