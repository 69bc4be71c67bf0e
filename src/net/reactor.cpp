#include "apar/net/reactor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <array>
#include <atomic>
#include <cerrno>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "apar/common/log.hpp"
#include "apar/net/error.hpp"
#include "apar/obs/metrics.hpp"

namespace apar::net {

namespace {

/// One readiness report from a poller backend.
struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

/// Backend-neutral readiness interface. Both implementations are
/// level-triggered: a fd with unread bytes (or writable space) keeps
/// reporting ready, so the loop never needs to drain a fd exhaustively
/// before returning to wait().
class Poller {
 public:
  virtual ~Poller() = default;
  virtual void add(int fd, bool read, bool write) = 0;
  virtual void update(int fd, bool read, bool write) = 0;
  virtual void remove(int fd) = 0;
  virtual void wait(std::vector<PollEvent>& out, int timeout_ms) = 0;
};

#ifdef __linux__
class EpollPoller final : public Poller {
 public:
  EpollPoller() : ep_(::epoll_create1(EPOLL_CLOEXEC)) {
    if (ep_ < 0)
      throw NetError(NetError::Kind::kIo, "epoll_create1 failed");
  }
  ~EpollPoller() override { ::close(ep_); }

  void add(int fd, bool read, bool write) override { ctl(EPOLL_CTL_ADD, fd, read, write); }
  void update(int fd, bool read, bool write) override { ctl(EPOLL_CTL_MOD, fd, read, write); }
  void remove(int fd) override {
    epoll_event ev{};
    ::epoll_ctl(ep_, EPOLL_CTL_DEL, fd, &ev);
  }

  void wait(std::vector<PollEvent>& out, int timeout_ms) override {
    out.clear();
    epoll_event events[64];
    const int n = ::epoll_wait(ep_, events, 64, timeout_ms);
    for (int i = 0; i < n; ++i) {
      PollEvent e;
      e.fd = events[i].data.fd;
      e.readable = (events[i].events & EPOLLIN) != 0;
      e.writable = (events[i].events & EPOLLOUT) != 0;
      e.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      out.push_back(e);
    }
  }

 private:
  void ctl(int op, int fd, bool read, bool write) {
    epoll_event ev{};
    ev.data.fd = fd;
    if (read) ev.events |= EPOLLIN;
    if (write) ev.events |= EPOLLOUT;
    if (::epoll_ctl(ep_, op, fd, &ev) < 0)
      throw NetError(NetError::Kind::kIo, "epoll_ctl failed");
  }

  int ep_;
};
#endif

/// Portable fallback: a pollfd array rebuilt incrementally. O(n) per
/// wait, which is fine for the connection counts the fallback targets.
class PollPoller final : public Poller {
 public:
  void add(int fd, bool read, bool write) override {
    index_[fd] = fds_.size();
    fds_.push_back(pollfd{fd, events_of(read, write), 0});
  }
  void update(int fd, bool read, bool write) override {
    fds_[index_.at(fd)].events = events_of(read, write);
  }
  void remove(int fd) override {
    const std::size_t i = index_.at(fd);
    index_.erase(fd);
    if (i + 1 != fds_.size()) {
      fds_[i] = fds_.back();
      index_[fds_[i].fd] = i;
    }
    fds_.pop_back();
  }

  void wait(std::vector<PollEvent>& out, int timeout_ms) override {
    out.clear();
    const int n = ::poll(fds_.data(), fds_.size(), timeout_ms);
    if (n <= 0) return;
    for (const pollfd& p : fds_) {
      if (p.revents == 0) continue;
      PollEvent e;
      e.fd = p.fd;
      e.readable = (p.revents & POLLIN) != 0;
      e.writable = (p.revents & POLLOUT) != 0;
      e.error = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      out.push_back(e);
    }
  }

 private:
  static short events_of(bool read, bool write) {
    short ev = 0;
    if (read) ev |= POLLIN;
    if (write) ev |= POLLOUT;
    return ev;
  }

  std::vector<pollfd> fds_;
  std::unordered_map<int, std::size_t> index_;
};

std::unique_ptr<Poller> make_poller(bool force_poll) {
#ifdef __linux__
  if (!force_poll) return std::make_unique<EpollPoller>();
#else
  (void)force_poll;
#endif
  return std::make_unique<PollPoller>();
}

void make_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

// --- completion plumbing ----------------------------------------------------

/// Finished handler results travelling from pool workers back to the
/// loop. Workers hold the queue through a shared_ptr, so a worker that
/// outlives the reactor (stop() gave up waiting) still has somewhere
/// valid to push — the result is simply never read.
struct ReactorCompletion {
  std::uint64_t conn_id = 0;
  std::uint64_t seq = 0;
  ReplyAction action;
};

struct ReactorCompletionQueue {
  std::mutex mutex;
  std::vector<ReactorCompletion> items;
  int wake_fd = -1;  ///< write end of the self-pipe; owned

  ~ReactorCompletionQueue() {
    if (wake_fd >= 0) ::close(wake_fd);
  }

  void push(ReactorCompletion c) {
    {
      std::lock_guard lock(mutex);
      items.push_back(std::move(c));
    }
    // A full pipe is fine: a wakeup byte is already pending.
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &byte, 1);
  }
};

// --- Reactor::Impl ----------------------------------------------------------

struct Reactor::Impl {
  Impl(Listener& l, concurrency::ThreadPool& p, Handler h, Options o,
       ServerStats& s)
      : listener(l), pool(p), handler(std::move(h)), options(o), stats(s) {}

  struct Conn {
    std::uint64_t id = 0;
    Socket socket;

    // Read state machine: header bytes, then payload bytes, repeat.
    std::array<std::byte, FrameHeader::kSize> header_buf;
    std::size_t header_got = 0;
    bool have_header = false;
    FrameHeader header;
    std::vector<std::byte> payload;
    std::size_t payload_got = 0;

    // Dispatch/write side. Requests get arrival-order sequence numbers;
    // replies flush strictly in that order, out-of-order completions
    // park until their predecessors finish.
    std::uint64_t next_dispatch_seq = 0;
    std::uint64_t next_flush_seq = 0;
    std::size_t inflight = 0;  ///< dispatched, completion not yet seen
    std::map<std::uint64_t, ReplyAction> parked;
    std::vector<std::byte> outbuf;
    std::size_t out_off = 0;

    bool paused = false;  ///< read interest dropped (backpressure)
    std::chrono::steady_clock::time_point last_activity;
    std::chrono::steady_clock::time_point last_write_progress;

    [[nodiscard]] std::size_t pending_out() const {
      return outbuf.size() - out_off;
    }
    [[nodiscard]] bool work_pending() const {
      return inflight > 0 || !parked.empty() || pending_out() > 0;
    }
  };

  Listener& listener;
  concurrency::ThreadPool& pool;
  Handler handler;
  Options options;

  std::unique_ptr<Poller> poller;
  std::shared_ptr<ReactorCompletionQueue> completions;
  int wake_read_fd = -1;

  std::map<std::uint64_t, std::unique_ptr<Conn>> conns;
  std::unordered_map<int, std::uint64_t> by_fd;
  std::uint64_t next_conn_id = 1;

  std::atomic<bool> draining{false};
  std::atomic<std::size_t> open_count{0};

  ServerStats& stats;
  std::shared_ptr<obs::Histogram> queue_depth;  ///< records while metrics on
  obs::Export open_export;

  std::thread loop;

  // --- loop body ---------------------------------------------------------

  void run() {
    std::vector<PollEvent> events;
    std::optional<std::chrono::steady_clock::time_point> drain_deadline;
    for (;;) {
      const bool drain = draining.load(std::memory_order_acquire);
      if (drain && !drain_deadline) {
        drain_deadline = std::chrono::steady_clock::now() +
                         options.drain_timeout;
        begin_drain();
      }
      if (drain && conns.empty()) break;
      if (drain_deadline &&
          std::chrono::steady_clock::now() >= *drain_deadline) {
        close_all();
        break;
      }

      poller->wait(events, drain ? 10 : 50);
      for (const PollEvent& ev : events) {
        if (ev.fd == wake_read_fd) {
          drain_wake_pipe();
          continue;
        }
        if (!drain && is_listener_fd(ev.fd)) {
          do_accept();
          continue;
        }
        auto it = by_fd.find(ev.fd);
        if (it == by_fd.end()) continue;
        Conn* conn = conns.at(it->second).get();
        if (ev.error) {
          close_conn(*conn);
          continue;
        }
        if (ev.writable) {
          if (!try_write(*conn)) continue;  // closed on write error
          // Draining the outbound buffer may clear an outbound-bytes
          // pause; without this a quiet client would stay paused forever.
          maybe_resume(*conn);
        }
        if (ev.readable) on_readable(*conn);
      }
      apply_completions();
      sweep_timers();
    }
  }

  // The listener fd is not stored in by_fd; compare against its actual
  // descriptor, cached at start().
  int listener_fd = -1;
  [[nodiscard]] bool is_listener_fd(int fd) const { return fd == listener_fd; }

  void do_accept() {
    for (;;) {
      Socket client = listener.accept(std::chrono::milliseconds(0));
      if (!client.valid()) return;
      if (conns.size() >= options.max_connections) {
        stats.rejected.add();
        continue;  // client socket closes on scope exit
      }
      if (options.sndbuf_bytes > 0) {
        const int v = options.sndbuf_bytes;
        ::setsockopt(client.fd(), SOL_SOCKET, SO_SNDBUF, &v, sizeof(v));
      }
      stats.accepted.add();

      auto conn = std::make_unique<Conn>();
      conn->id = next_conn_id++;
      conn->last_activity = std::chrono::steady_clock::now();
      conn->last_write_progress = conn->last_activity;
      const int fd = client.fd();
      conn->socket = std::move(client);
      poller->add(fd, /*read=*/true, /*write=*/false);
      by_fd[fd] = conn->id;
      conns[conn->id] = std::move(conn);
      open_count.store(conns.size(), std::memory_order_relaxed);
    }
  }

  void on_readable(Conn& conn) {
    while (!conn.paused) {
      std::byte* dst;
      std::size_t want;
      if (!conn.have_header) {
        dst = conn.header_buf.data() + conn.header_got;
        want = FrameHeader::kSize - conn.header_got;
      } else {
        dst = conn.payload.data() + conn.payload_got;
        want = conn.payload.size() - conn.payload_got;
      }

      if (want > 0) {
        const ssize_t n = ::recv(conn.socket.fd(), dst, want, 0);
        if (n == 0) {  // EOF: normal close (mid-frame or not)
          close_conn(conn);
          return;
        }
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) return;
          if (errno == EINTR) continue;
          close_conn(conn);
          return;
        }
        conn.last_activity = std::chrono::steady_clock::now();
        if (!conn.have_header) {
          conn.header_got += static_cast<std::size_t>(n);
          if (conn.header_got < FrameHeader::kSize) continue;
          try {
            conn.header = decode_header(conn.header_buf.data(),
                                        conn.header_buf.size());
          } catch (const NetError&) {
            stats.protocol_errors.add();
            close_conn(conn);
            return;
          }
          conn.have_header = true;
          conn.payload.assign(conn.header.payload_len, std::byte{0});
          conn.payload_got = 0;
          if (conn.header.payload_len > 0) continue;
        } else {
          conn.payload_got += static_cast<std::size_t>(n);
          if (conn.payload_got < conn.payload.size()) continue;
        }
      }

      // One complete frame: hand it to the pool and reset the machine.
      stats.frames_in.add();
      stats.bytes_in.add(FrameHeader::kSize + conn.payload.size());
      if (!dispatch(conn, conn.header, std::move(conn.payload)))
        return;  // pool unavailable: connection closed
      conn.have_header = false;
      conn.header_got = 0;
      conn.payload.clear();
      conn.payload_got = 0;
      maybe_pause(conn);
    }
  }

  /// Returns false when the connection had to close (pool unavailable).
  bool dispatch(Conn& conn, FrameHeader header,
                std::vector<std::byte> payload) {
    const std::uint64_t seq = conn.next_dispatch_seq++;
    ++conn.inflight;
    try {
      pool.post([queue = completions, h = handler, cid = conn.id, seq,
                 header, pl = std::move(payload)]() mutable {
        ReactorCompletion done;
        done.conn_id = cid;
        done.seq = seq;
        try {
          done.action = h(header, std::move(pl));
        } catch (...) {
          // The handler answers application errors itself; anything that
          // escapes means the request cannot be answered reliably.
          done.action.drop = true;
        }
        queue->push(std::move(done));
      });
    } catch (...) {
      // Pool shutting down: the request dies with the connection.
      close_conn(conn);
      return false;
    }
    return true;
  }

  void drain_wake_pipe() {
    char buf[256];
    while (::read(wake_read_fd, buf, sizeof(buf)) > 0) {
    }
  }

  void apply_completions() {
    std::vector<ReactorCompletion> items;
    {
      std::lock_guard lock(completions->mutex);
      items.swap(completions->items);
    }
    for (ReactorCompletion& c : items) {
      auto it = conns.find(c.conn_id);
      if (it == conns.end()) continue;  // connection already gone
      Conn& conn = *it->second;
      --conn.inflight;
      conn.parked.emplace(c.seq, std::move(c.action));
      if (!flush_ready(conn)) continue;  // closed (chaos drop / write error)
      // Flushing may have grown the outbound buffer past the cap (pause
      // reads even if the client has stopped sending for now) or shrunk
      // the in-flight set below it (resume).
      maybe_pause(conn);
      maybe_resume(conn);
      if (draining.load(std::memory_order_relaxed) && !conn.work_pending())
        close_conn(conn);
    }
  }

  /// Move in-order parked replies into the outbound buffer and push
  /// bytes. Returns false when the connection was closed.
  bool flush_ready(Conn& conn) {
    while (!conn.parked.empty() &&
           conn.parked.begin()->first == conn.next_flush_seq) {
      ReplyAction action = std::move(conn.parked.begin()->second);
      conn.parked.erase(conn.parked.begin());
      ++conn.next_flush_seq;
      if (action.drop) {
        // Chaos "lost reply": close without answering — later pipelined
        // requests on this connection die with it, exactly like the
        // thread-per-connection mode.
        close_conn(conn);
        return false;
      }
      action.header.payload_len =
          static_cast<std::uint32_t>(action.payload.size());
      const auto bytes = encode_header(action.header);
      conn.outbuf.insert(conn.outbuf.end(), bytes.begin(), bytes.end());
      conn.outbuf.insert(conn.outbuf.end(), action.payload.begin(),
                         action.payload.end());
      stats.frames_out.add();
      if (obs::metrics_enabled())
        queue_depth->record(static_cast<double>(conn.pending_out()));
    }
    return try_write(conn);
  }

  /// Push pending outbound bytes until EAGAIN or empty. Returns false
  /// when the connection was closed on a write error.
  bool try_write(Conn& conn) {
    while (conn.out_off < conn.outbuf.size()) {
      const ssize_t n =
          ::send(conn.socket.fd(), conn.outbuf.data() + conn.out_off,
                 conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        stats.bytes_out.add(static_cast<std::uint64_t>(n));
        conn.last_write_progress = std::chrono::steady_clock::now();
        conn.last_activity = conn.last_write_progress;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      close_conn(conn);
      return false;
    }
    if (conn.out_off == conn.outbuf.size()) {
      conn.outbuf.clear();
      conn.out_off = 0;
    } else if (conn.out_off > (64u << 10)) {
      conn.outbuf.erase(conn.outbuf.begin(),
                        conn.outbuf.begin() +
                            static_cast<std::ptrdiff_t>(conn.out_off));
      conn.out_off = 0;
    }
    update_interest(conn);
    return true;
  }

  void maybe_pause(Conn& conn) {
    if (conn.paused) return;
    if (conn.inflight + conn.parked.size() >= options.max_inflight ||
        conn.pending_out() >= options.max_outbound_bytes) {
      conn.paused = true;
      stats.backpressure_pauses.add();
      update_interest(conn);
    }
  }

  void maybe_resume(Conn& conn) {
    if (!conn.paused) return;
    if (conn.inflight + conn.parked.size() < options.max_inflight &&
        conn.pending_out() < options.max_outbound_bytes) {
      conn.paused = false;
      update_interest(conn);
    }
  }

  void update_interest(Conn& conn) {
    const bool read =
        !conn.paused && !draining.load(std::memory_order_relaxed);
    poller->update(conn.socket.fd(), read, conn.pending_out() > 0);
  }

  void sweep_timers() {
    const auto now = std::chrono::steady_clock::now();
    // close_conn mutates conns; collect victims first.
    std::vector<Conn*> idle_victims;
    std::vector<Conn*> stall_victims;
    for (auto& [id, conn] : conns) {
      if (conn->pending_out() > 0 &&
          now - conn->last_write_progress > options.write_stall_timeout)
        stall_victims.push_back(conn.get());
      else if (options.idle_timeout.count() > 0 && !conn->work_pending() &&
               now - conn->last_activity > options.idle_timeout)
        idle_victims.push_back(conn.get());
    }
    for (Conn* conn : stall_victims) {
      stats.slow_closed.add();
      APAR_DEBUG("net") << "reactor: evicting slow reader fd="
                        << conn->socket.fd();
      close_conn(*conn);
    }
    for (Conn* conn : idle_victims) {
      stats.idle_closed.add();
      close_conn(*conn);
    }
  }

  void close_conn(Conn& conn) {
    poller->remove(conn.socket.fd());
    by_fd.erase(conn.socket.fd());
    conns.erase(conn.id);  // destroys conn — no touching it after this
    open_count.store(conns.size(), std::memory_order_relaxed);
  }

  void begin_drain() {
    poller->remove(listener_fd);
    std::vector<Conn*> done;
    for (auto& [id, conn] : conns) {
      update_interest(*conn);  // read interest off for everyone
      if (!conn->work_pending()) done.push_back(conn.get());
    }
    for (Conn* conn : done) close_conn(*conn);
  }

  void close_all() {
    while (!conns.empty()) close_conn(*conns.begin()->second);
  }
};

// --- Reactor ----------------------------------------------------------------

Reactor::Reactor(Listener& listener, concurrency::ThreadPool& pool,
                 Handler handler, Options options, ServerStats& stats,
                 const std::string& label)
    : impl_(std::make_unique<Impl>(listener, pool, std::move(handler),
                                   options, stats)) {
  int fds[2];
  if (::pipe(fds) < 0)
    throw NetError(NetError::Kind::kIo, "reactor self-pipe failed");
  make_nonblocking(fds[0]);
  make_nonblocking(fds[1]);
  impl_->completions = std::make_shared<ReactorCompletionQueue>();
  impl_->completions->wake_fd = fds[1];
  impl_->wake_read_fd = fds[0];

  auto& reg = obs::MetricsRegistry::global();
  const obs::Labels labels{{"server", label}};
  impl_->queue_depth = reg.histogram("net.server.queue_depth", labels,
                                     obs::Histogram::bytes_bounds());
  impl_->open_export =
      reg.export_gauge("net.server.open_connections", labels,
                       [impl = impl_.get()] {
                         return static_cast<std::int64_t>(impl->open_count.load(
                             std::memory_order_relaxed));
                       });

  impl_->poller = make_poller(options.force_poll);
  impl_->listener_fd = listener.fd();
  impl_->poller->add(impl_->listener_fd, /*read=*/true, /*write=*/false);
  impl_->poller->add(impl_->wake_read_fd, /*read=*/true, /*write=*/false);
  impl_->loop = std::thread([this] { impl_->run(); });
}

Reactor::~Reactor() {
  stop();
  if (impl_->wake_read_fd >= 0) ::close(impl_->wake_read_fd);
}

void Reactor::stop() {
  if (impl_->draining.exchange(true, std::memory_order_acq_rel)) {
    if (impl_->loop.joinable()) impl_->loop.join();
    return;
  }
  // Wake the loop so it notices the drain promptly.
  const char byte = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(impl_->completions->wake_fd, &byte, 1);
  if (impl_->loop.joinable()) impl_->loop.join();
}

std::size_t Reactor::open_connections() const {
  return impl_->open_count.load(std::memory_order_relaxed);
}

}  // namespace apar::net
