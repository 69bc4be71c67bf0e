#include "apar/net/reactor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
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

/// The loop's staging buffer: one recv carries many small frames, and a
/// large frame copies at most this much out of it before the rest of its
/// payload is received in place.
constexpr std::size_t kStageSize = 16 * 1024;

/// Timeouts are checked at most this often, not on every loop turn.
constexpr auto kSweepInterval = std::chrono::milliseconds(10);

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

// --- connections --------------------------------------------------------

/// One accepted connection. The read side is the loop's alone; the write
/// side, under `mu`, is shared with the pool workers answering its
/// requests. Every dispatched task co-owns the connection, so the socket
/// (and its descriptor number) lives until the last of them lets go.
struct ReactorConn : std::enable_shared_from_this<ReactorConn> {
  ReactorConn(Socket s, Clock::time_point now)
      : socket(std::move(s)), last_read(now), last_write_progress(now) {}

  Socket socket;

  // --- loop only ----------------------------------------------------------
  // The frame being assembled: header bytes until the header decodes, then
  // its payload, committed only as bytes arrive (payload.size() is the
  // committed part, payload_got the received part).
  std::array<std::byte, FrameHeader::kSize> header_buf{};
  std::size_t header_got = 0;
  bool have_header = false;
  FrameHeader header;
  std::vector<std::byte> payload;
  std::size_t payload_got = 0;
  /// Received bytes not yet decoded because a pause began part-way
  /// through a read; decoded on resume, before anything read later.
  std::vector<std::byte> held;
  std::uint64_t next_dispatch_seq = 0;
  bool reading = true;  ///< the loop's copy of !paused && !draining
  bool polled_read = true;  ///< interest the poller last heard
  bool polled_write = false;
  Clock::time_point last_read;

  // --- shared with workers ------------------------------------------------
  common::Mutex mu;
  std::uint64_t next_flush_seq APAR_GUARDED_BY(mu) = 0;
  /// Dispatched requests whose reply is neither written nor seen by the
  /// loop yet.
  std::size_t inflight APAR_GUARDED_BY(mu) = 0;
  /// Replies that reached the loop before their predecessors were written.
  std::map<std::uint64_t, ReplyAction> parked APAR_GUARDED_BY(mu);
  std::vector<std::byte> outbuf APAR_GUARDED_BY(mu);
  std::size_t out_off APAR_GUARDED_BY(mu) = 0;
  bool paused APAR_GUARDED_BY(mu) = false;
  bool draining APAR_GUARDED_BY(mu) = false;
  bool closed APAR_GUARDED_BY(mu) = false;
  Clock::time_point last_write_progress APAR_GUARDED_BY(mu);

  [[nodiscard]] std::size_t pending_out() const APAR_REQUIRES(mu) {
    return outbuf.size() - out_off;
  }
  [[nodiscard]] bool work_pending() const APAR_REQUIRES(mu) {
    return inflight > 0 || !parked.empty() || pending_out() > 0;
  }
  /// A worker may write the reply for `seq` itself: it is next in order
  /// and the loop has nothing queued or to decide on this connection.
  [[nodiscard]] bool writable_by_worker(std::uint64_t seq) const
      APAR_REQUIRES(mu) {
    return seq == next_flush_seq && parked.empty() && pending_out() == 0 &&
           !paused && !draining;
  }
  /// Queue bytes behind whatever is unsent; a stall is timed from the
  /// moment bytes start waiting.
  void append_out(const std::byte* data, std::size_t size) APAR_REQUIRES(mu) {
    if (pending_out() == 0) last_write_progress = Clock::now();
    outbuf.insert(outbuf.end(), data, data + size);
  }

  /// A worker writes a reply that writable_by_worker() allowed, with one
  /// nonblocking gather write. Returns false when bytes are left in the
  /// outbound buffer for the loop: a full socket buffer, or an error the
  /// loop's own write meets again and closes on.
  bool write_reply(ReplyAction& action, ServerStats& stats,
                   obs::Histogram& queue_depth) APAR_REQUIRES(mu) {
    ++next_flush_seq;
    --inflight;
    action.header.payload_len =
        static_cast<std::uint32_t>(action.payload.size());
    auto head = encode_header(action.header);
    const std::size_t total = head.size() + action.payload.size();
    // Counted before any byte can reach the peer, so a client that reads
    // the server's stats after its reply sees the reply counted.
    stats.frames_out.add();
    if (obs::metrics_enabled())
      queue_depth.record(static_cast<double>(total));

    iovec iov[2] = {{head.data(), head.size()},
                    {action.payload.data(), action.payload.size()}};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = action.payload.empty() ? 1 : 2;
    ssize_t n = 0;
    do {
      n = ::sendmsg(socket.fd(), &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    } while (n < 0 && errno == EINTR);
    const std::size_t sent = n > 0 ? static_cast<std::size_t>(n) : 0;
    if (sent > 0) {
      stats.bytes_out.add(sent);
      last_write_progress = Clock::now();
    }
    if (sent == total) return true;

    if (sent < head.size()) {
      append_out(head.data() + sent, head.size() - sent);
      append_out(action.payload.data(), action.payload.size());
    } else {
      const std::size_t skip = sent - head.size();
      append_out(action.payload.data() + skip, action.payload.size() - skip);
    }
    return false;
  }
};

// --- completion plumbing ------------------------------------------------

/// A reply a worker could not write itself, travelling back to the loop.
struct ReactorCompletion {
  std::shared_ptr<ReactorConn> conn;
  std::uint64_t seq = 0;
  /// Empty when a worker's direct write left an unsent tail in the
  /// outbound buffer: the loop only has to finish writing it.
  std::optional<ReplyAction> action;
};

/// Replies handed from pool workers to the loop. The self-pipe is written
/// only when the queue goes from empty to non-empty, and the loop reads it
/// once per wake before taking the whole queue, so no wake-up is lost.
/// The queue owns both pipe ends.
class ReactorCompletionQueue {
 public:
  ReactorCompletionQueue() {
    int fds[2];
    if (::pipe(fds) < 0)
      throw NetError(NetError::Kind::kIo, "reactor self-pipe failed");
    make_nonblocking(fds[0]);
    make_nonblocking(fds[1]);
    read_fd_ = fds[0];
    write_fd_ = fds[1];
  }
  ~ReactorCompletionQueue() {
    ::close(read_fd_);
    ::close(write_fd_);
  }
  ReactorCompletionQueue(const ReactorCompletionQueue&) = delete;
  ReactorCompletionQueue& operator=(const ReactorCompletionQueue&) = delete;

  [[nodiscard]] int wake_fd() const { return read_fd_; }

  void push(ReactorCompletion c) {
    bool was_empty = false;
    {
      common::MutexLock lock(mu_);
      was_empty = items_.empty();
      items_.push_back(std::move(c));
    }
    if (was_empty) wake();
  }

  /// Swap the queued completions into `out` (cleared first).
  void take(std::vector<ReactorCompletion>& out) {
    out.clear();
    common::MutexLock lock(mu_);
    out.swap(items_);
  }

  void wake() {
    // A full pipe is fine: a wake-up byte is already pending.
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(write_fd_, &byte, 1);
  }
  void clear_wake() {
    char buf[64];
    [[maybe_unused]] const ssize_t n = ::read(read_fd_, buf, sizeof(buf));
  }

 private:
  common::Mutex mu_;
  std::vector<ReactorCompletion> items_ APAR_GUARDED_BY(mu_);
  int read_fd_ = -1;
  int write_fd_ = -1;
};

/// What the loop and every dispatched task co-own, so a task that
/// outlives Reactor::stop() (or the Reactor) touches nothing freed.
struct ReactorShared {
  ReactorShared(Reactor::Handler h, ServerStats& s,
                std::shared_ptr<obs::Histogram> depth)
      : handler(std::move(h)), stats(s), queue_depth(std::move(depth)) {}

  Reactor::Handler handler;
  ServerStats& stats;  ///< the caller's; it drains the pool before it dies
  std::shared_ptr<obs::Histogram> queue_depth;  ///< records while metrics on
  ReactorCompletionQueue completions;
};

/// The pool-worker half of a request: run the handler, then write the
/// reply when this worker may, or hand it to the loop.
void serve_request(ReactorShared& shared, std::shared_ptr<ReactorConn> conn,
                   std::uint64_t seq, const FrameHeader& header,
                   std::vector<std::byte> payload) {
  std::optional<ReplyAction> action;
  try {
    action = shared.handler(header, std::move(payload));
  } catch (...) {
    // The handler answers application errors itself; anything that
    // escapes means the request cannot be answered reliably.
    action.emplace().drop = true;
  }
  {
    ReactorConn& c = *conn;
    common::MutexLock lock(c.mu);
    if (c.closed) return;  // nobody left to answer
    if (!action->drop && c.writable_by_worker(seq)) {
      if (c.write_reply(*action, shared.stats, *shared.queue_depth)) return;
      action.reset();  // written in part: the loop sends the rest
    }
  }
  shared.completions.push({std::move(conn), seq, std::move(action)});
}

}  // namespace

// --- Reactor::Impl ----------------------------------------------------------

struct Reactor::Impl {
  Impl(Listener& l, concurrency::ThreadPool& p, Options o)
      : listener(l), pool(p), options(o) {}

  Listener& listener;
  concurrency::ThreadPool& pool;
  Options options;

  std::shared_ptr<ReactorShared> shared;
  std::unique_ptr<Poller> poller;
  int listener_fd = -1;

  std::unordered_map<int, std::shared_ptr<ReactorConn>> conns;  ///< by fd
  std::vector<std::byte> stage = std::vector<std::byte>(kStageSize);
  std::vector<ReactorCompletion> completed;  ///< reused by apply_completions
  Clock::time_point next_sweep;

  std::atomic<bool> draining{false};
  std::atomic<std::size_t> open_count{0};
  obs::Export open_export;

  std::thread loop;

  [[nodiscard]] ServerStats& stats() const { return shared->stats; }

  // --- loop body ---------------------------------------------------------

  void run() {
    std::vector<PollEvent> events;
    std::optional<Clock::time_point> drain_deadline;
    for (;;) {
      const bool drain = draining.load(std::memory_order_acquire);
      if (drain && !drain_deadline) {
        drain_deadline = Clock::now() + options.drain_timeout;
        begin_drain();
      }
      if (drain && conns.empty()) break;
      if (drain_deadline && Clock::now() >= *drain_deadline) {
        close_all();
        break;
      }

      poller->wait(events, drain ? 10 : 50);
      bool woken = false;
      for (const PollEvent& ev : events) {
        if (ev.fd == shared->completions.wake_fd()) {
          shared->completions.clear_wake();
          woken = true;
          continue;
        }
        if (!drain && ev.fd == listener_fd) {
          do_accept();
          continue;
        }
        auto it = conns.find(ev.fd);
        if (it == conns.end()) continue;
        const std::shared_ptr<ReactorConn> conn = it->second;
        if (ev.error) {
          close_conn(*conn);
          continue;
        }
        if (ev.writable && !settle(*conn)) continue;
        if (ev.readable) on_readable(*conn);
      }
      if (woken) apply_completions();
      sweep_timers();
    }
  }

  void do_accept() {
    for (;;) {
      Socket client = listener.accept(std::chrono::milliseconds(0));
      if (!client.valid()) return;
      if (conns.size() >= options.max_connections) {
        stats().rejected.add();
        continue;  // client socket closes on scope exit
      }
      if (options.sndbuf_bytes > 0) {
        const int v = options.sndbuf_bytes;
        ::setsockopt(client.fd(), SOL_SOCKET, SO_SNDBUF, &v, sizeof(v));
      }
      stats().accepted.add();
      const int fd = client.fd();
      poller->add(fd, /*read=*/true, /*write=*/false);
      conns[fd] = std::make_shared<ReactorConn>(std::move(client), Clock::now());
      open_count.store(conns.size(), std::memory_order_relaxed);
    }
  }

  /// One recv per pass, into the staging buffer, or straight into a large
  /// frame's payload once its header is known; stops at a short read.
  void on_readable(ReactorConn& conn) {
    while (conn.reading) {
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
      conn.last_read = Clock::now();
      const auto got = static_cast<std::size_t>(n);
      if (in_place) {
        conn.payload_got += got;
        if (!feed(conn, nullptr, 0)) return;
      } else if (!feed(conn, stage.data(), got)) {
        return;
      }
      if (got < want) return;  // short read: nothing more for now
    }
  }

  /// Decode received bytes into frames and dispatch every complete one.
  /// When a pause begins part-way, the rest is held for the resume.
  /// Returns false when the connection closed.
  bool feed(ReactorConn& conn, const std::byte* data, std::size_t size) {
    for (;;) {
      if (conn.have_header && conn.payload_got == conn.header.payload_len) {
        if (!dispatch(conn)) return false;
        if (!conn.reading) {
          conn.held.assign(data, data + size);
          return true;
        }
      }
      if (size == 0) return true;
      std::size_t take = 0;
      if (!conn.have_header) {
        take = std::min(size, FrameHeader::kSize - conn.header_got);
        std::memcpy(conn.header_buf.data() + conn.header_got, data, take);
        conn.header_got += take;
        if (conn.header_got == FrameHeader::kSize) {
          try {
            conn.header = decode_header(conn.header_buf.data(),
                                        conn.header_buf.size());
          } catch (const NetError&) {
            stats().protocol_errors.add();
            close_conn(conn);
            return false;
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

  /// Hand the assembled frame to the pool. Counting it in flight and the
  /// pause decision share one critical section, taken before the task can
  /// run. Returns false when the connection closed (pool unavailable).
  bool dispatch(ReactorConn& conn) {
    stats().frames_in.add();
    stats().bytes_in.add(FrameHeader::kSize + conn.payload_got);
    std::vector<std::byte> payload = std::move(conn.payload);
    conn.payload.clear();
    conn.payload_got = 0;
    conn.have_header = false;
    conn.header_got = 0;
    const std::uint64_t seq = conn.next_dispatch_seq++;
    {
      common::MutexLock lock(conn.mu);
      ++conn.inflight;
      update_pause(conn);
      conn.reading = !conn.paused && !conn.draining;
    }
    if (!conn.reading) set_interest(conn, conn.polled_write);
    try {
      pool.post([shared = shared, c = conn.shared_from_this(), seq,
                 header = conn.header, pl = std::move(payload)]() mutable {
        serve_request(*shared, std::move(c), seq, header, std::move(pl));
      });
    } catch (...) {
      // Pool shutting down: the request dies with the connection.
      close_conn(conn);
      return false;
    }
    return true;
  }

  void apply_completions() {
    shared->completions.take(completed);
    for (ReactorCompletion& c : completed) {
      ReactorConn& conn = *c.conn;
      {
        common::MutexLock lock(conn.mu);
        if (conn.closed) continue;
        if (c.action) {
          --conn.inflight;
          conn.parked.emplace(c.seq, std::move(*c.action));
        }
      }
      settle(conn);
    }
    completed.clear();  // drop the connection references
  }

  /// Move ready replies out, write what the socket takes, and re-decide
  /// pause, resume and drain, all in the critical section a worker's
  /// direct-write check takes. On resume, held frames are dispatched
  /// before anything newer is read. Returns false when the connection
  /// closed.
  bool settle(ReactorConn& conn) {
    bool keep = false;
    bool can_read = false;
    bool want_write = false;
    {
      common::MutexLock lock(conn.mu);
      keep = flush_parked(conn) && write_out(conn);
      if (keep) {
        update_pause(conn);
        keep = !(conn.draining && !conn.work_pending());
        can_read = !conn.paused && !conn.draining;
        want_write = conn.pending_out() > 0;
      }
    }
    if (!keep) {
      close_conn(conn);
      return false;
    }
    if (can_read && !conn.reading) {  // resumed
      conn.reading = true;
      const std::vector<std::byte> held = std::move(conn.held);
      conn.held.clear();
      if (!feed(conn, held.data(), held.size())) return false;
    }
    set_interest(conn, want_write);
    return true;
  }

  /// Move in-order parked replies into the outbound buffer. Returns false
  /// on a chaos drop: the connection closes without answering, and later
  /// pipelined requests die with it, as in thread-per-connection mode.
  bool flush_parked(ReactorConn& conn) APAR_REQUIRES(conn.mu) {
    while (!conn.parked.empty() &&
           conn.parked.begin()->first == conn.next_flush_seq) {
      auto node = conn.parked.extract(conn.parked.begin());
      ++conn.next_flush_seq;
      ReplyAction& action = node.mapped();
      if (action.drop) return false;
      action.header.payload_len =
          static_cast<std::uint32_t>(action.payload.size());
      const auto head = encode_header(action.header);
      stats().frames_out.add();  // before its bytes can reach the peer
      conn.append_out(head.data(), head.size());
      conn.append_out(action.payload.data(), action.payload.size());
      if (obs::metrics_enabled())
        shared->queue_depth->record(static_cast<double>(conn.pending_out()));
    }
    return true;
  }

  /// Push pending outbound bytes until EAGAIN or empty. Returns false on a
  /// write error.
  bool write_out(ReactorConn& conn) APAR_REQUIRES(conn.mu) {
    while (conn.out_off < conn.outbuf.size()) {
      const ssize_t n =
          ::send(conn.socket.fd(), conn.outbuf.data() + conn.out_off,
                 conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        stats().bytes_out.add(static_cast<std::uint64_t>(n));
        conn.last_write_progress = Clock::now();
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
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
    return true;
  }

  /// Pause reads at either cap, resume below both.
  void update_pause(ReactorConn& conn) APAR_REQUIRES(conn.mu) {
    const bool over =
        conn.inflight + conn.parked.size() >= options.max_inflight ||
        conn.pending_out() >= options.max_outbound_bytes;
    if (over && !conn.paused) stats().backpressure_pauses.add();
    conn.paused = over;
  }

  /// Tell the poller only when the connection's interest changed.
  void set_interest(ReactorConn& conn, bool write) {
    if (conn.reading == conn.polled_read && write == conn.polled_write) return;
    poller->update(conn.socket.fd(), conn.reading, write);
    conn.polled_read = conn.reading;
    conn.polled_write = write;
  }

  void sweep_timers() {
    const auto now = Clock::now();
    if (now < next_sweep) return;
    next_sweep = now + kSweepInterval;
    // close_conn mutates conns; collect victims first.
    std::vector<ReactorConn*> idle_victims;
    std::vector<ReactorConn*> stall_victims;
    for (auto& [fd, owned] : conns) {
      ReactorConn& conn = *owned;
      common::MutexLock lock(conn.mu);
      if (conn.pending_out() > 0 &&
          now - conn.last_write_progress > options.write_stall_timeout)
        stall_victims.push_back(&conn);
      else if (options.idle_timeout.count() > 0 && !conn.work_pending() &&
               now - std::max(conn.last_read, conn.last_write_progress) >
                   options.idle_timeout)
        idle_victims.push_back(&conn);
    }
    for (ReactorConn* conn : stall_victims) {
      stats().slow_closed.add();
      APAR_DEBUG("net") << "reactor: evicting slow reader fd="
                        << conn->socket.fd();
      close_conn(*conn);
    }
    for (ReactorConn* conn : idle_victims) {
      stats().idle_closed.add();
      close_conn(*conn);
    }
  }

  /// Forget the connection and shut its socket down, so the peer sees the
  /// close at once. The descriptor itself closes with the last owner: a
  /// worker still holding the connection keeps its number from being
  /// reused under it. May destroy `conn`.
  void close_conn(ReactorConn& conn) {
    const int fd = conn.socket.fd();
    poller->remove(fd);
    {
      common::MutexLock lock(conn.mu);
      conn.closed = true;
    }
    ::shutdown(fd, SHUT_RDWR);
    conns.erase(fd);
    open_count.store(conns.size(), std::memory_order_relaxed);
  }

  void begin_drain() {
    poller->remove(listener_fd);
    std::vector<ReactorConn*> done;
    for (auto& [fd, owned] : conns) {
      ReactorConn& conn = *owned;
      bool idle = false;
      {
        common::MutexLock lock(conn.mu);
        conn.draining = true;
        idle = !conn.work_pending();
      }
      conn.reading = false;
      set_interest(conn, conn.polled_write);
      if (idle) done.push_back(&conn);
    }
    for (ReactorConn* conn : done) close_conn(*conn);
  }

  void close_all() {
    while (!conns.empty()) close_conn(*conns.begin()->second);
  }
};

// --- Reactor ----------------------------------------------------------------

Reactor::Reactor(Listener& listener, concurrency::ThreadPool& pool,
                 Handler handler, Options options, ServerStats& stats,
                 const std::string& label)
    : impl_(std::make_unique<Impl>(listener, pool, options)) {
  auto& reg = obs::MetricsRegistry::global();
  const obs::Labels labels{{"server", label}};
  impl_->shared = std::make_shared<ReactorShared>(
      std::move(handler), stats,
      reg.histogram("net.server.queue_depth", labels,
                    obs::Histogram::bytes_bounds()));
  impl_->open_export =
      reg.export_gauge("net.server.open_connections", labels,
                       [impl = impl_.get()] {
                         return static_cast<std::int64_t>(impl->open_count.load(
                             std::memory_order_relaxed));
                       });

  impl_->poller = make_poller(options.force_poll);
  impl_->listener_fd = listener.fd();
  impl_->poller->add(impl_->listener_fd, /*read=*/true, /*write=*/false);
  impl_->poller->add(impl_->shared->completions.wake_fd(), /*read=*/true,
                     /*write=*/false);
  impl_->loop = std::thread([this] { impl_->run(); });
}

Reactor::~Reactor() { stop(); }

void Reactor::stop() {
  if (impl_->draining.exchange(true, std::memory_order_acq_rel)) {
    if (impl_->loop.joinable()) impl_->loop.join();
    return;
  }
  // Wake the loop so it notices the drain promptly.
  impl_->shared->completions.wake();
  if (impl_->loop.joinable()) impl_->loop.join();
}

std::size_t Reactor::open_connections() const {
  return impl_->open_count.load(std::memory_order_relaxed);
}

}  // namespace apar::net
