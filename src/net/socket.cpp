#include "apar/net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "apar/net/error.hpp"

namespace apar::net {

namespace {

[[noreturn]] void throw_errno(NetError::Kind kind, const std::string& what) {
  throw NetError(kind, what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw_errno(NetError::Kind::kIo, "fcntl(O_NONBLOCK)");
}

/// Milliseconds until `deadline`, clamped to >= 0; throws kTimeout when
/// already past.
int remaining_ms(Deadline deadline, const char* doing) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  if (left.count() <= 0)
    throw NetError(NetError::Kind::kTimeout,
                   std::string("deadline expired while ") + doing);
  // poll() takes an int; a deadline years away must not overflow it.
  return static_cast<int>(std::min<long long>(left.count(), 1 << 30));
}

/// Wait until `fd` is ready for `events` or the deadline passes.
void wait_ready(int fd, short events, Deadline deadline, const char* doing) {
  for (;;) {
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, remaining_ms(deadline, doing));
    if (rc > 0) return;
    if (rc == 0)
      throw NetError(NetError::Kind::kTimeout,
                     std::string("deadline expired while ") + doing);
    if (errno == EINTR) continue;
    throw_errno(NetError::Kind::kIo, "poll");
  }
}

}  // namespace

Deadline deadline_after(std::chrono::milliseconds timeout) {
  return std::chrono::steady_clock::now() + timeout;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Socket::idle_and_healthy() const {
  if (fd_ < 0) return false;
  pollfd pfd{fd_, POLLIN, 0};
  const int rc = ::poll(&pfd, 1, 0);
  if (rc < 0) return false;
  // Readable while idle means either buffered stray bytes or (most
  // commonly) an EOF from a peer that went away; both disqualify reuse.
  return rc == 0;
}

Socket dial(const Endpoint& endpoint, Deadline deadline) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(endpoint.port);
  const int gai = ::getaddrinfo(endpoint.host.c_str(), port.c_str(), &hints,
                                &res);
  if (gai != 0)
    throw NetError(NetError::Kind::kConnect,
                   "cannot resolve " + endpoint.str() + ": " +
                       ::gai_strerror(gai));

  std::string last_error = "no addresses";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    Socket socket(fd);
    try {
      set_nonblocking(fd);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
        ::freeaddrinfo(res);
        return socket;
      }
      if (errno != EINPROGRESS) {
        last_error = std::strerror(errno);
        continue;
      }
      wait_ready(fd, POLLOUT, deadline, "connecting");
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
        last_error = std::strerror(err != 0 ? err : errno);
        continue;
      }
      ::freeaddrinfo(res);
      return socket;
    } catch (const NetError& e) {
      if (e.kind() == NetError::Kind::kTimeout) {
        ::freeaddrinfo(res);
        throw;
      }
      last_error = e.what();
    }
  }
  ::freeaddrinfo(res);
  throw NetError(NetError::Kind::kConnect,
                 "cannot connect to " + endpoint.str() + ": " + last_error);
}

void send_all(Socket& socket, const std::byte* data, std::size_t size,
              Deadline deadline) {
  send_all(socket, data, size, nullptr, 0, deadline);
}

void send_all(Socket& socket, const std::byte* head, std::size_t head_size,
              const std::byte* tail, std::size_t tail_size,
              Deadline deadline) {
  std::size_t sent = 0;
  const std::size_t total = head_size + tail_size;
  while (sent < total) {
    iovec iov[2];
    int count = 0;
    if (sent < head_size)
      iov[count++] = {const_cast<std::byte*>(head) + sent, head_size - sent};
    const std::size_t tail_sent = sent > head_size ? sent - head_size : 0;
    if (tail_size > tail_sent)
      iov[count++] = {const_cast<std::byte*>(tail) + tail_sent,
                      tail_size - tail_sent};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(count);
    const ssize_t n = ::sendmsg(socket.fd(), &msg, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      wait_ready(socket.fd(), POLLOUT, deadline, "sending");
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET))
      throw NetError(NetError::Kind::kClosed,
                     "peer closed connection while sending");
    throw_errno(NetError::Kind::kIo, "send");
  }
}

std::size_t recv_some(Socket& socket, std::byte* out, std::size_t size,
                      Deadline deadline) {
  for (;;) {
    wait_ready(socket.fd(), POLLIN, deadline, "receiving");
    const ssize_t n = ::recv(socket.fd(), out, size, 0);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n == 0)
      throw NetError(NetError::Kind::kClosed, "peer closed connection");
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
    if (errno == ECONNRESET)
      throw NetError(NetError::Kind::kClosed,
                     "connection reset while receiving");
    throw_errno(NetError::Kind::kIo, "recv");
  }
}

void recv_exact(Socket& socket, std::byte* out, std::size_t size,
                Deadline deadline) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(socket.fd(), out + got, size - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0)
      throw NetError(NetError::Kind::kClosed,
                     "peer closed connection after " + std::to_string(got) +
                         " of " + std::to_string(size) + " bytes");
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      wait_ready(socket.fd(), POLLIN, deadline, "receiving");
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == ECONNRESET)
      throw NetError(NetError::Kind::kClosed,
                     "connection reset while receiving");
    throw_errno(NetError::Kind::kIo, "recv");
  }
}

Listener::Listener(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno(NetError::Kind::kIo, "socket");
  fd_ = Socket(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
  addr.sin_port = ::htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0)
    throw_errno(NetError::Kind::kIo, "bind 127.0.0.1:" + std::to_string(port));
  if (::listen(fd, 64) < 0) throw_errno(NetError::Kind::kIo, "listen");
  set_nonblocking(fd);

  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    throw_errno(NetError::Kind::kIo, "getsockname");
  port_ = ::ntohs(addr.sin_port);
}

Socket Listener::accept(std::chrono::milliseconds timeout) {
  pollfd pfd{fd_.fd(), POLLIN, 0};
  const int rc = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
  if (rc <= 0) return Socket{};
  const int client = ::accept(fd_.fd(), nullptr, nullptr);
  if (client < 0) return Socket{};
  Socket socket(client);
  set_nonblocking(client);
  const int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return socket;
}

bool loopback_available() {
  static const bool available = [] {
    try {
      Listener listener(0);
      Socket client = dial({"127.0.0.1", listener.port()},
                           deadline_after(std::chrono::milliseconds(500)));
      return client.valid();
    } catch (...) {
      return false;
    }
  }();
  return available;
}

}  // namespace apar::net
