#pragma once

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "../cluster/fixtures.hpp"
#include "apar/net/reactor.hpp"
#include "apar/net/tcp_middleware.hpp"
#include "apar/net/tcp_server.hpp"

// Sandboxes without network namespaces cannot open loopback sockets; every
// socket-touching test skips there instead of failing.
#define APAR_REQUIRE_LOOPBACK()                                  \
  do {                                                           \
    if (!apar::net::loopback_available())                        \
      GTEST_SKIP() << "loopback TCP unavailable in this sandbox"; \
  } while (0)

namespace apar::test {

/// Descriptors this process holds open right now; with a `kind` such as
/// "socket:", only those whose /proc link names that kind.
inline std::size_t open_fd_count(std::string_view kind = {}) {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    const auto target = std::filesystem::read_symlink(entry.path(), ec);
    if (!ec && target.native().rfind(kind, 0) == 0) ++n;
  }
  return n;
}

/// A server-side class whose calls take as long as the caller asks: tests
/// stall a handler, and so its reply, with nap(ms).
class Sleeper {
 public:
  long long nap(long long ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return ms;
  }
};

inline void register_sleeper(cluster::rpc::Registry& registry) {
  registry.bind<Sleeper>("Sleeper").ctor<>().method<&Sleeper::nap>("nap");
}

/// A front that loses replies, standing between clients and a real server:
/// its own listener and net::Reactor. For the first `drops` request frames
/// its handler throws, so the reactor closes that connection without
/// replying and the client sees its reply lost. Every later frame goes on
/// unchanged to the server over one blocking connection, and the server's
/// reply comes back as is. One reactor thread serves every connection, so
/// the upstream connection carries one exchange at a time.
class DroppingFront {
 public:
  DroppingFront(std::uint16_t server_port, std::uint64_t drops)
      : upstream_(net::dial({"127.0.0.1", server_port},
                            net::deadline_after(std::chrono::seconds(2)))),
        drops_(drops),
        reactor_(
            listener_, 1,
            [this](const net::FrameHeader& header,
                   std::vector<std::byte> payload) {
              return forward(header, std::move(payload));
            },
            {}, stats_, "front:" + std::to_string(listener_.port())) {}

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  /// Request frames answered by closing the connection.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_.load(); }

 private:
  net::Frame forward(const net::FrameHeader& header,
                     std::vector<std::byte> payload) {
    if (dropped_.load() < drops_) {
      dropped_.fetch_add(1);
      throw std::runtime_error("front: reply dropped");
    }
    const auto deadline = net::deadline_after(std::chrono::seconds(5));
    const auto head = net::encode_header(header);
    net::send_all(upstream_, head.data(), head.size(), payload.data(),
                  payload.size(), deadline);
    std::array<std::byte, net::FrameHeader::kSize> reply_head;
    net::recv_exact(upstream_, reply_head.data(), reply_head.size(), deadline);
    net::Frame reply{net::decode_header(reply_head.data(), reply_head.size()),
                     {}};
    reply.payload.resize(reply.header.payload_len);
    if (!reply.payload.empty())
      net::recv_exact(upstream_, reply.payload.data(), reply.payload.size(),
                      deadline);
    return reply;
  }

  net::Listener listener_{0};
  net::ServerStats stats_;
  net::Socket upstream_;
  const std::uint64_t drops_;
  std::atomic<std::uint64_t> dropped_{0};
  // Last member: its thread runs forward(), which uses everything above.
  net::Reactor reactor_;
};

/// One loopback server hosting Counter and Sleeper plus a client
/// middleware wired to it — the standard two-ended rig for transport
/// tests. With `drop_frames`, the middleware talks to the server through a
/// DroppingFront that loses the first `drop_frames` replies.
struct TcpRig {
  explicit TcpRig(serial::Format format = serial::Format::kCompact,
                  net::TcpServer::Options server_options = {},
                  std::uint64_t drop_frames = 0) {
    register_counter(registry);
    register_sleeper(registry);
    server = std::make_unique<net::TcpServer>(registry, server_options);
    std::uint16_t port = server->port();
    if (drop_frames > 0) {
      front = std::make_unique<DroppingFront>(port, drop_frames);
      port = front->port();
    }
    net::TcpMiddleware::Options mw;
    mw.endpoints = {{"127.0.0.1", port}};
    mw.format = format;
    middleware = std::make_unique<net::TcpMiddleware>(mw);
  }

  cluster::rpc::Registry registry;
  std::unique_ptr<net::TcpServer> server;
  std::unique_ptr<DroppingFront> front;  ///< null without drop_frames
  std::unique_ptr<net::TcpMiddleware> middleware;
};

}  // namespace apar::test
