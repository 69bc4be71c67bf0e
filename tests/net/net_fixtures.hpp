#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <memory>
#include <string_view>
#include <system_error>

#include "../cluster/fixtures.hpp"
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

/// One loopback server hosting Counter plus a client middleware wired to
/// it — the standard two-ended rig for transport tests.
struct TcpRig {
  explicit TcpRig(serial::Format format = serial::Format::kCompact,
                  net::TcpServer::Options server_options = {}) {
    register_counter(registry);
    server = std::make_unique<net::TcpServer>(registry, server_options);
    net::TcpMiddleware::Options mw;
    mw.endpoints = {{"127.0.0.1", server->port()}};
    mw.format = format;
    middleware = std::make_unique<net::TcpMiddleware>(mw);
  }

  cluster::rpc::Registry registry;
  std::unique_ptr<net::TcpServer> server;
  std::unique_ptr<net::TcpMiddleware> middleware;
};

}  // namespace apar::test
