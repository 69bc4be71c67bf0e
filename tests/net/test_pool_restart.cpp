// ConnectionPool stale-era eviction: a server drained or restarted
// mid-burst leaves the pool full of half-open connections that still pass
// the idle_and_healthy() poll (nothing readable yet). The first failed
// exchange on a REUSED connection must evict the whole idle bucket for
// that endpoint so the next call dials the new server era immediately,
// instead of burning one io_deadline per stale socket.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "apar/net/error.hpp"
#include "apar/serial/archive.hpp"
#include "net_fixtures.hpp"

namespace ac = apar::cluster;
namespace as = apar::serial;
namespace net = apar::net;

TEST(ConnectionPoolRestart, EvictsStaleSiblingsAfterServerRestart) {
  APAR_REQUIRE_LOOPBACK();
  // A fake "old era" server: accepts connections and holds the accepted
  // ends open without ever replying, exactly like a drained process whose
  // sockets linger, or a restart the client has not noticed yet.
  auto fake = std::make_unique<net::Listener>(0);
  const std::uint16_t port = fake->port();
  const net::Endpoint ep{"127.0.0.1", port};

  std::vector<net::Socket> held;   // server ends, kept open for the test
  std::vector<net::Socket> stale;  // client ends, to be pooled
  for (int i = 0; i < 3; ++i) {
    stale.push_back(
        net::dial(ep, net::deadline_after(std::chrono::milliseconds(1000))));
    net::Socket server_end = fake->accept(std::chrono::milliseconds(1000));
    ASSERT_TRUE(server_end.valid());
    held.push_back(std::move(server_end));
  }

  net::TcpMiddleware::Options mopts;
  mopts.endpoints = {ep};
  mopts.io_deadline = std::chrono::milliseconds(300);
  net::TcpMiddleware mw(mopts);
  for (auto& s : stale) mw.pool().give_back(ep, std::move(s));
  ASSERT_EQ(mw.pool().idle_count(ep), 3u);

  // The restart: the old listener goes away and a real server comes up
  // on the SAME port. The held old-era sockets stay open,
  // so every pooled connection still looks healthy to the poll validator.
  fake->close();
  ac::rpc::Registry registry;
  apar::test::register_counter(registry);
  net::TcpServer::Options sopts;
  sopts.port = port;
  net::TcpServer server(registry, sopts);

  // First call rides a stale connection: the dead era never answers and
  // the io deadline expires...
  EXPECT_THROW(mw.create(0, "Counter", as::encode(mw.wire_format(), 0LL)),
               net::NetError);
  // ...which must evict the remaining same-era idle siblings.
  EXPECT_EQ(mw.pool().idle_count(ep), 0u);
  EXPECT_EQ(mw.pool().stats().evictions, 2u);

  // The very next call dials the new era and succeeds; without the
  // eviction it would pop another healthy-looking stale socket and time
  // out again, once per sibling.
  const auto handle =
      mw.create(0, "Counter", as::encode(mw.wire_format(), 5LL));
  const auto [value] = as::decode<long long>(
      mw.invoke(handle, "get", as::encode(mw.wire_format())),
      mw.wire_format());
  EXPECT_EQ(value, 5);
  EXPECT_EQ(mw.pool().stats().dials, 1u);  // exactly one fresh dial
}
