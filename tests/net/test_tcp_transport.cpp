// End-to-end transport behaviour over real loopback sockets: round trips
// in both wire formats, name service, error propagation, deadlines,
// retry-after-drop and its budget, the frame limit on requests, the
// object-table cap, and server kill/restart.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "apar/cluster/rpc.hpp"
#include "apar/net/error.hpp"
#include "apar/obs/metrics.hpp"
#include "net_fixtures.hpp"

namespace ac = apar::cluster;
namespace as = apar::serial;
namespace net = apar::net;
namespace obs = apar::obs;
using apar::test::TcpRig;

class TcpRoundTrip : public ::testing::TestWithParam<as::Format> {};

INSTANTIATE_TEST_SUITE_P(Formats, TcpRoundTrip,
                         ::testing::Values(as::Format::kCompact,
                                           as::Format::kVerbose),
                         [](const auto& info) {
                           return info.param == as::Format::kCompact
                                      ? "compact"
                                      : "verbose";
                         });

TEST_P(TcpRoundTrip, CreateInvokeAndCopyRestore) {
  APAR_REQUIRE_LOOPBACK();
  TcpRig rig(GetParam());
  auto& mw = *rig.middleware;

  const auto handle = mw.create(0, "Counter", as::encode(GetParam(), 10LL));
  EXPECT_EQ(handle.node, 0u);
  mw.invoke(handle, "add", as::encode(GetParam(), 5LL));
  const auto reply = mw.invoke(handle, "get", as::encode(GetParam()));
  const auto [value] = as::decode<long long>(reply, GetParam());
  EXPECT_EQ(value, 15);

  // Copy-restore: the server mutates the pack and echoes it back.
  const std::vector<long long> pack{5, 6, 7};
  const auto absorbed =
      mw.invoke(handle, "absorb", as::encode(GetParam(), pack));
  const auto [restored] =
      as::decode<std::vector<long long>>(absorbed, GetParam());
  EXPECT_EQ(restored, (std::vector<long long>{0, 0, 0}));

  EXPECT_EQ(rig.server->dispatcher().object_count(), 1u);
  EXPECT_EQ(mw.stats().sync_calls.value(), 3u);
  EXPECT_GT(mw.stats().bytes_sent.value(), 0u);
  EXPECT_GT(mw.stats().bytes_received.value(), 0u);
}

TEST(TcpTransport, OneWayIsAckedAndExecuted) {
  APAR_REQUIRE_LOOPBACK();
  TcpRig rig;
  auto& mw = *rig.middleware;
  const auto handle =
      mw.create(0, "Counter", as::encode(mw.wire_format(), 0LL));
  mw.invoke_one_way(handle, "add", as::encode(mw.wire_format(), 42LL));
  // The ack already ordered the side effect before this sync call.
  const auto [value] = as::decode<long long>(
      mw.invoke(handle, "get", as::encode(mw.wire_format())),
      mw.wire_format());
  EXPECT_EQ(value, 42);
  EXPECT_EQ(mw.stats().one_way_calls.value(), 1u);
}

TEST(TcpTransport, BindAndLookupThroughRegistryServer) {
  APAR_REQUIRE_LOOPBACK();
  TcpRig rig;
  auto& mw = *rig.middleware;
  const auto handle =
      mw.create(0, "Counter", as::encode(mw.wire_format(), 1LL));
  mw.bind_name("PS1", handle);
  const auto resolved = mw.lookup("PS1");
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(*resolved, handle);
  EXPECT_FALSE(mw.lookup("unbound").has_value());
  EXPECT_EQ(mw.stats().lookups.value(), 2u);
}

TEST(TcpTransport, ServerSideFailureSurfacesAsRpcError) {
  APAR_REQUIRE_LOOPBACK();
  TcpRig rig;
  auto& mw = *rig.middleware;
  const auto handle =
      mw.create(0, "Counter", as::encode(mw.wire_format(), 0LL));
  try {
    mw.invoke(handle, "no_such_method", as::encode(mw.wire_format()));
    FAIL() << "expected RpcError";
  } catch (const ac::rpc::RpcError& e) {
    EXPECT_NE(std::string(e.what()).find("no_such_method"),
              std::string::npos);
  }
  // Unknown object ids carry the server's dispatcher label.
  try {
    mw.invoke({0, 999}, "get", as::encode(mw.wire_format()));
    FAIL() << "expected RpcError";
  } catch (const ac::rpc::RpcError& e) {
    EXPECT_NE(std::string(e.what()).find("no object 999"), std::string::npos);
  }
  // The connection survives application errors: no reconnect happened.
  EXPECT_EQ(mw.net_counters().connects, 1u);
  EXPECT_EQ(mw.net_counters().reconnects, 0u);
}

TEST(TcpTransport, ConnectionPoolReusesOneConnection) {
  APAR_REQUIRE_LOOPBACK();
  TcpRig rig;
  auto& mw = *rig.middleware;
  const auto handle =
      mw.create(0, "Counter", as::encode(mw.wire_format(), 0LL));
  for (int i = 0; i < 10; ++i)
    mw.invoke(handle, "add", as::encode(mw.wire_format(), 1LL));
  EXPECT_EQ(mw.net_counters().connects, 1u);
  EXPECT_EQ(mw.pool().stats().reuses, 10u);
}

TEST(TcpTransport, WireCountersAreExportedPerEndpoint) {
  APAR_REQUIRE_LOOPBACK();
  TcpRig a;
  TcpRig b;
  net::TcpMiddleware::Options mopts;
  mopts.endpoints = {{"127.0.0.1", a.server->port()},
                     {"127.0.0.1", b.server->port()}};
  net::TcpMiddleware mw(mopts);
  const auto& eps = mw.endpoints();
  auto& registry = obs::MetricsRegistry::global();
  const auto series = [&](const char* field, const net::Endpoint& ep) {
    return static_cast<std::uint64_t>(registry.value(
        std::string("net.") + field, {{"endpoint", ep.str()}}));
  };
  // Earlier servers may have had the same port; count from here.
  const auto frames_a0 = series("frames_sent", eps[0]);
  const auto frames_b0 = series("frames_sent", eps[1]);
  const auto connects_b0 = series("connects", eps[1]);

  const auto on_a = mw.create(0, "Counter", as::encode(mw.wire_format(), 0LL));
  const auto on_b = mw.create(1, "Counter", as::encode(mw.wire_format(), 0LL));
  for (int i = 0; i < 3; ++i)
    mw.invoke(on_b, "add", as::encode(mw.wire_format(), 1LL));
  mw.invoke(on_a, "get", as::encode(mw.wire_format()));

  // Each server's series shows its own traffic; net_counters() sums them.
  EXPECT_EQ(series("frames_sent", eps[0]) - frames_a0, 2u);
  EXPECT_EQ(series("frames_sent", eps[1]) - frames_b0, 4u);
  EXPECT_EQ(series("connects", eps[1]) - connects_b0, 1u);
  const auto total = mw.net_counters();
  EXPECT_EQ(total.frames_sent, 6u);
  EXPECT_EQ(total.frames_received, 6u);
  EXPECT_EQ(total.connects, 2u);
  EXPECT_EQ(total.reconnects, 0u);
}

TEST(TcpTransport, StalledServerHitsClientDeadlineNotAHang) {
  APAR_REQUIRE_LOOPBACK();
  TcpRig rig;
  const auto sleeper =
      rig.middleware->create(0, "Sleeper", as::encode(as::Format::kCompact));

  net::TcpMiddleware::Options mopts;
  mopts.endpoints = {{"127.0.0.1", rig.server->port()}};
  mopts.io_deadline = std::chrono::milliseconds(150);
  net::TcpMiddleware fast_deadline(mopts);

  const auto started = std::chrono::steady_clock::now();
  try {
    fast_deadline.invoke(sleeper, "nap", as::encode(mopts.format, 2000LL));
    FAIL() << "expected NetError{kTimeout}";
  } catch (const net::NetError& e) {
    EXPECT_EQ(e.kind(), net::NetError::Kind::kTimeout);
  }
  const auto elapsed = std::chrono::steady_clock::now() - started;
  // The deadline bounded the wait: well under the server's 2s stall.
  EXPECT_LT(elapsed, std::chrono::milliseconds(1500));
}

TEST(TcpTransport, BytesAfterTheReplyFrameAreAProtocolError) {
  APAR_REQUIRE_LOOPBACK();
  // A hand-written server that answers one request with a valid reply
  // frame plus one stray byte, in one write.
  net::Listener listener(0);
  std::thread server([&listener] {
    try {
      net::Socket peer = listener.accept(std::chrono::milliseconds(2000));
      if (!peer.valid()) return;
      const auto deadline =
          net::deadline_after(std::chrono::milliseconds(2000));
      std::array<std::byte, net::FrameHeader::kSize> head;
      net::recv_exact(peer, head.data(), head.size(), deadline);
      const auto request = net::decode_header(head.data(), head.size());
      std::vector<std::byte> body(request.payload_len);
      net::recv_exact(peer, body.data(), body.size(), deadline);
      net::FrameHeader reply;
      reply.op = net::FrameHeader::Op::kReplyOk;
      reply.request_id = request.request_id;
      const auto reply_head = net::encode_header(reply);
      std::vector<std::byte> out(reply_head.begin(), reply_head.end());
      out.push_back(std::byte{0x2a});
      net::send_all(peer, out.data(), out.size(), deadline);
      // Hold the connection until the client drops it.
      net::recv_exact(peer, head.data(), 1, deadline);
    } catch (const net::NetError&) {
    }
  });

  net::TcpMiddleware::Options mopts;
  mopts.endpoints = {{"127.0.0.1", listener.port()}};
  net::TcpMiddleware mw(mopts);
  try {
    mw.bind_name("stray", ac::RemoteHandle{0, 1});
    ADD_FAILURE() << "expected NetError{kProtocol}";
  } catch (const net::NetError& e) {
    EXPECT_EQ(e.kind(), net::NetError::Kind::kProtocol) << e.what();
  }
  server.join();
}

TEST(TcpTransport, LookupRetriesThroughDroppedReplies) {
  APAR_REQUIRE_LOOPBACK();
  // The front eats the first two requests.
  TcpRig rig(as::Format::kCompact, {}, /*drop_frames=*/2);
  auto& mw = *rig.middleware;

  // Looking up an unbound name still proves the retry loop: the call
  // must SUCCEED (returning nullopt) despite two lost replies.
  EXPECT_FALSE(mw.lookup("PS1").has_value());
  EXPECT_EQ(mw.net_counters().retries, 2u);
  // Each dropped reply killed a connection, so two reconnect dials.
  EXPECT_EQ(mw.net_counters().connects, 3u);
  EXPECT_EQ(mw.net_counters().reconnects, 2u);
  EXPECT_EQ(rig.front->dropped(), 2u);
}

TEST(TcpTransport, LookupGivesUpWhenItsRetryBudgetIsSpent) {
  APAR_REQUIRE_LOOPBACK();
  // TcpMiddleware's budget: 3 retries, after 10, 20 and 40 ms.
  constexpr std::uint64_t kMaxLookupRetries = 3;
  TcpRig rig(as::Format::kCompact, {}, kMaxLookupRetries + 1);
  auto& mw = *rig.middleware;

  const auto started = std::chrono::steady_clock::now();
  try {
    (void)mw.lookup("PS1");
    FAIL() << "expected NetError{kClosed}";
  } catch (const net::NetError& e) {
    EXPECT_EQ(e.kind(), net::NetError::Kind::kClosed) << e.what();
  }
  EXPECT_GE(std::chrono::steady_clock::now() - started,
            std::chrono::milliseconds(10 + 20 + 40));
  EXPECT_EQ(mw.net_counters().retries, kMaxLookupRetries);
  EXPECT_EQ(rig.front->dropped(), kMaxLookupRetries + 1);
}

TEST(TcpTransport, ConcurrentFirstDialsAreNotReconnects) {
  APAR_REQUIRE_LOOPBACK();
  TcpRig rig;
  auto& mw = *rig.middleware;
  // One sleeper per thread, made on the server: the middleware has dialed
  // nothing yet, and no nap waits for another's monitor.
  const auto no_args = as::encode(as::Format::kCompact);
  std::vector<ac::RemoteHandle> sleepers;
  for (int t = 0; t < 4; ++t) {
    as::Reader args(no_args.data(), no_args.size(), as::Format::kCompact);
    sleepers.push_back({0, rig.server->dispatcher().create("Sleeper", args)});
  }

  // Four threads make their first calls at once, and each holds its
  // connection for 100 ms, so none can reuse another's connection: four
  // dials, and nothing was lost to replace.
  std::vector<std::thread> threads;
  for (const ac::RemoteHandle& sleeper : sleepers)
    threads.emplace_back([&mw, sleeper] {
      mw.invoke(sleeper, "nap", as::encode(mw.wire_format(), 100LL));
      EXPECT_FALSE(mw.lookup("PS1").has_value());
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(mw.net_counters().connects, 4u);
  EXPECT_EQ(mw.net_counters().reconnects, 0u);
}

TEST(TcpTransport, NonIdempotentCallsDoNotRetry) {
  APAR_REQUIRE_LOOPBACK();
  TcpRig rig(as::Format::kCompact, {}, /*drop_frames=*/1);
  auto& mw = *rig.middleware;
  // The dropped create surfaces as NetError{kClosed}: executing it twice
  // behind the caller's back could double-place an object.
  try {
    mw.create(0, "Counter", as::encode(mw.wire_format(), 0LL));
    FAIL() << "expected NetError";
  } catch (const net::NetError& e) {
    EXPECT_EQ(e.kind(), net::NetError::Kind::kClosed);
  }
  EXPECT_EQ(mw.net_counters().retries, 0u);
}

TEST(TcpTransport, OversizeRequestFailsBeforeAnyByteIsSent) {
  APAR_REQUIRE_LOOPBACK();
  TcpRig rig;
  auto& mw = *rig.middleware;
  const auto handle =
      mw.create(0, "Counter", as::encode(mw.wire_format(), 0LL));
  const auto sent = mw.net_counters().wire_bytes_sent;

  // Arguments alone as large as a frame may carry: with the envelope the
  // request is over the limit, which the server would reject unread.
  try {
    mw.invoke(handle, "add",
              std::vector<std::byte>(net::FrameHeader::kMaxPayload));
    FAIL() << "expected NetError{kProtocol}";
  } catch (const net::NetError& e) {
    EXPECT_EQ(e.kind(), net::NetError::Kind::kProtocol) << e.what();
    EXPECT_NE(std::string(e.what()).find(
                  std::to_string(net::FrameHeader::kMaxPayload)),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(mw.net_counters().wire_bytes_sent, sent);

  // Nothing was sent, so the connection is still clean and is reused.
  mw.invoke(handle, "add", as::encode(mw.wire_format(), 1LL));
  const auto [value] = as::decode<long long>(
      mw.invoke(handle, "get", as::encode(mw.wire_format())),
      mw.wire_format());
  EXPECT_EQ(value, 1);
  EXPECT_EQ(mw.net_counters().connects, 1u);
  EXPECT_EQ(mw.net_counters().reconnects, 0u);
  EXPECT_EQ(rig.server->stats().protocol_errors, 0u);
}

TEST(TcpTransport, CreatePastTheObjectCapIsRefusedAndTheConnectionServes) {
  APAR_REQUIRE_LOOPBACK();
  TcpRig rig;
  auto& mw = *rig.middleware;
  const auto handle =
      mw.create(0, "Counter", as::encode(mw.wire_format(), 5LL));

  // Fill the table to the cap in-process: a wire round trip per object
  // would take seconds.
  auto& dispatcher = rig.server->dispatcher();
  const auto args = as::encode(as::Format::kCompact, 0LL);
  while (dispatcher.object_count() < net::TcpServer::kMaxObjects) {
    as::Reader reader(args.data(), args.size(), as::Format::kCompact);
    dispatcher.create("Counter", reader);
  }

  try {
    mw.create(0, "Counter", as::encode(mw.wire_format(), 0LL));
    FAIL() << "expected RpcError";
  } catch (const ac::rpc::RpcError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  std::to_string(net::TcpServer::kMaxObjects)),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(dispatcher.object_count(), net::TcpServer::kMaxObjects);
  EXPECT_EQ(rig.server->stats().dispatch_errors, 1u);

  // The refusal left the connection in step: an existing object is still
  // served on it.
  mw.invoke(handle, "add", as::encode(mw.wire_format(), 1LL));
  const auto [value] = as::decode<long long>(
      mw.invoke(handle, "get", as::encode(mw.wire_format())),
      mw.wire_format());
  EXPECT_EQ(value, 6);
  EXPECT_EQ(mw.net_counters().connects, 1u);
  EXPECT_EQ(mw.net_counters().reconnects, 0u);
}

TEST(TcpTransport, KilledServerSurfacesAsNetErrorWithinDeadline) {
  APAR_REQUIRE_LOOPBACK();
  TcpRig rig;
  auto& mw = *rig.middleware;
  const auto handle =
      mw.create(0, "Counter", as::encode(mw.wire_format(), 3LL));
  rig.server->stop();

  const auto started = std::chrono::steady_clock::now();
  try {
    mw.invoke(handle, "get", as::encode(mw.wire_format()));
    FAIL() << "expected NetError";
  } catch (const net::NetError& e) {
    // kClosed when the pooled connection's death is seen mid-exchange,
    // kConnect when the pool discarded it and the redial was refused.
    EXPECT_NE(e.kind(), net::NetError::Kind::kProtocol);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(3));
}

TEST(TcpTransport, ReconnectsToRestartedServer) {
  APAR_REQUIRE_LOOPBACK();
  apar::cluster::rpc::Registry registry;
  apar::test::register_counter(registry);
  auto server = std::make_unique<net::TcpServer>(registry);
  const std::uint16_t port = server->port();

  net::TcpMiddleware::Options mopts;
  mopts.endpoints = {{"127.0.0.1", port}};
  net::TcpMiddleware mw(mopts);
  EXPECT_FALSE(mw.lookup("PS1").has_value());

  // Kill and restart on the same port: the pooled connection is now
  // stale. The idempotent lookup reconnects and succeeds by itself.
  server.reset();
  net::TcpServer::Options sopts;
  sopts.port = port;
  server = std::make_unique<net::TcpServer>(registry, sopts);
  server->name_server().bind("PS1", {0, 11});

  const auto resolved = mw.lookup("PS1");
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(resolved->object, 11u);
  EXPECT_GE(mw.net_counters().reconnects, 1u);
}
