// The server (src/net/reactor): protocol equivalence with golden replies
// from the retired thread-per-connection server, incremental decode (1-byte
// trickle), pipelined ordering, backpressure, slow-reader eviction, stalled
// senders, connection limits, idle timeouts, graceful drain, fault
// composition, the frame limit on replies, and the leader/followers
// contract: a blocked handler holds
// up only its own connection, one connection's requests are served one at
// a time, a sweep never closes a connection whose request is being served,
// and a thread keeping the connection it just served yields to the others.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apar/cluster/fault_injection.hpp"
#include "apar/cluster/rpc.hpp"
#include "apar/net/error.hpp"
#include "apar/net/reactor.hpp"
#include "apar/obs/metrics.hpp"
#include "apar/serial/archive.hpp"
#include "net_fixtures.hpp"

namespace ac = apar::cluster;
namespace as = apar::serial;
namespace net = apar::net;
using apar::test::Counter;
using apar::test::TcpRig;

namespace {

// Server-side classes for reactor behaviours the fixtures' Counter and
// Sleeper cannot exercise: overlapping handlers and big replies.

/// Records how many of its calls run at once and the order they finish.
struct OverlapProbe {
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::mutex mu;
  std::vector<long long> finished;
};

OverlapProbe& overlap_probe() {
  static OverlapProbe probe;
  return probe;
}

class Serial {
 public:
  Serial() = default;
  long long step(long long id, long long ms) {
    OverlapProbe& p = overlap_probe();
    const int now = p.running.fetch_add(1) + 1;
    int peak = p.peak.load();
    while (now > peak && !p.peak.compare_exchange_weak(peak, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    {
      std::lock_guard lock(p.mu);
      p.finished.push_back(id);
    }
    p.running.fetch_sub(1);
    return id;
  }
};

class Blob {
 public:
  Blob() = default;
  [[nodiscard]] std::string make(long long n) const {
    return std::string(static_cast<std::size_t>(n), 'x');
  }
  [[nodiscard]] std::string fill(long long n, long long c) const {
    return std::string(static_cast<std::size_t>(n), static_cast<char>(c));
  }
};

/// Rig with the reactor-specific classes registered alongside Counter.
struct ReactorRig {
  explicit ReactorRig(net::TcpServer::Options opts = {}) {
    apar::test::register_counter(registry);
    apar::test::register_sleeper(registry);
    registry.bind<Serial>("Serial").ctor<>().method<&Serial::step>("step");
    registry.bind<Blob>("Blob")
        .ctor<>()
        .method<&Blob::make>("make")
        .method<&Blob::fill>("fill");
    server = std::make_unique<net::TcpServer>(registry, opts);
    net::TcpMiddleware::Options mw;
    mw.endpoints = {{"127.0.0.1", server->port()}};
    middleware = std::make_unique<net::TcpMiddleware>(mw);
  }

  [[nodiscard]] net::Endpoint endpoint() const {
    return {"127.0.0.1", server->port()};
  }

  ac::rpc::Registry registry;
  std::unique_ptr<net::TcpServer> server;
  std::unique_ptr<net::TcpMiddleware> middleware;
};

// --- raw-frame helpers ------------------------------------------------------

std::vector<std::byte> encode_frame(net::FrameHeader header,
                                    const std::vector<std::byte>& payload) {
  header.payload_len = static_cast<std::uint32_t>(payload.size());
  const auto bytes = net::encode_header(header);
  std::vector<std::byte> out(bytes.begin(), bytes.end());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<std::byte> telemetry_frame(std::uint64_t request_id) {
  net::FrameHeader header;
  header.op = net::FrameHeader::Op::kTelemetry;
  header.request_id = request_id;
  return encode_frame(header, {std::byte{0}});
}

std::vector<std::byte> call_frame(std::uint64_t request_id, std::uint64_t oid,
                                  const std::string& method,
                                  const std::vector<std::byte>& args) {
  net::FrameHeader header;
  header.op = net::FrameHeader::Op::kCall;
  header.request_id = request_id;
  std::vector<std::byte> payload;
  net::put_u64(payload, oid);
  net::put_string(payload, method);
  payload.insert(payload.end(), args.begin(), args.end());
  return encode_frame(header, payload);
}

struct RawReply {
  net::FrameHeader header;
  std::vector<std::byte> payload;
};

RawReply recv_reply(net::Socket& socket, net::Deadline deadline) {
  std::array<std::byte, net::FrameHeader::kSize> bytes;
  net::recv_exact(socket, bytes.data(), bytes.size(), deadline);
  RawReply reply;
  reply.header = net::decode_header(bytes.data(), bytes.size());
  reply.payload.resize(reply.header.payload_len);
  if (reply.header.payload_len > 0)
    net::recv_exact(socket, reply.payload.data(), reply.payload.size(),
                    deadline);
  return reply;
}

/// Client socket with a tiny receive buffer (set before connect so the
/// advertised window stays small): lets tests stall the server's writes
/// with modest payloads.
net::Socket dial_small_rcvbuf(const net::Endpoint& endpoint, int rcvbuf) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return net::Socket{};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
  addr.sin_port = ::htons(endpoint.port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return net::Socket{};
  }
  return net::Socket(fd);
}

}  // namespace

// --- protocol equivalence ---------------------------------------------------

TEST(ReactorBackends, RoundTripCreateInvokeLookupTelemetry) {
  APAR_REQUIRE_LOOPBACK();
  ReactorRig rig;
  auto& mw = *rig.middleware;

  const auto handle = mw.create(0, "Counter", as::encode(mw.wire_format(), 3LL));
  mw.invoke(handle, "add", as::encode(mw.wire_format(), 4LL));
  const auto [value] = as::decode<long long>(
      mw.invoke(handle, "get", as::encode(mw.wire_format())),
      mw.wire_format());
  EXPECT_EQ(value, 7);

  mw.bind_name("counter", handle);
  const auto resolved = mw.lookup("counter");
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(*resolved, handle);

  const std::string telemetry = mw.telemetry(0);
  EXPECT_NE(telemetry.find("\"server\""), std::string::npos);

  const auto stats = rig.server->stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.frames_in, 6u);
  EXPECT_EQ(stats.frames_out, 6u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// --- parity with the retired server ------------------------------------------

TEST(Reactor, ServesIdenticalBytesToThreadPerConnection) {
  APAR_REQUIRE_LOOPBACK();
  // What the thread-per-connection server replied to the same calls, in
  // the compact format, before it was retired.
  const std::vector<std::string> golden{
      std::string("\x2a\0\0\0\0\0\0\0", 8),      // get: 42
      "\x07reactor\x0dhello reactor",          // greet: argument, result
      "\x03" + std::string(24, '\0'),          // absorb: the zeroed pack
      "unknown method 'no_such_method' on class 'Counter'"};

  net::TcpServer::Options opts;
  opts.label = "parity";
  apar::test::TcpRig rig(as::Format::kCompact, opts);
  auto& mw = *rig.middleware;
  auto text = [](const std::vector<std::byte>& bytes) {
    return std::string(reinterpret_cast<const char*>(bytes.data()),
                       bytes.size());
  };
  std::vector<std::string> replies;
  const auto handle =
      mw.create(0, "Counter", as::encode(mw.wire_format(), 10LL));
  mw.invoke(handle, "add", as::encode(mw.wire_format(), 32LL));
  replies.push_back(
      text(mw.invoke(handle, "get", as::encode(mw.wire_format()))));
  replies.push_back(text(mw.invoke(
      handle, "greet", as::encode(mw.wire_format(), std::string("reactor")))));
  std::vector<long long> pack{1, 2, 3};
  replies.push_back(text(
      mw.invoke(handle, "absorb", as::encode(mw.wire_format(), pack))));
  try {
    mw.invoke(handle, "no_such_method", as::encode(mw.wire_format()));
  } catch (const ac::rpc::RpcError& e) {
    replies.emplace_back(e.what());
  }
  EXPECT_EQ(replies, golden);
}

// --- incremental decode -----------------------------------------------------

TEST(Reactor, DecodesOneByteTrickle) {
  APAR_REQUIRE_LOOPBACK();
  ReactorRig rig;
  net::Socket socket = net::dial(
      rig.endpoint(), net::deadline_after(std::chrono::milliseconds(1000)));

  const auto frame = telemetry_frame(/*request_id=*/77);
  for (const std::byte b : frame) {
    net::send_all(socket, &b, 1,
                  net::deadline_after(std::chrono::milliseconds(500)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const RawReply reply = recv_reply(
      socket, net::deadline_after(std::chrono::milliseconds(2000)));
  EXPECT_EQ(reply.header.op, net::FrameHeader::Op::kReplyOk);
  EXPECT_EQ(reply.header.request_id, 77u);
  EXPECT_GT(reply.payload.size(), 0u);
}

// --- pipelining -------------------------------------------------------------

TEST(Reactor, PipelinedRepliesKeepRequestOrder) {
  APAR_REQUIRE_LOOPBACK();
  net::TcpServer::Options opts;
  opts.workers = 4;  // plenty of room for out-of-order completion
  ReactorRig rig(opts);
  auto& mw = *rig.middleware;
  const auto sleeper = mw.create(0, "Sleeper", as::encode(mw.wire_format()));

  // Decreasing naps: later requests finish FIRST on the pool, so only the
  // reactor's in-order flush can explain ordered replies.
  net::Socket socket = net::dial(
      rig.endpoint(), net::deadline_after(std::chrono::milliseconds(1000)));
  constexpr int kRequests = 6;
  std::vector<std::byte> burst;
  for (int i = 0; i < kRequests; ++i) {
    const long long nap_ms = 10 * (kRequests - 1 - i);
    const auto frame =
        call_frame(100 + static_cast<std::uint64_t>(i), sleeper.object, "nap",
                   as::encode(mw.wire_format(), nap_ms));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  net::send_all(socket, burst.data(), burst.size(),
                net::deadline_after(std::chrono::milliseconds(1000)));

  const auto deadline = net::deadline_after(std::chrono::milliseconds(5000));
  for (int i = 0; i < kRequests; ++i) {
    const RawReply reply = recv_reply(socket, deadline);
    EXPECT_EQ(reply.header.op, net::FrameHeader::Op::kReplyOk);
    EXPECT_EQ(reply.header.request_id, 100u + static_cast<std::uint64_t>(i))
        << "reply " << i << " out of order";
    // Call replies carry the copy-restored args before the result.
    const auto [arg, value] =
        as::decode<long long, long long>(reply.payload, mw.wire_format());
    EXPECT_EQ(arg, value);
    EXPECT_EQ(value, 10 * (kRequests - 1 - i));
  }
}

// --- backpressure -----------------------------------------------------------

TEST(Reactor, PartialDirectWriteKeepsItsPlaceInLine) {
  APAR_REQUIRE_LOOPBACK();
  net::TcpServer::Options opts;
  opts.reactor.sndbuf_bytes = 4 * 1024;
  ReactorRig rig(opts);
  auto& mw = *rig.middleware;
  const auto blob = mw.create(0, "Blob", as::encode(mw.wire_format()));

  // The small socket buffers take only part of the first reply. The small
  // requests read with it wait behind its unsent tail; none of their
  // replies may overtake that tail.
  net::Socket socket = dial_small_rcvbuf(rig.endpoint(), 4 * 1024);
  ASSERT_TRUE(socket.valid());
  constexpr int kRequests = 6;
  auto size_of = [](int i) { return i == 0 ? 256LL * 1024 : 100LL; };
  std::vector<std::byte> burst;
  for (int i = 0; i < kRequests; ++i) {
    const auto frame =
        call_frame(static_cast<std::uint64_t>(i), blob.object, "fill",
                   as::encode(mw.wire_format(), size_of(i),
                              static_cast<long long>('a' + i)));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  net::send_all(socket, burst.data(), burst.size(),
                net::deadline_after(std::chrono::milliseconds(1000)));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto deadline = net::deadline_after(std::chrono::milliseconds(10000));
  for (int i = 0; i < kRequests; ++i) {
    const RawReply reply = recv_reply(socket, deadline);
    ASSERT_EQ(reply.header.request_id, static_cast<std::uint64_t>(i));
    const auto [n, c, text] = as::decode<long long, long long, std::string>(
        reply.payload, mw.wire_format());
    EXPECT_EQ(text, std::string(static_cast<std::size_t>(size_of(i)),
                                static_cast<char>('a' + i)))
        << "reply " << i;
  }
}

TEST(Reactor, OutboundQueueCapPausesReads) {
  APAR_REQUIRE_LOOPBACK();
  net::TcpServer::Options opts;
  opts.reactor.sndbuf_bytes = 8 * 1024;
  ReactorRig rig(opts);
  auto& mw = *rig.middleware;
  const auto blob = mw.create(0, "Blob", as::encode(mw.wire_format()));

  net::Socket socket = dial_small_rcvbuf(rig.endpoint(), 4 * 1024);
  ASSERT_TRUE(socket.valid());
  constexpr int kRequests = 8;
  constexpr long long kBlob = 64 * 1024;
  std::vector<std::byte> burst;
  for (int i = 0; i < kRequests; ++i) {
    const auto frame =
        call_frame(static_cast<std::uint64_t>(i), blob.object, "make",
                   as::encode(mw.wire_format(), kBlob));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  net::send_all(socket, burst.data(), burst.size(),
                net::deadline_after(std::chrono::milliseconds(2000)));

  // Read slowly enough that a reply waits for socket space at least once,
  // but keep draining so every reply eventually lands.
  const auto deadline = net::deadline_after(std::chrono::milliseconds(20000));
  for (int i = 0; i < kRequests; ++i) {
    const RawReply reply = recv_reply(socket, deadline);
    EXPECT_EQ(reply.header.request_id, static_cast<std::uint64_t>(i));
    const auto [arg, text] =
        as::decode<long long, std::string>(reply.payload, mw.wire_format());
    EXPECT_EQ(arg, kBlob);
    EXPECT_EQ(text.size(), static_cast<std::size_t>(kBlob));
  }
  EXPECT_GE(rig.server->stats().backpressure_pauses, 1u);
}

// --- eviction and limits ----------------------------------------------------

TEST(Reactor, EvictsSlowReader) {
  APAR_REQUIRE_LOOPBACK();
  net::TcpServer::Options opts;
  opts.reactor.sndbuf_bytes = 8 * 1024;
  opts.reactor.stall_timeout = std::chrono::milliseconds(300);
  ReactorRig rig(opts);
  auto& mw = *rig.middleware;
  const auto blob = mw.create(0, "Blob", as::encode(mw.wire_format()));

  net::Socket socket = dial_small_rcvbuf(rig.endpoint(), 4 * 1024);
  ASSERT_TRUE(socket.valid());
  const auto frame = call_frame(1, blob.object, "make",
                                as::encode(mw.wire_format(), 512LL * 1024));
  net::send_all(socket, frame.data(), frame.size(),
                net::deadline_after(std::chrono::milliseconds(1000)));

  // Never read: the 512 KiB reply cannot fit the tiny windows, the write
  // stalls, and the stall timeout evicts us.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rig.server->stats().slow_closed == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(rig.server->stats().slow_closed, 1u);
}

TEST(Reactor, RejectsConnectionsOverTheLimit) {
  APAR_REQUIRE_LOOPBACK();
  net::TcpServer::Options opts;
  opts.reactor.max_connections = 2;
  ReactorRig rig(opts);

  const auto deadline = net::deadline_after(std::chrono::milliseconds(2000));
  net::Socket first = net::dial(rig.endpoint(), deadline);
  net::Socket second = net::dial(rig.endpoint(), deadline);
  // Prove both are genuinely being served before dialing the third.
  for (net::Socket* s : {&first, &second}) {
    const auto frame = telemetry_frame(9);
    net::send_all(*s, frame.data(), frame.size(), deadline);
    EXPECT_EQ(recv_reply(*s, deadline).header.op,
              net::FrameHeader::Op::kReplyOk);
  }

  net::Socket third = net::dial(rig.endpoint(), deadline);
  // The TCP handshake succeeds (backlog), but the reactor closes it on
  // accept: the first read reports EOF.
  std::array<std::byte, 1> byte;
  EXPECT_THROW(
      net::recv_exact(third, byte.data(), 1,
                      net::deadline_after(std::chrono::milliseconds(2000))),
      net::NetError);
  EXPECT_EQ(rig.server->stats().rejected, 1u);
  EXPECT_EQ(rig.server->open_connections(), 2u);
}

TEST(Reactor, ClosesIdleConnections) {
  APAR_REQUIRE_LOOPBACK();
  net::TcpServer::Options opts;
  opts.reactor.idle_timeout = std::chrono::milliseconds(150);
  ReactorRig rig(opts);

  const auto deadline = net::deadline_after(std::chrono::milliseconds(2000));
  net::Socket socket = net::dial(rig.endpoint(), deadline);
  const auto frame = telemetry_frame(5);
  net::send_all(socket, frame.data(), frame.size(), deadline);
  EXPECT_EQ(recv_reply(socket, deadline).header.op,
            net::FrameHeader::Op::kReplyOk);

  // Go quiet; the idle sweep must close us.
  std::array<std::byte, 1> byte;
  EXPECT_THROW(
      net::recv_exact(socket, byte.data(), 1,
                      net::deadline_after(std::chrono::milliseconds(3000))),
      net::NetError);
  EXPECT_GE(rig.server->stats().idle_closed, 1u);
}

TEST(Reactor, ClosesPeerStalledMidFrame) {
  APAR_REQUIRE_LOOPBACK();
  net::TcpServer::Options opts;
  opts.reactor.stall_timeout = std::chrono::milliseconds(200);
  ReactorRig rig(opts);
  const auto deadline = net::deadline_after(std::chrono::milliseconds(5000));

  // A peer that goes quiet between frames...
  net::Socket quiet = net::dial(rig.endpoint(), deadline);
  const auto first = telemetry_frame(1);
  net::send_all(quiet, first.data(), first.size(), deadline);
  EXPECT_EQ(recv_reply(quiet, deadline).header.op,
            net::FrameHeader::Op::kReplyOk);

  // ...and one that sends half a header and goes quiet mid-frame.
  net::Socket stalled = net::dial(rig.endpoint(), deadline);
  const auto started = std::chrono::steady_clock::now();
  net::send_all(stalled, first.data(), net::FrameHeader::kSize / 2, deadline);
  std::array<std::byte, 1> byte;
  try {
    net::recv_exact(stalled, byte.data(), 1,
                    net::deadline_after(std::chrono::milliseconds(3000)));
    ADD_FAILURE() << "the stalled peer was sent a byte";
  } catch (const net::NetError& e) {
    EXPECT_EQ(e.kind(), net::NetError::Kind::kClosed) << e.what();
  }
  const auto took = std::chrono::steady_clock::now() - started;
  EXPECT_GE(took, opts.reactor.stall_timeout);
  EXPECT_LT(took, std::chrono::milliseconds(2000));
  EXPECT_EQ(rig.server->stats().slow_closed, 1u);

  // The quiet peer, silent for longer than the timeout, is still served.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto second = telemetry_frame(2);
  net::send_all(quiet, second.data(), second.size(), deadline);
  EXPECT_EQ(recv_reply(quiet, deadline).header.request_id, 2u);
  EXPECT_EQ(rig.server->stats().slow_closed, 1u);
}

// --- shutdown ---------------------------------------------------------------

TEST(Reactor, GracefulDrainFlushesInflightReplies) {
  APAR_REQUIRE_LOOPBACK();
  ReactorRig rig;
  auto& mw = *rig.middleware;
  const auto sleeper = mw.create(0, "Sleeper", as::encode(mw.wire_format()));

  net::Socket socket = net::dial(
      rig.endpoint(), net::deadline_after(std::chrono::milliseconds(1000)));
  const auto frame = call_frame(42, sleeper.object, "nap",
                                as::encode(mw.wire_format(), 150LL));
  net::send_all(socket, frame.data(), frame.size(),
                net::deadline_after(std::chrono::milliseconds(1000)));
  // Give the reactor a beat to read and dispatch the request, then stop:
  // the drain must let the in-flight nap finish and flush its reply.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  rig.server->stop();

  const RawReply reply = recv_reply(
      socket, net::deadline_after(std::chrono::milliseconds(2000)));
  EXPECT_EQ(reply.header.op, net::FrameHeader::Op::kReplyOk);
  EXPECT_EQ(reply.header.request_id, 42u);
}

TEST(Reactor, TaskOutlivingTheReactorHoldsOnlyItsConnection) {
  APAR_REQUIRE_LOOPBACK();
  net::Listener listener(0);
  net::ServerStats stats;
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  const std::size_t fds_before = apar::test::open_fd_count();

  net::Reactor::Options options;
  options.drain_timeout = std::chrono::milliseconds(100);
  auto reactor = std::make_unique<net::Reactor>(
      listener, 1,
      [&](const net::FrameHeader& header, std::vector<std::byte>) {
        entered.set_value();
        released.wait();
        net::Frame reply;
        reply.header.op = net::FrameHeader::Op::kReplyOk;
        reply.header.request_id = header.request_id;
        return reply;
      },
      options, stats, "outlive");

  const auto deadline = net::deadline_after(std::chrono::milliseconds(5000));
  net::Socket client = net::dial({"127.0.0.1", listener.port()}, deadline);
  const auto frame = telemetry_frame(1);
  net::send_all(client, frame.data(), frame.size(), deadline);
  entered.get_future().wait();

  // The handler is stuck past the drain timeout.
  const auto stop_started = std::chrono::steady_clock::now();
  auto stopped = std::async(std::launch::async, [&] { reactor->stop(); });

  // The peer sees the close at the deadline...
  std::array<std::byte, 1> byte;
  EXPECT_THROW(net::recv_exact(client, byte.data(), 1, deadline),
               net::NetError);
  EXPECT_GE(std::chrono::steady_clock::now() - stop_started,
            options.drain_timeout);
  // ...while stop() waits for the handler, and returns once it does.
  EXPECT_EQ(stopped.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  release.set_value();
  stopped.get();

  // The late reply was never counted, and every descriptor the reactor
  // opened is closed: only the client is left.
  EXPECT_EQ(stats.frames_out.value(), 0u);
  EXPECT_EQ(apar::test::open_fd_count(), fds_before + 1);
  reactor.reset();
  EXPECT_EQ(apar::test::open_fd_count(), fds_before + 1);
}

// --- one connection at a time, many at once ---------------------------------

TEST(Reactor, BlockedHandlerHoldsUpOnlyItsConnection) {
  APAR_REQUIRE_LOOPBACK();
  net::TcpServer::Options opts;
  opts.workers = 2;
  ReactorRig rig(opts);
  auto& mw = *rig.middleware;
  const auto sleeper = mw.create(0, "Sleeper", as::encode(mw.wire_format()));
  const auto counter =
      mw.create(0, "Counter", as::encode(mw.wire_format(), 0LL));

  net::Socket blocked = net::dial(
      rig.endpoint(), net::deadline_after(std::chrono::milliseconds(1000)));
  const std::uint64_t frames_before = rig.server->stats().frames_in;
  const auto frame = call_frame(7, sleeper.object, "nap",
                                as::encode(mw.wire_format(), 500LL));
  net::send_all(blocked, frame.data(), frame.size(),
                net::deadline_after(std::chrono::milliseconds(1000)));
  // Its handler has started once the server has read the frame.
  const auto read_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rig.server->stats().frames_in == frames_before &&
         std::chrono::steady_clock::now() < read_by)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GT(rig.server->stats().frames_in, frames_before);

  const auto started = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i)
    mw.invoke(counter, "add", as::encode(mw.wire_format(), 1LL));
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::milliseconds(300))
      << "calls on another connection waited for the blocked handler";

  const RawReply reply = recv_reply(
      blocked, net::deadline_after(std::chrono::milliseconds(5000)));
  EXPECT_EQ(reply.header.op, net::FrameHeader::Op::kReplyOk);
  EXPECT_EQ(reply.header.request_id, 7u);
}

TEST(Reactor, PipelinedRequestsRunOneAtATimeInArrivalOrder) {
  APAR_REQUIRE_LOOPBACK();
  net::TcpServer::Options opts;
  opts.workers = 4;  // idle threads that could overlap them, if allowed to
  ReactorRig rig(opts);
  auto& mw = *rig.middleware;
  const auto serial = mw.create(0, "Serial", as::encode(mw.wire_format()));
  OverlapProbe& probe = overlap_probe();
  probe.peak = 0;
  {
    std::lock_guard lock(probe.mu);
    probe.finished.clear();
  }

  net::Socket socket = net::dial(
      rig.endpoint(), net::deadline_after(std::chrono::milliseconds(1000)));
  constexpr int kRequests = 8;
  std::vector<std::byte> burst;
  for (int i = 0; i < kRequests; ++i) {
    const long long ms = (kRequests - i) % 3 * 5;
    const auto frame =
        call_frame(static_cast<std::uint64_t>(i), serial.object, "step",
                   as::encode(mw.wire_format(), static_cast<long long>(i), ms));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  net::send_all(socket, burst.data(), burst.size(),
                net::deadline_after(std::chrono::milliseconds(1000)));

  const auto deadline = net::deadline_after(std::chrono::milliseconds(5000));
  for (int i = 0; i < kRequests; ++i) {
    const RawReply reply = recv_reply(socket, deadline);
    EXPECT_EQ(reply.header.request_id, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(probe.peak.load(), 1) << "handlers of one connection overlapped";
  std::vector<long long> expected(kRequests);
  for (int i = 0; i < kRequests; ++i) expected[i] = i;
  std::lock_guard lock(probe.mu);
  EXPECT_EQ(probe.finished, expected);
}

TEST(Reactor, HandlerLongerThanIdleTimeoutIsAnswered) {
  APAR_REQUIRE_LOOPBACK();
  net::TcpServer::Options opts;
  opts.reactor.idle_timeout = std::chrono::milliseconds(100);
  ReactorRig rig(opts);
  auto& mw = *rig.middleware;
  const auto sleeper = mw.create(0, "Sleeper", as::encode(mw.wire_format()));

  net::Socket socket = net::dial(
      rig.endpoint(), net::deadline_after(std::chrono::milliseconds(1000)));
  const auto frame = call_frame(3, sleeper.object, "nap",
                                as::encode(mw.wire_format(), 300LL));
  net::send_all(socket, frame.data(), frame.size(),
                net::deadline_after(std::chrono::milliseconds(1000)));
  const RawReply reply = recv_reply(
      socket, net::deadline_after(std::chrono::milliseconds(3000)));
  EXPECT_EQ(reply.header.op, net::FrameHeader::Op::kReplyOk);
  EXPECT_EQ(reply.header.request_id, 3u);
}

// --- many clients, few workers ----------------------------------------------

TEST(Reactor, ServesManyMoreClientsThanWorkers) {
  APAR_REQUIRE_LOOPBACK();
  net::TcpServer::Options opts;
  opts.workers = 4;
  ReactorRig rig(opts);
  auto& mw = *rig.middleware;

  // 16 concurrent closed-loop clients on 4 workers: every one is served,
  // though at most 4 requests run at once.
  constexpr int kThreads = 16;
  constexpr int kCallsPerThread = 25;
  std::vector<ac::RemoteHandle> handles;
  for (int t = 0; t < kThreads; ++t)
    handles.push_back(
        mw.create(0, "Counter", as::encode(mw.wire_format(), 0LL)));

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i)
        mw.invoke(handles[t], "add", as::encode(mw.wire_format(), 1LL));
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    const auto [value] = as::decode<long long>(
        mw.invoke(handles[t], "get", as::encode(mw.wire_format())),
        mw.wire_format());
    EXPECT_EQ(value, kCallsPerThread);
  }

  // Byte parity both directions, as in the transport's hammer test.
  const auto counters = mw.net_counters();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (rig.server->stats().bytes_out < counters.wire_bytes_received &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const auto server = rig.server->stats();
  EXPECT_EQ(counters.wire_bytes_sent, server.bytes_in);
  EXPECT_EQ(counters.wire_bytes_received, server.bytes_out);
  EXPECT_EQ(counters.frames_sent, server.frames_in);
  EXPECT_EQ(counters.frames_received, server.frames_out);
}

// --- keeping the connection just served -------------------------------------

TEST(Reactor, KeepingThreadYieldsToAnotherConnection) {
  APAR_REQUIRE_LOOPBACK();
  using Clock = std::chrono::steady_clock;
  net::TcpServer::Options opts;
  opts.workers = 1;
  ReactorRig rig(opts);
  auto& mw = *rig.middleware;
  const auto counter =
      mw.create(0, "Counter", as::encode(mw.wire_format(), 0LL));

  // One client calls in a tight closed loop, so the only thread, having
  // answered it, keeps its connection. Its reply times show when it
  // paused: a keep also ends by itself once its client is quiet for 1 ms.
  std::atomic<bool> done{false};
  std::mutex mu;
  std::vector<Clock::time_point> replied;
  std::string failure;
  std::thread busy([&] {
    try {
      const auto deadline = net::deadline_after(std::chrono::seconds(60));
      net::Socket socket = net::dial(rig.endpoint(), deadline);
      for (std::uint64_t id = 1; !done.load(); ++id) {
        const auto frame = call_frame(id, counter.object, "add",
                                      as::encode(mw.wire_format(), 1LL));
        net::send_all(socket, frame.data(), frame.size(), deadline);
        (void)recv_reply(socket, deadline);
        std::lock_guard lock(mu);
        replied.push_back(Clock::now());
      }
    } catch (const std::exception& e) {
      failure = e.what();
    }
  });
  auto paused = [&](Clock::time_point from, Clock::time_point to) {
    constexpr auto kQuiet = std::chrono::microseconds(800);
    std::lock_guard lock(mu);
    auto prev = from;
    for (auto it = std::lower_bound(replied.begin(), replied.end(), from);
         it != replied.end() && *it <= to; ++it) {
      if (*it - prev > kQuiet) return true;
      prev = *it;
    }
    return to - prev > kQuiet;
  };
  const auto warm_by = Clock::now() + std::chrono::seconds(10);
  for (;;) {
    {
      std::lock_guard lock(mu);
      if (replied.size() >= 200 || Clock::now() > warm_by) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // A call on a second connection, made while the busy client never
  // paused, is answered within 100 ms: the keeping thread watched the set.
  int unpaused = 0;
  try {
    net::Socket other = net::dial(
        rig.endpoint(), net::deadline_after(std::chrono::milliseconds(1000)));
    for (std::uint64_t i = 0; i < 50 && unpaused < 5; ++i) {
      // Long enough for the keep of this connection's last call to end.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      const auto started = Clock::now();
      const auto frame = call_frame(1000 + i, counter.object, "get",
                                    as::encode(mw.wire_format()));
      net::send_all(other, frame.data(), frame.size(),
                    net::deadline_after(std::chrono::milliseconds(1000)));
      const RawReply reply = recv_reply(
          other, net::deadline_after(std::chrono::milliseconds(2000)));
      const auto answered = Clock::now();
      EXPECT_EQ(reply.header.request_id, 1000 + i);
      if (paused(started - std::chrono::milliseconds(1), answered)) continue;
      ++unpaused;
      EXPECT_LT(answered - started, std::chrono::milliseconds(100));
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }
  EXPECT_GE(unpaused, 1)
      << "every call waited for the busy client to pause";
  done = true;
  busy.join();
  EXPECT_EQ(failure, "");
}

TEST(Reactor, StopEndsAKeepPromptly) {
  APAR_REQUIRE_LOOPBACK();
  net::Listener listener(0);
  net::ServerStats stats;
  const std::size_t fds_before = apar::test::open_fd_count();

  net::Reactor::Options options;
  options.drain_timeout = std::chrono::seconds(5);
  auto reactor = std::make_unique<net::Reactor>(
      listener, 1,
      [](const net::FrameHeader& header, std::vector<std::byte>) {
        net::Frame reply;
        reply.header.op = net::FrameHeader::Op::kReplyOk;
        reply.header.request_id = header.request_id;
        return reply;
      },
      options, stats, "keep-stop");

  // A client calling in a tight loop keeps the only thread on its
  // connection until stop() closes it.
  std::atomic<int> replies{0};
  std::thread client([&] {
    try {
      const auto deadline = net::deadline_after(std::chrono::seconds(30));
      net::Socket socket = net::dial({"127.0.0.1", listener.port()}, deadline);
      for (std::uint64_t id = 1;; ++id) {
        const auto frame = telemetry_frame(id);
        net::send_all(socket, frame.data(), frame.size(), deadline);
        (void)recv_reply(socket, deadline);
        replies.fetch_add(1);
      }
    } catch (const net::NetError&) {
      // The server closed the connection.
    }
  });
  const auto warm_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (replies.load() < 200 && std::chrono::steady_clock::now() < warm_by)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(replies.load(), 200);

  const auto started = std::chrono::steady_clock::now();
  reactor->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(1))
      << "stop() waited on the kept connection until the drain timeout";
  client.join();
  EXPECT_EQ(apar::test::open_fd_count(), fds_before);
}

// --- fault composition ------------------------------------------------------

TEST(Reactor, FaultInjectionComposesOverReactor) {
  APAR_REQUIRE_LOOPBACK();
  ReactorRig rig;
  auto& tcp = *rig.middleware;

  ac::FaultInjectingMiddleware::Options fopts;
  fopts.seed = 42;
  fopts.drop_rate = 0.3;
  ac::FaultInjectingMiddleware faulty(tcp, fopts);

  const auto handle =
      faulty.create(0, "Counter", as::encode(faulty.wire_format(), 0LL));
  int delivered = 0;
  for (int i = 0; i < 30; ++i) {
    try {
      faulty.invoke(handle, "add", as::encode(faulty.wire_format(), 1LL));
      ++delivered;
    } catch (const ac::rpc::RpcError&) {
      // Injected drop — decided by the decorator, not the socket.
    }
  }
  const auto [value] = as::decode<long long>(
      faulty.invoke(handle, "get", as::encode(faulty.wire_format())),
      faulty.wire_format());
  EXPECT_EQ(value, delivered);
  EXPECT_GT(faulty.fault_stats().dropped.value(), 0u);
}

TEST(Reactor, QueueDepthRecordsOneSamplePerReplyOnBothWritePaths) {
  APAR_REQUIRE_LOOPBACK();
  apar::obs::MetricsHold metrics;
  net::TcpServer::Options opts;
  opts.workers = 4;
  ReactorRig rig(opts);
  const auto depth = apar::obs::MetricsRegistry::global().histogram(
      "net.server.queue_depth",
      {{"server", "tcp:" + std::to_string(rig.server->port())}},
      apar::obs::Histogram::bytes_bounds());
  const std::uint64_t before = depth->count();
  auto& mw = *rig.middleware;

  // Closed-loop calls.
  const auto sleeper = mw.create(0, "Sleeper", as::encode(mw.wire_format()));
  for (int i = 0; i < 20; ++i)
    mw.invoke(sleeper, "nap", as::encode(mw.wire_format(), 0LL));
  // Decreasing naps, pipelined on one connection.
  net::Socket socket = net::dial(
      rig.endpoint(), net::deadline_after(std::chrono::milliseconds(1000)));
  std::vector<std::byte> burst;
  for (int i = 0; i < 4; ++i) {
    const auto frame =
        call_frame(static_cast<std::uint64_t>(i), sleeper.object, "nap",
                   as::encode(mw.wire_format(), 10LL * (3 - i)));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  net::send_all(socket, burst.data(), burst.size(),
                net::deadline_after(std::chrono::milliseconds(1000)));
  const auto deadline = net::deadline_after(std::chrono::milliseconds(5000));
  for (int i = 0; i < 4; ++i) (void)recv_reply(socket, deadline);

  EXPECT_EQ(depth->count() - before, rig.server->stats().frames_out);
}

// --- the frame limit --------------------------------------------------------

TEST(Reactor, OversizeReplyIsAnsweredWithAnError) {
  APAR_REQUIRE_LOOPBACK();
  ReactorRig rig;
  auto& mw = *rig.middleware;
  const auto blob = mw.create(0, "Blob", as::encode(mw.wire_format()));

  // The reply would not fit a frame: the server answers with the reason,
  // not with a header its client must reject.
  try {
    mw.invoke(blob, "make",
              as::encode(mw.wire_format(), static_cast<long long>(
                                               net::FrameHeader::kMaxPayload)));
    FAIL() << "expected RpcError";
  } catch (const ac::rpc::RpcError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  std::to_string(net::FrameHeader::kMaxPayload)),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(rig.server->stats().dispatch_errors, 1u);

  // The connection stayed in step: the next call is served on it.
  const auto [n, text] = as::decode<long long, std::string>(
      mw.invoke(blob, "make", as::encode(mw.wire_format(), 3LL)),
      mw.wire_format());
  EXPECT_EQ(text, "xxx");
  EXPECT_EQ(mw.net_counters().connects, 1u);
  EXPECT_EQ(mw.net_counters().reconnects, 0u);
}

// --- one counter mechanism --------------------------------------------------

TEST(Reactor, StatsTelemetryAndRegistryAreOneSetOfCounters) {
  APAR_REQUIRE_LOOPBACK();
  ReactorRig rig;
  auto& mw = *rig.middleware;
  const auto blob = mw.create(0, "Blob", as::encode(mw.wire_format()));

  // Replies larger than the client's receive window plus any send buffer
  // the kernel grants wait for socket space, so a reactor-only counter
  // moves too.
  net::Socket socket = dial_small_rcvbuf(rig.endpoint(), 4 * 1024);
  ASSERT_TRUE(socket.valid());
  std::vector<std::byte> burst;
  for (int i = 0; i < 2; ++i) {
    const auto frame =
        call_frame(static_cast<std::uint64_t>(i), blob.object, "make",
                   as::encode(mw.wire_format(), 4LL * 1024 * 1024));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  net::send_all(socket, burst.data(), burst.size(),
                net::deadline_after(std::chrono::milliseconds(1000)));
  const auto deadline = net::deadline_after(std::chrono::milliseconds(10000));
  for (int i = 0; i < 2; ++i) (void)recv_reply(socket, deadline);

  const std::string telemetry = mw.telemetry(0);
  const auto stats = rig.server->stats();
  ASSERT_GE(stats.backpressure_pauses, 1u);

  // Every field of the server's set is in the registry under its label...
  auto& registry = apar::obs::MetricsRegistry::global();
  const apar::obs::Labels labels{
      {"server", "tcp:" + std::to_string(rig.server->port())}};
  stats.for_each([&](std::string_view field, std::uint64_t value) {
    EXPECT_EQ(registry.value("net.server." + std::string(field), labels),
              static_cast<std::int64_t>(value))
        << field;
  });
  // ...and in the kTelemetry server block (fields the telemetry exchange
  // itself does not move).
  for (const char* field :
       {"accepted", "backpressure_pauses", "protocol_errors", "frames_in"}) {
    std::uint64_t value = 0;
    stats.for_each([&](std::string_view name, std::uint64_t v) {
      if (name == field) value = v;
    });
    EXPECT_NE(telemetry.find("\"" + std::string(field) +
                             "\":" + std::to_string(value)),
              std::string::npos)
        << field;
  }
}
