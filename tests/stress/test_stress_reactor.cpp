// Seeded reactor stress, three schedules.
//
// Pipelining clients against a reactor server whose threads pass
// connections between each other: handler delays come from the seed, a
// small send buffer leaves reply tails that hold later frames back, and
// some clients disconnect mid-pipeline. Every surviving connection must get
// each reply exactly once and in request order, frames_out must never pass
// frames_in, and stop() must give back every descriptor the server opened.
//
// Closed-loop clients whose seeded naps and handler delays reach past a
// short idle_timeout, on fewer server threads than clients, so idle sweeps,
// their closes and re-arming race each other. A client whose connection
// was closed redials and resends; every request must still be served
// exactly once and answered in order, so no connection was closed while
// one of its requests was being served.
//
// Closed-loop clients, many more than server threads, whose seeded pauses
// fall inside and outside the window in which the thread that answered a
// request keeps its connection: kept and handed-back connections mix, and
// every reply must still come exactly once and in order.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../net/net_fixtures.hpp"
#include "apar/common/stress.hpp"
#include "apar/net/error.hpp"
#include "apar/serial/archive.hpp"
#include "stress_common.hpp"

namespace as = apar::serial;
namespace net = apar::net;
using apar::test::announce_stress_seed;

namespace {

/// Answers with `bytes` copies of `fill` after a seeded delay.
class Echo {
 public:
  Echo() = default;
  std::string reply(long long bytes, long long fill, long long delay_us) {
    if (delay_us > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    return std::string(static_cast<std::size_t>(bytes),
                       static_cast<char>(fill));
  }
};

struct Request {
  long long bytes = 0;
  long long fill = 0;
  long long delay_us = 0;
};

/// A kCall frame for `method` of object `oid` with compact-encoded `args`.
std::vector<std::byte> call_frame(std::uint64_t request_id, std::uint64_t oid,
                                  const std::string& method,
                                  const std::vector<std::byte>& args) {
  std::vector<std::byte> payload;
  net::put_u64(payload, oid);
  net::put_string(payload, method);
  payload.insert(payload.end(), args.begin(), args.end());
  net::FrameHeader header;
  header.op = net::FrameHeader::Op::kCall;
  header.request_id = request_id;
  header.payload_len = static_cast<std::uint32_t>(payload.size());
  const auto head = net::encode_header(header);
  std::vector<std::byte> frame(head.size() + payload.size());
  std::copy(head.begin(), head.end(), frame.begin());
  std::copy(payload.begin(), payload.end(),
            frame.begin() + static_cast<std::ptrdiff_t>(head.size()));
  return frame;
}

std::vector<std::byte> request_frame(std::uint64_t request_id,
                                     std::uint64_t oid, const Request& r) {
  return call_frame(
      request_id, oid, "reply",
      as::encode(as::Format::kCompact, r.bytes, r.fill, r.delay_us));
}

/// One pipelining client: keeps up to `window` requests outstanding and
/// checks every reply against its request. Wider windows put frames behind
/// reply tails that wait for socket space. A quitter closes its socket with
/// requests in flight after `quit_after` replies. Returns a failure
/// description, or an empty string.
std::string run_client(std::uint64_t seed, int client, std::uint16_t port,
                       std::uint64_t oid, std::size_t window, bool delays,
                       bool quitter) {
  constexpr std::size_t kRequests = 150;
  auto rng = apar::common::rng_at(seed, static_cast<std::uint64_t>(client));
  std::vector<Request> plan(kRequests);
  for (Request& r : plan) {
    // Small replies and ones well past the server's send buffer.
    r.bytes = rng.uniform01() < 0.6
                  ? static_cast<long long>(rng.uniform(16, 512))
                  : static_cast<long long>(rng.uniform(8192, 49152));
    r.fill = static_cast<long long>('a' + rng.uniform(0, 25));
    r.delay_us = delays ? static_cast<long long>(rng.uniform(0, 400)) : 0;
  }
  const std::size_t quit_after =
      quitter ? static_cast<std::size_t>(rng.uniform(5, kRequests / 2))
              : kRequests;

  const auto deadline = net::deadline_after(std::chrono::seconds(60));
  net::Socket socket = net::dial({"127.0.0.1", port}, deadline);
  std::size_t sent = 0;
  std::size_t received = 0;
  while (received < kRequests) {
    while (sent < kRequests && sent - received < window) {
      const auto frame = request_frame(sent, oid, plan[sent]);
      net::send_all(socket, frame.data(), frame.size(), deadline);
      ++sent;
    }
    if (received == quit_after) return {};  // closes with requests in flight

    std::array<std::byte, net::FrameHeader::kSize> head;
    net::recv_exact(socket, head.data(), head.size(), deadline);
    const auto header = net::decode_header(head.data(), head.size());
    std::vector<std::byte> payload(header.payload_len);
    net::recv_exact(socket, payload.data(), payload.size(), deadline);
    if (header.request_id != received)
      return "client " + std::to_string(client) + ": reply " +
             std::to_string(received) + " carries request id " +
             std::to_string(header.request_id);
    const Request& r = plan[received];
    const auto [bytes, fill, delay, text] =
        as::decode<long long, long long, long long, std::string>(
            payload, as::Format::kCompact);
    if (text != std::string(static_cast<std::size_t>(r.bytes),
                            static_cast<char>(r.fill)))
      return "client " + std::to_string(client) + ": reply " +
             std::to_string(received) + " has the wrong body";
    ++received;
  }
  // Exactly once: nothing may follow the last reply.
  pollfd pfd{socket.fd(), POLLIN, 0};
  if (::poll(&pfd, 1, 20) != 0)
    return "client " + std::to_string(client) +
           ": bytes after its last reply";
  return {};
}

/// How many times each (client, request) pair reached its handler.
struct ServedLedger {
  std::mutex mu;
  std::map<std::pair<long long, long long>, int> served;
};

ServedLedger& served_ledger() {
  static ServedLedger ledger;
  return ledger;
}

/// Records each request it serves, after a seeded delay.
class Ledger {
 public:
  Ledger() = default;
  long long serve(long long client, long long seq, long long delay_us) {
    if (delay_us > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    ServedLedger& ledger = served_ledger();
    std::lock_guard lock(ledger.mu);
    ++ledger.served[{client, seq}];
    return seq;
  }
};

/// One closed-loop client that naps between requests, some naps past the
/// server's idle_timeout. When its connection turns out closed, it redials
/// and resends the request it was waiting on. Returns a failure
/// description, or an empty string; counts its redials in `redials`.
std::string run_napping_client(std::uint64_t seed, int client,
                               std::uint16_t port, std::uint64_t oid,
                               long long requests, long long max_nap_ms,
                               long long max_delay_us,
                               std::atomic<int>& redials) {
  auto rng =
      apar::common::rng_at(seed, 1000 + static_cast<std::uint64_t>(client));
  const auto deadline = net::deadline_after(std::chrono::seconds(60));
  net::Socket socket;
  for (long long seq = 0; seq < requests;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<long long>(rng.uniform(0, max_nap_ms))));
    const auto delay_us =
        static_cast<long long>(rng.uniform(0, max_delay_us));
    try {
      if (!socket.valid()) socket = net::dial({"127.0.0.1", port}, deadline);
      const auto frame =
          call_frame(static_cast<std::uint64_t>(seq), oid, "serve",
                     as::encode(as::Format::kCompact,
                                static_cast<long long>(client), seq,
                                delay_us));
      net::send_all(socket, frame.data(), frame.size(), deadline);
      std::array<std::byte, net::FrameHeader::kSize> head;
      net::recv_exact(socket, head.data(), head.size(), deadline);
      const auto header = net::decode_header(head.data(), head.size());
      std::vector<std::byte> payload(header.payload_len);
      net::recv_exact(socket, payload.data(), payload.size(), deadline);
      const auto [c, s, d, value] =
          as::decode<long long, long long, long long, long long>(
              payload, as::Format::kCompact);
      if (header.request_id != static_cast<std::uint64_t>(seq) ||
          value != seq)
        return "client " + std::to_string(client) + ": reply " +
               std::to_string(seq) + " carries request id " +
               std::to_string(header.request_id);
      ++seq;
    } catch (const net::NetError& e) {
      if (e.kind() != net::NetError::Kind::kClosed)
        return "client " + std::to_string(client) + ": " + e.what();
      socket = net::Socket{};  // closed while idle: redial and resend
      redials.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Exactly once: nothing but a close may follow the last reply.
  pollfd pfd{socket.fd(), POLLIN, 0};
  std::byte byte{};
  if (::poll(&pfd, 1, 20) > 0 && ::recv(socket.fd(), &byte, 1, 0) > 0)
    return "client " + std::to_string(client) +
           ": bytes after its last reply";
  return {};
}

/// One closed-loop client that pauses between requests for a seeded time:
/// mostly not at all or briefly, so the server keeps its connection, and
/// sometimes past the keep window, so the connection goes back to the set.
/// Returns a failure description, or an empty string.
std::string run_pausing_client(std::uint64_t seed, int client,
                               std::uint16_t port, std::uint64_t oid,
                               std::size_t requests) {
  auto rng =
      apar::common::rng_at(seed, 2000 + static_cast<std::uint64_t>(client));
  const auto deadline = net::deadline_after(std::chrono::seconds(60));
  net::Socket socket = net::dial({"127.0.0.1", port}, deadline);
  for (std::size_t seq = 0; seq < requests; ++seq) {
    const double dice = rng.uniform01();
    const auto pause_us = static_cast<long long>(
        dice < 0.6   ? 0
        : dice < 0.85 ? rng.uniform(50, 800)
                      : rng.uniform(1500, 4000));
    if (pause_us > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(pause_us));
    Request r;
    r.bytes = static_cast<long long>(rng.uniform(1, 256));
    r.fill = static_cast<long long>('a' + rng.uniform(0, 25));
    r.delay_us = static_cast<long long>(rng.uniform(0, 100));
    const auto frame = request_frame(seq, oid, r);
    net::send_all(socket, frame.data(), frame.size(), deadline);

    std::array<std::byte, net::FrameHeader::kSize> head;
    net::recv_exact(socket, head.data(), head.size(), deadline);
    const auto header = net::decode_header(head.data(), head.size());
    std::vector<std::byte> payload(header.payload_len);
    net::recv_exact(socket, payload.data(), payload.size(), deadline);
    if (header.request_id != seq)
      return "client " + std::to_string(client) + ": reply " +
             std::to_string(seq) + " carries request id " +
             std::to_string(header.request_id);
    const auto [bytes, fill, delay, text] =
        as::decode<long long, long long, long long, std::string>(
            payload, as::Format::kCompact);
    if (text != std::string(static_cast<std::size_t>(r.bytes),
                            static_cast<char>(r.fill)))
      return "client " + std::to_string(client) + ": reply " +
             std::to_string(seq) + " has the wrong body";
  }
  pollfd pfd{socket.fd(), POLLIN, 0};
  if (::poll(&pfd, 1, 20) != 0)
    return "client " + std::to_string(client) +
           ": bytes after its last reply";
  return {};
}

}  // namespace

TEST(StressReactor, PipelinedRepliesStayOrderedAcrossWorkerAndLoopWrites) {
  APAR_REQUIRE_LOOPBACK();
  const std::uint64_t seed = announce_stress_seed(0x5EAC7);
  const std::size_t fds_before = apar::test::open_fd_count();

  apar::cluster::rpc::Registry registry;
  registry.bind<Echo>("Echo").ctor<>().method<&Echo::reply>("reply");
  net::TcpServer::Options opts;
  opts.workers = 4;
  opts.reactor.sndbuf_bytes = 4 * 1024;  // reply tails
  net::TcpServer server(registry, opts);

  std::uint64_t oid = 0;
  {
    net::TcpMiddleware::Options mw;
    mw.endpoints = {{"127.0.0.1", server.port()}};
    net::TcpMiddleware middleware(mw);
    oid = middleware.create(0, "Echo", as::encode(as::Format::kCompact))
              .object;
  }

  // frames_out is read before frames_in: both only grow, so a sample can
  // only see frames_out ahead if the server really counted a reply first.
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> ahead{0};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const std::uint64_t out = server.stats().frames_out;
      const std::uint64_t in = server.stats().frames_in;
      if (out > in) ahead.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  constexpr int kClients = 8;
  constexpr std::array<std::size_t, 4> kWindows{1, 2, 4, 12};
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        failures[c] = run_client(seed, c, server.port(), oid,
                                 kWindows[c % 4], /*delays=*/c < 4,
                                 /*quitter=*/c % 4 == 3);
      } catch (const std::exception& e) {
        failures[c] = "client " + std::to_string(c) + ": " + e.what();
      }
    });
  }
  for (auto& t : clients) t.join();
  done.store(true, std::memory_order_relaxed);
  sampler.join();

  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
  EXPECT_EQ(ahead.load(), 0u) << "frames_out was seen ahead of frames_in";
  const auto stats = server.stats();
  EXPECT_LE(stats.frames_out, stats.frames_in);
  EXPECT_GE(stats.backpressure_pauses, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);

  server.stop();
  EXPECT_EQ(apar::test::open_fd_count(), fds_before)
      << "descriptors left open after stop()";
}

TEST(StressReactor, IdleSweepsNeverCloseAConnectionMidRequest) {
  APAR_REQUIRE_LOOPBACK();
  const std::uint64_t seed = announce_stress_seed(0x1D1E5);
  const std::size_t fds_before = apar::test::open_fd_count();
  {
    std::lock_guard lock(served_ledger().mu);
    served_ledger().served.clear();
  }

  apar::cluster::rpc::Registry registry;
  registry.bind<Ledger>("Ledger").ctor<>().method<&Ledger::serve>("serve");
  net::TcpServer::Options opts;
  opts.workers = 2;  // fewer threads than clients
  opts.reactor.idle_timeout = std::chrono::milliseconds(20);
  net::TcpServer server(registry, opts);

  std::uint64_t oid = 0;
  {
    net::TcpMiddleware::Options mw;
    mw.endpoints = {{"127.0.0.1", server.port()}};
    net::TcpMiddleware middleware(mw);
    oid = middleware.create(0, "Ledger", as::encode(as::Format::kCompact))
              .object;
  }

  // Naps and handler delays both reach past the 20 ms idle timeout.
  constexpr int kClients = 6;
  constexpr long long kRequests = 30;
  std::atomic<int> redials{0};
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        failures[c] = run_napping_client(seed, c, server.port(), oid,
                                         kRequests, /*max_nap_ms=*/40,
                                         /*max_delay_us=*/30000, redials);
      } catch (const std::exception& e) {
        failures[c] = "client " + std::to_string(c) + ": " + e.what();
      }
    });
  }
  for (auto& t : clients) t.join();
  server.stop();

  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
  {
    std::lock_guard lock(served_ledger().mu);
    const auto& served = served_ledger().served;
    EXPECT_EQ(served.size(), static_cast<std::size_t>(kClients * kRequests));
    for (const auto& [key, count] : served)
      EXPECT_EQ(count, 1) << "client " << key.first << " request "
                          << key.second << " served " << count << " times";
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.frames_out, stats.frames_in)
      << "a request was read but never answered";
  EXPECT_GE(stats.idle_closed, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  std::printf("[ STRESS  ] idle closes %llu, client redials %d\n",
              static_cast<unsigned long long>(stats.idle_closed),
              redials.load());
  EXPECT_EQ(apar::test::open_fd_count(), fds_before)
      << "descriptors left open after stop()";
}

TEST(StressReactor, KeptAndHandedBackConnectionsMix) {
  APAR_REQUIRE_LOOPBACK();
  const std::uint64_t seed = announce_stress_seed(0x4EE9);
  const std::size_t fds_before = apar::test::open_fd_count();

  apar::cluster::rpc::Registry registry;
  registry.bind<Echo>("Echo").ctor<>().method<&Echo::reply>("reply");
  net::TcpServer::Options opts;
  opts.workers = 3;  // far fewer threads than clients
  net::TcpServer server(registry, opts);

  std::uint64_t oid = 0;
  {
    net::TcpMiddleware::Options mw;
    mw.endpoints = {{"127.0.0.1", server.port()}};
    net::TcpMiddleware middleware(mw);
    oid = middleware.create(0, "Echo", as::encode(as::Format::kCompact))
              .object;
  }
  const auto frames_before = server.stats().frames_in;

  constexpr int kClients = 12;
  constexpr std::size_t kRequests = 200;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        failures[c] =
            run_pausing_client(seed, c, server.port(), oid, kRequests);
      } catch (const std::exception& e) {
        failures[c] = "client " + std::to_string(c) + ": " + e.what();
      }
    });
  }
  for (auto& t : clients) t.join();

  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
  const auto stats = server.stats();
  EXPECT_EQ(stats.frames_in - frames_before, kClients * kRequests);
  EXPECT_EQ(stats.frames_out, stats.frames_in);
  EXPECT_EQ(stats.protocol_errors, 0u);

  server.stop();
  EXPECT_EQ(apar::test::open_fd_count(), fds_before)
      << "descriptors left open after stop()";
}
