// Seeded reactor stress: pipelining clients against a reactor server whose
// replies race between the pool workers that write them directly and the
// loop that finishes partial writes and parked replies. Handler delays come
// from the seed, a small send buffer forces partial worker writes, tight
// caps force pauses with frames staged, and some clients disconnect
// mid-pipeline. Every surviving connection must get each reply exactly
// once and in request order, frames_out must never pass frames_in, and
// stop() must give back every descriptor the server opened.
#include <gtest/gtest.h>

#include <poll.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "../net/net_fixtures.hpp"
#include "apar/common/stress.hpp"
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

std::vector<std::byte> request_frame(std::uint64_t request_id,
                                     std::uint64_t oid, const Request& r) {
  std::vector<std::byte> payload;
  net::put_u64(payload, oid);
  net::put_string(payload, "reply");
  const auto args =
      as::encode(as::Format::kCompact, r.bytes, r.fill, r.delay_us);
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

/// One pipelining client: keeps up to `window` requests outstanding and
/// checks every reply against its request. Window 1 is a closed loop, whose
/// replies workers write themselves; wider windows put replies behind
/// partial writes, and handler delays complete them out of order. A
/// window past the server's max_inflight pauses reads with frames staged.
/// A quitter closes its socket with requests in flight after `quit_after`
/// replies. Returns a failure description, or an empty string.
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

}  // namespace

TEST(StressReactor, PipelinedRepliesStayOrderedAcrossWorkerAndLoopWrites) {
  APAR_REQUIRE_LOOPBACK();
  const std::uint64_t seed = announce_stress_seed(0x5EAC7);
  const std::size_t fds_before = apar::test::open_fd_count();

  apar::cluster::rpc::Registry registry;
  registry.bind<Echo>("Echo").ctor<>().method<&Echo::reply>("reply");
  net::TcpServer::Options opts;
  opts.mode = net::TcpServer::Mode::kReactor;
  opts.workers = 4;
  opts.reactor.sndbuf_bytes = 4 * 1024;  // partial worker writes
  opts.reactor.max_inflight = 8;          // the widest window pauses
  opts.reactor.max_outbound_bytes = 256 * 1024;
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
