// What the server promises every client: a reply is counted before the
// client can see it, and a frame's announced length commits no memory
// before its bytes arrive.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "apar/serial/archive.hpp"
#include "net_fixtures.hpp"

namespace as = apar::serial;
namespace net = apar::net;
using apar::test::TcpRig;

namespace {

/// Resident set size of this process, from /proc/self/status.
std::size_t rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0)
      return std::stoull(line.substr(6)) * 1024;  // reported in kB
  }
  return 0;
}

}  // namespace

TEST(ServerModes, RepliesAreCountedBeforeTheyLeave) {
  APAR_REQUIRE_LOOPBACK();
  TcpRig rig(as::Format::kCompact);
  auto& mw = *rig.middleware;
  const auto handle =
      mw.create(0, "Counter", as::encode(mw.wire_format(), 0LL));

  for (std::uint64_t i = 1; i <= 300; ++i) {
    mw.invoke(handle, "add", as::encode(mw.wire_format(), 1LL));
    // The reply is in hand, so the server must already have counted it.
    const auto stats = rig.server->stats();
    ASSERT_EQ(stats.frames_out, i + 1) << "after reply " << i;
    ASSERT_EQ(stats.frames_in, i + 1);
  }
}

TEST(ServerModes, HostileFrameLengthCommitsNoPayloadMemory) {
  APAR_REQUIRE_LOOPBACK();
  TcpRig rig(as::Format::kCompact);
  const std::size_t before = rss_bytes();

  // Each connection announces the largest payload the protocol allows,
  // then sends nothing more.
  net::FrameHeader header;
  header.op = net::FrameHeader::Op::kCall;
  header.payload_len = net::FrameHeader::kMaxPayload;
  const auto bytes = net::encode_header(header);
  const auto deadline = net::deadline_after(std::chrono::milliseconds(2000));
  std::vector<net::Socket> sockets;
  for (int i = 0; i < 8; ++i) {
    sockets.push_back(
        net::dial({"127.0.0.1", rig.server->port()}, deadline));
    net::send_all(sockets.back(), bytes.data(), bytes.size(), deadline);
  }
  // Time for the server to decode every header.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  const std::size_t after = rss_bytes();
  const std::size_t grown = after > before ? after - before : 0;
  EXPECT_LT(grown, std::size_t{64} << 20)
      << "RSS grew by " << (grown >> 20) << " MiB for 8 stalled headers";
}
