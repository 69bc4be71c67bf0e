// Frame codec: golden byte layouts (pinned so the wire format cannot
// drift silently), rejection of corrupt/truncated headers, and envelope
// round-trips. No sockets involved.
#include <gtest/gtest.h>

#include <vector>

#include "apar/net/error.hpp"
#include "apar/net/frame.hpp"

namespace net = apar::net;
namespace serial = apar::serial;
using net::FrameHeader;

namespace {

std::vector<std::byte> bytes_of(const std::array<std::byte, 18>& a) {
  return {a.begin(), a.end()};
}

std::vector<std::byte> golden(std::initializer_list<unsigned> values) {
  std::vector<std::byte> out;
  for (unsigned v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

}  // namespace

TEST(Frame, GoldenHeaderCompact) {
  FrameHeader h;
  h.format = serial::Format::kCompact;
  h.op = FrameHeader::Op::kCall;
  h.payload_len = 0x0102;
  h.request_id = 0x1122334455667788ULL;
  // magic "AP" LE, version 1, format 0, op 2, flags 0, len LE, id LE.
  EXPECT_EQ(bytes_of(net::encode_header(h)),
            golden({0x41, 0x50, 0x01, 0x00, 0x02, 0x00,
                    0x02, 0x01, 0x00, 0x00,
                    0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11}));
}

TEST(Frame, GoldenHeaderVerbose) {
  FrameHeader h;
  h.format = serial::Format::kVerbose;
  h.op = FrameHeader::Op::kLookup;
  h.payload_len = 7;
  h.request_id = 1;
  EXPECT_EQ(bytes_of(net::encode_header(h)),
            golden({0x41, 0x50, 0x01, 0x01, 0x04, 0x00,
                    0x07, 0x00, 0x00, 0x00,
                    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}));
}

TEST(Frame, HeaderRoundTripsAllOps) {
  for (auto op : {FrameHeader::Op::kCreate, FrameHeader::Op::kCall,
                  FrameHeader::Op::kOneWay, FrameHeader::Op::kLookup,
                  FrameHeader::Op::kBind, FrameHeader::Op::kReplyOk,
                  FrameHeader::Op::kReplyError}) {
    for (auto format : {serial::Format::kCompact, serial::Format::kVerbose}) {
      FrameHeader h;
      h.format = format;
      h.op = op;
      h.payload_len = 12345;
      h.request_id = 987654321;
      const auto encoded = net::encode_header(h);
      const FrameHeader back =
          net::decode_header(encoded.data(), encoded.size());
      EXPECT_EQ(back.format, format);
      EXPECT_EQ(back.op, op);
      EXPECT_EQ(back.payload_len, h.payload_len);
      EXPECT_EQ(back.request_id, h.request_id);
    }
  }
}

TEST(Frame, RejectsTruncatedHeader) {
  const auto encoded = net::encode_header(FrameHeader{});
  try {
    net::decode_header(encoded.data(), 10);
    FAIL() << "expected NetError";
  } catch (const net::NetError& e) {
    EXPECT_EQ(e.kind(), net::NetError::Kind::kProtocol);
  }
}

TEST(Frame, RejectsCorruptMagicVersionOpFormatFlagsAndOversize) {
  const auto expect_protocol_error = [](std::array<std::byte, 18> bytes) {
    try {
      net::decode_header(bytes.data(), bytes.size());
      FAIL() << "expected NetError{kProtocol}";
    } catch (const net::NetError& e) {
      EXPECT_EQ(e.kind(), net::NetError::Kind::kProtocol);
    }
  };
  auto base = net::encode_header(FrameHeader{});

  auto bad = base;
  bad[0] = static_cast<std::byte>(0xde);  // magic
  expect_protocol_error(bad);

  bad = base;
  bad[2] = static_cast<std::byte>(99);  // version
  expect_protocol_error(bad);

  bad = base;
  bad[3] = static_cast<std::byte>(7);  // unknown format
  expect_protocol_error(bad);

  bad = base;
  bad[4] = static_cast<std::byte>(0);  // op below range
  expect_protocol_error(bad);

  bad = base;
  bad[5] = static_cast<std::byte>(0x02);  // reserved flags (bit 0 is taken)
  expect_protocol_error(bad);

  FrameHeader big;
  big.payload_len = FrameHeader::kMaxPayload + 1;
  expect_protocol_error(net::encode_header(big));
}

// The trace-context flag is PART of the wire format now: a flagged call
// frame must keep this exact layout (legacy header + flags bit 0 + the
// 16-byte id trailer as the LAST payload bytes) or traced and untraced
// builds stop interoperating.
TEST(Frame, GoldenHeaderWithTraceFlag) {
  FrameHeader h;
  h.format = serial::Format::kCompact;
  h.op = FrameHeader::Op::kCall;
  h.flags = FrameHeader::kFlagTraceContext;
  h.payload_len = 0x0102 + FrameHeader::kTraceContextSize;
  h.request_id = 0x1122334455667788ULL;
  EXPECT_EQ(bytes_of(net::encode_header(h)),
            golden({0x41, 0x50, 0x01, 0x00, 0x02, 0x01,
                    0x12, 0x01, 0x00, 0x00,
                    0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11}));
  const FrameHeader back = net::decode_header(net::encode_header(h).data(),
                                              FrameHeader::kSize);
  EXPECT_EQ(back.flags, FrameHeader::kFlagTraceContext);
}

TEST(Frame, GoldenTraceTrailer) {
  std::vector<std::byte> payload;
  net::put_u16(payload, 0xaabb);  // pre-existing envelope content
  apar::obs::TraceContext ctx;
  ctx.trace_id = 0x0102030405060708ULL;
  ctx.span_id = 0x1112131415161718ULL;
  net::append_trace_context(payload, ctx);
  EXPECT_EQ(payload,
            golden({0xbb, 0xaa,
                    0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
                    0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11}));

  const auto back = net::read_trace_context(payload.data(), payload.size());
  EXPECT_EQ(back.trace_id, ctx.trace_id);
  EXPECT_EQ(back.span_id, ctx.span_id);
  EXPECT_EQ(back.parent_span_id, 0u);  // the wire ships 16 bytes, not 24
}

TEST(Frame, TraceTrailerRejectsShortPayload) {
  std::vector<std::byte> payload;
  net::put_u64(payload, 1);  // 8 bytes: too short for a 16-byte trailer
  try {
    (void)net::read_trace_context(payload.data(), payload.size());
    FAIL() << "expected NetError";
  } catch (const net::NetError& e) {
    EXPECT_EQ(e.kind(), net::NetError::Kind::kProtocol);
  }
}

// An UNflagged frame is byte-identical to the pre-trace wire format —
// the golden headers above prove it (flags byte 0, no trailer). A legacy
// peer that never sets the flag therefore keeps working unchanged; this
// pins the inverse: decoding a legacy header yields flags == 0.
TEST(Frame, LegacyFramesCarryNoTraceContext) {
  FrameHeader h;
  h.op = FrameHeader::Op::kCall;
  const auto encoded = net::encode_header(h);
  const FrameHeader back = net::decode_header(encoded.data(), encoded.size());
  EXPECT_EQ(back.flags, 0);
  EXPECT_FALSE(back.flags & FrameHeader::kFlagTraceContext);
}

TEST(Frame, HeaderRoundTripsTelemetryOp) {
  FrameHeader h;
  h.op = FrameHeader::Op::kTelemetry;
  const auto encoded = net::encode_header(h);
  EXPECT_EQ(net::decode_header(encoded.data(), encoded.size()).op,
            FrameHeader::Op::kTelemetry);
  EXPECT_EQ(net::op_name(FrameHeader::Op::kTelemetry), "telemetry");
}

TEST(Frame, EnvelopeRoundTrip) {
  std::vector<std::byte> buf;
  net::put_u64(buf, 0xdeadbeefcafef00dULL);
  net::put_string(buf, "PrimeFilter.filter");
  net::put_u32(buf, 42);
  net::put_u16(buf, 7);

  net::EnvelopeReader env(buf);
  EXPECT_EQ(env.u64(), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(env.string(), "PrimeFilter.filter");
  EXPECT_EQ(env.u32(), 42u);
  EXPECT_EQ(env.u16(), 7u);
  EXPECT_EQ(env.rest_size(), 0u);
}

TEST(Frame, EnvelopeRejectsTruncation) {
  std::vector<std::byte> buf;
  net::put_string(buf, "abc");
  buf.pop_back();  // cut the last string byte
  net::EnvelopeReader env(buf);
  try {
    (void)env.string();
    FAIL() << "expected NetError";
  } catch (const net::NetError& e) {
    EXPECT_EQ(e.kind(), net::NetError::Kind::kProtocol);
  }
}

TEST(Frame, EnvelopeExposesArgumentTail) {
  std::vector<std::byte> buf;
  net::put_u64(buf, 5);
  net::put_string(buf, "m");
  const auto args = serial::encode(serial::Format::kCompact, 123LL);
  buf.insert(buf.end(), args.begin(), args.end());

  net::EnvelopeReader env(buf);
  (void)env.u64();
  (void)env.string();
  serial::Reader reader(env.rest_data(), env.rest_size(),
                        serial::Format::kCompact);
  long long v = 0;
  reader.value(v);
  EXPECT_EQ(v, 123);
}

TEST(Frame, PayloadMemoryGrowsWithArrivedBytes) {
  constexpr std::size_t kMax = net::FrameHeader::kMaxPayload;
  // A sieve-sized frame is received into one exact allocation...
  EXPECT_EQ(net::payload_chunk(0, 160'000), 160'000u);
  // ...a huge announced one commits a bounded first step, then grows no
  // faster than the bytes that have arrived.
  EXPECT_EQ(net::payload_chunk(0, kMax), net::kPayloadReserve);
  EXPECT_EQ(net::payload_chunk(net::kPayloadReserve, kMax),
            net::kPayloadReserve);
  EXPECT_EQ(net::payload_chunk(3 * net::kPayloadReserve, kMax),
            3 * net::kPayloadReserve);
  EXPECT_EQ(net::payload_chunk(kMax - 10, kMax), 10u);
  EXPECT_EQ(net::payload_chunk(kMax, kMax), 0u);
}
