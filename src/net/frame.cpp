#include "apar/net/frame.hpp"

#include "apar/net/error.hpp"

namespace apar::net {

namespace {

void put_le(std::byte* out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i)
    out[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
}

std::uint64_t get_le(const std::byte* in, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i)
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(in[i]))
         << (8 * i);
  return v;
}

}  // namespace

std::array<std::byte, FrameHeader::kSize> encode_header(
    const FrameHeader& header) {
  std::array<std::byte, FrameHeader::kSize> out{};
  put_le(out.data() + 0, FrameHeader::kMagic, 2);
  out[2] = static_cast<std::byte>(FrameHeader::kProtocolVersion);
  out[3] = static_cast<std::byte>(static_cast<std::uint8_t>(header.format));
  out[4] = static_cast<std::byte>(static_cast<std::uint8_t>(header.op));
  out[5] = static_cast<std::byte>(header.flags);
  put_le(out.data() + 6, header.payload_len, 4);
  put_le(out.data() + 10, header.request_id, 8);
  return out;
}

FrameHeader decode_header(const std::byte* data, std::size_t size) {
  if (size < FrameHeader::kSize)
    throw NetError(NetError::Kind::kProtocol,
                   "frame header truncated: " + std::to_string(size) +
                       " of " + std::to_string(FrameHeader::kSize) + " bytes");
  const auto magic = static_cast<std::uint16_t>(get_le(data + 0, 2));
  if (magic != FrameHeader::kMagic)
    throw NetError(NetError::Kind::kProtocol,
                   "bad frame magic 0x" + std::to_string(magic));
  const auto version = std::to_integer<std::uint8_t>(data[2]);
  if (version != FrameHeader::kProtocolVersion)
    throw NetError(NetError::Kind::kProtocol,
                   "unsupported protocol version " + std::to_string(version));

  FrameHeader header;
  const auto format = std::to_integer<std::uint8_t>(data[3]);
  switch (format) {
    case static_cast<std::uint8_t>(serial::Format::kCompact):
      header.format = serial::Format::kCompact;
      break;
    case static_cast<std::uint8_t>(serial::Format::kVerbose):
      header.format = serial::Format::kVerbose;
      break;
    default:
      throw NetError(NetError::Kind::kProtocol,
                     "unknown wire format " + std::to_string(format));
  }
  const auto op = std::to_integer<std::uint8_t>(data[4]);
  if (op < static_cast<std::uint8_t>(FrameHeader::Op::kCreate) ||
      op > static_cast<std::uint8_t>(FrameHeader::Op::kTelemetry))
    throw NetError(NetError::Kind::kProtocol,
                   "unknown frame op " + std::to_string(op));
  header.op = static_cast<FrameHeader::Op>(op);
  header.flags = std::to_integer<std::uint8_t>(data[5]);
  if ((header.flags & ~FrameHeader::kFlagTraceContext) != 0)
    throw NetError(NetError::Kind::kProtocol,
                   "nonzero reserved flags " + std::to_string(header.flags));
  header.payload_len = static_cast<std::uint32_t>(get_le(data + 6, 4));
  check_payload_size(header.payload_len, "payload");
  header.request_id = get_le(data + 10, 8);
  return header;
}

void check_payload_size(std::size_t size, std::string_view what) {
  if (size > FrameHeader::kMaxPayload)
    throw NetError(NetError::Kind::kProtocol,
                   std::string(what) + " of " + std::to_string(size) +
                       " bytes exceeds the frame limit of " +
                       std::to_string(FrameHeader::kMaxPayload) + " bytes");
}

std::string_view op_name(FrameHeader::Op op) {
  switch (op) {
    case FrameHeader::Op::kCreate: return "create";
    case FrameHeader::Op::kCall: return "call";
    case FrameHeader::Op::kOneWay: return "one_way";
    case FrameHeader::Op::kLookup: return "lookup";
    case FrameHeader::Op::kBind: return "bind";
    case FrameHeader::Op::kReplyOk: return "reply_ok";
    case FrameHeader::Op::kReplyError: return "reply_error";
    case FrameHeader::Op::kTelemetry: return "telemetry";
  }
  return "unknown";
}

void append_trace_context(std::vector<std::byte>& payload,
                          const obs::TraceContext& ctx) {
  put_u64(payload, ctx.trace_id);
  put_u64(payload, ctx.span_id);
}

obs::TraceContext read_trace_context(const std::byte* payload,
                                     std::size_t size) {
  if (size < FrameHeader::kTraceContextSize)
    throw NetError(NetError::Kind::kProtocol,
                   "flagged payload too short for trace trailer: " +
                       std::to_string(size) + " bytes");
  const std::byte* trailer = payload + size - FrameHeader::kTraceContextSize;
  obs::TraceContext ctx;
  ctx.trace_id = get_le(trailer, 8);
  ctx.span_id = get_le(trailer + 8, 8);
  return ctx;
}

void put_u16(std::vector<std::byte>& out, std::uint16_t v) {
  const std::size_t at = out.size();
  out.resize(at + 2);
  put_le(out.data() + at, v, 2);
}

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  const std::size_t at = out.size();
  out.resize(at + 4);
  put_le(out.data() + at, v, 4);
}

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  const std::size_t at = out.size();
  out.resize(at + 8);
  put_le(out.data() + at, v, 8);
}

void put_string(std::vector<std::byte>& out, std::string_view s) {
  if (s.size() > 0xffff)
    throw NetError(NetError::Kind::kProtocol,
                   "envelope string too long: " + std::to_string(s.size()));
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  const std::size_t at = out.size();
  out.resize(at + s.size());
  for (std::size_t i = 0; i < s.size(); ++i)
    out[at + i] = static_cast<std::byte>(s[i]);
}

void EnvelopeReader::need(std::size_t n) const {
  if (size_ - pos_ < n)
    throw NetError(NetError::Kind::kProtocol,
                   "envelope truncated: need " + std::to_string(n) +
                       " bytes, have " + std::to_string(size_ - pos_));
}

std::uint8_t EnvelopeReader::u8() {
  need(1);
  const auto v = std::to_integer<std::uint8_t>(data_[pos_]);
  pos_ += 1;
  return v;
}

std::uint16_t EnvelopeReader::u16() {
  need(2);
  const auto v = static_cast<std::uint16_t>(get_le(data_ + pos_, 2));
  pos_ += 2;
  return v;
}

std::uint32_t EnvelopeReader::u32() {
  need(4);
  const auto v = static_cast<std::uint32_t>(get_le(data_ + pos_, 4));
  pos_ += 4;
  return v;
}

std::uint64_t EnvelopeReader::u64() {
  need(8);
  const auto v = get_le(data_ + pos_, 8);
  pos_ += 8;
  return v;
}

std::string EnvelopeReader::string() {
  const std::uint16_t n = u16();
  need(n);
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i)
    s[i] = static_cast<char>(std::to_integer<std::uint8_t>(data_[pos_ + i]));
  pos_ += n;
  return s;
}

}  // namespace apar::net
