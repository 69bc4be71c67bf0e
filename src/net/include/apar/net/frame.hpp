#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "apar/obs/trace_context.hpp"
#include "apar/serial/archive.hpp"

namespace apar::net {

/// Length-prefixed wire framing for the TCP transport.
///
/// Every message is one frame: an 18-byte fixed header followed by
/// `payload_len` payload bytes. All header integers are little-endian and
/// written byte-by-byte (never memcpy'd from host structs), so the frame
/// bytes are identical on every platform — tests/net/test_frame.cpp pins
/// them as golden vectors.
///
///   offset  size  field
///   ------  ----  -----------------------------------------------
///        0     2  magic 0x5041 ("AP" when read as LE u16)
///        2     1  protocol version (kProtocolVersion)
///        3     1  serial::Format of the payload (0 compact, 1 verbose)
///        4     1  Op
///        5     1  flags (bit 0 = kFlagTraceContext; other bits reserved,
///                 must be 0)
///        6     4  payload length in bytes (u32 LE)
///       10     8  request id (u64 LE) — echoed verbatim in the reply
///
/// When kFlagTraceContext is set, the LAST kTraceContextSize bytes of the
/// payload are a trace-context trailer: trace_id (u64 LE) then span_id
/// (u64 LE) of the caller's wire span, letting server-side spans join the
/// caller's trace. The trailer sits AFTER the envelope + argument bytes
/// (and inside payload_len), so a legacy peer that never sets the flag
/// produces byte-identical frames to protocol version 1 before this bit
/// existed — unflagged peers keep working, both directions.
///
/// The payload of request ops starts with a fixed *envelope* (object ids
/// and method/class names, encoded with the explicit LE helpers below,
/// independent of the serial format) followed by the serial-encoded
/// argument bytes in the header's declared format. Keeping the envelope
/// out of serial::Writer means the server can route a frame without
/// knowing how to decode its arguments.
struct FrameHeader {
  static constexpr std::uint16_t kMagic = 0x5041;  // "AP" little-endian
  static constexpr std::uint8_t kProtocolVersion = 1;
  static constexpr std::size_t kSize = 18;
  /// Upper bound on payload_len; a peer announcing more is treated as a
  /// protocol error rather than an allocation request.
  static constexpr std::uint32_t kMaxPayload = 64u * 1024u * 1024u;

  enum class Op : std::uint8_t {
    kCreate = 1,      ///< construct a registered class on the server
    kCall = 2,        ///< synchronous method invocation
    kOneWay = 3,      ///< method invocation answered by an empty ack
    kLookup = 4,      ///< name-server lookup
    kBind = 5,        ///< name-server bind
    kReplyOk = 6,     ///< success reply; payload depends on the request op
    kReplyError = 7,  ///< failure reply; payload is the UTF-8 error message
    kTelemetry = 8,   ///< node telemetry: metrics JSON + tagged trace flush
  };

  /// flags bit 0: payload carries the trace-context trailer (see above).
  static constexpr std::uint8_t kFlagTraceContext = 0x01;
  /// Trailer size when kFlagTraceContext is set: trace_id + span_id.
  static constexpr std::size_t kTraceContextSize = 16;

  serial::Format format = serial::Format::kCompact;
  Op op = Op::kCall;
  std::uint8_t flags = 0;
  std::uint32_t payload_len = 0;
  std::uint64_t request_id = 0;
};

/// One whole frame: a server handler's reply, or the reply a client's
/// exchange received. A sender sets header.payload_len from payload.
struct Frame {
  FrameHeader header;
  std::vector<std::byte> payload;
};

/// Throws NetError{kProtocol} naming `what`, `size` and the limit when
/// `size` is above FrameHeader::kMaxPayload. Senders check before the
/// first byte leaves: the peer would reject such a header, and past 4 GiB
/// payload_len would wrap.
void check_payload_size(std::size_t size, std::string_view what);

/// Payload bytes a receiver sets aside when a header announces a frame. A
/// frame up to this size is received into one allocation; a larger one
/// grows with its bytes, so a header announcing kMaxPayload and then
/// stalling costs the server this much at most, not 64 MiB.
inline constexpr std::size_t kPayloadReserve = std::size_t{1} << 20;

/// Size of the next receive into a payload of `total` bytes of which
/// `received` have arrived: the rest of it, but no more than what has
/// already arrived (or kPayloadReserve, if more), so the memory a receiver
/// commits grows no faster than the bytes that fill it.
[[nodiscard]] constexpr std::size_t payload_chunk(std::size_t received,
                                                  std::size_t total) {
  const std::size_t cap = received > kPayloadReserve ? received
                                                     : kPayloadReserve;
  return total - received < cap ? total - received : cap;
}

/// Render a header into its canonical 18 bytes.
std::array<std::byte, FrameHeader::kSize> encode_header(
    const FrameHeader& header);

/// Parse and validate 18 header bytes. Throws NetError{kProtocol} on bad
/// magic, unsupported version, unknown op/format, any reserved flag bit
/// (only kFlagTraceContext is defined), or a payload length above
/// kMaxPayload.
FrameHeader decode_header(const std::byte* data, std::size_t size);

/// Short stable op name ("call", "lookup", ...) for span names and logs.
[[nodiscard]] std::string_view op_name(FrameHeader::Op op);

/// Append the kTraceContextSize-byte trace trailer (trace_id then span_id,
/// u64 LE each) to a request payload; the sender must also set
/// FrameHeader::kFlagTraceContext.
void append_trace_context(std::vector<std::byte>& payload,
                          const obs::TraceContext& ctx);

/// Read the trailer of a flagged payload. Returns the sender's context
/// ({trace_id, span_id, 0}) — pass it to obs::SpanScope to open a child
/// span. Throws NetError{kProtocol} when the payload is too short to hold
/// the trailer.
[[nodiscard]] obs::TraceContext read_trace_context(const std::byte* payload,
                                                   std::size_t size);

// --- envelope helpers -----------------------------------------------------
// Explicit little-endian scalars and u16-length-prefixed strings used for
// the request envelopes, independent of serial::Format.

void put_u16(std::vector<std::byte>& out, std::uint16_t v);
void put_u32(std::vector<std::byte>& out, std::uint32_t v);
void put_u64(std::vector<std::byte>& out, std::uint64_t v);
void put_string(std::vector<std::byte>& out, std::string_view s);

/// Sequential envelope reader over a payload. Throws NetError{kProtocol}
/// when a read runs past the end.
class EnvelopeReader {
 public:
  EnvelopeReader(const std::byte* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit EnvelopeReader(const std::vector<std::byte>& buf)
      : EnvelopeReader(buf.data(), buf.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::string string();

  /// Pointer/size of the unread tail (the serial-encoded argument bytes).
  [[nodiscard]] const std::byte* rest_data() const { return data_ + pos_; }
  [[nodiscard]] std::size_t rest_size() const { return size_ - pos_; }

 private:
  void need(std::size_t n) const;

  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace apar::net
