// loadgen — latency/throughput harness for the TCP transport.
//
// Drives a running TcpServer (any server speaking the frame protocol;
// examples/sieve_server is the usual target) with N concurrent
// raw-socket clients and reports HDR-style percentiles plus throughput.
// Two load models:
//
//   --mode closed   each client keeps exactly one request in flight and
//                   issues --requests of them after --warmup unrecorded
//                   ones. Measures the transport's best-case service
//                   latency and its saturation throughput.
//   --mode open     requests are scheduled at a fixed aggregate --rate
//                   (requests/second across all clients) for
//                   --measure-seconds, after --warmup-seconds unrecorded.
//                   Latency is measured from the request's INTENDED send
//                   time, so a stalled server inflates the percentiles
//                   instead of silently slowing the generator down
//                   (coordinated-omission corrected). This is the honest
//                   load model for "how does p99 behave at 4x the
//                   connections" questions. Slots still unsent when the
//                   window closes count as errors. Two diagnostics say
//                   who missed them: lag_max_us (the largest send time
//                   minus intended time) and missed_after_reply (those
//                   window-end errors that fell due while the client held
//                   its latest reply instead of waiting on the server, so
//                   the generator, not the server, missed them).
//
// Options: --port P [--host H] [--mode closed|open] [--clients N]
//          [--requests N] [--warmup N] [--rate R] [--measure-seconds S]
//          [--warmup-seconds S] [--op lookup|telemetry] [--timeout-ms T]
//          [--label NAME] [--dump PATH]
//
// --dump writes one JSON object (consumed by tools/run_bench.py --net and
// validated by tools/check_net_bench.py); without it a human summary goes
// to stdout. Exit status 0 on success, 2 when the target is unreachable.
#include <algorithm>
#include <atomic>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "apar/common/config.hpp"
#include "apar/net/error.hpp"
#include "apar/net/frame.hpp"
#include "apar/net/socket.hpp"

namespace ac = apar::common;
namespace net = apar::net;

namespace {

using Clock = std::chrono::steady_clock;

/// HDR-style log-linear latency histogram over nanoseconds: each power of
/// two is split into 32 sub-buckets, so any recorded value is off by at
/// most ~3% while the whole 1ns..584y range fits in a few KiB. Unlike a
/// raw sample vector this merges in O(buckets) and never allocates on the
/// hot path.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 5;  // 32 sub-buckets per octave
  static constexpr std::size_t kBuckets = 64 << kSubBits;

  void record(std::uint64_t ns) {
    ++buckets_[index_of(ns)];
    ++count_;
    sum_ns_ += static_cast<double>(ns);
    if (ns > max_ns_) max_ns_ = ns;
  }

  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ns_ += other.sum_ns_;
    if (other.max_ns_ > max_ns_) max_ns_ = other.max_ns_;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double max_us() const {
    return static_cast<double>(max_ns_) / 1000.0;
  }
  [[nodiscard]] double mean_us() const {
    return count_ == 0 ? 0.0 : sum_ns_ / static_cast<double>(count_) / 1000.0;
  }

  /// Value (µs) at quantile q in [0,1]: midpoint of the bucket where the
  /// cumulative count crosses q*count.
  [[nodiscard]] double percentile_us(double q) const {
    if (count_ == 0) return 0.0;
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(count_) + 0.5);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= target && buckets_[i] > 0) return midpoint_us(i);
    }
    return static_cast<double>(max_ns_) / 1000.0;
  }

 private:
  static std::size_t index_of(std::uint64_t ns) {
    constexpr std::uint64_t kSub = 1u << kSubBits;
    if (ns < kSub) return static_cast<std::size_t>(ns);  // linear head
    const int msb = 63 - __builtin_clzll(ns);
    const int shift = msb - kSubBits;
    const auto sub = static_cast<std::size_t>(ns >> shift);  // [32, 64)
    return static_cast<std::size_t>(shift) * (kSub * 2) + sub;
  }

  static double midpoint_us(std::size_t index) {
    constexpr std::uint64_t kSub = 1u << kSubBits;
    if (index < kSub) return static_cast<double>(index) / 1000.0;
    const auto shift = index / (kSub * 2);
    const auto sub = index % (kSub * 2);
    const double lo = static_cast<double>(sub << shift);
    const double hi = static_cast<double>((sub + 1) << shift);
    return (lo + hi) / 2.0 / 1000.0;
  }

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t max_ns_ = 0;
  double sum_ns_ = 0.0;
};

struct Settings {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string mode = "closed";
  std::string op = "lookup";
  std::string label;
  int clients = 8;
  int requests = 1000;       // per client, closed loop
  int warmup = 100;          // per client, closed loop
  double rate = 2000.0;      // aggregate requests/s, open loop
  double measure_seconds = 5.0;
  double warmup_seconds = 1.0;
  int timeout_ms = 2000;
};

struct WorkerResult {
  LatencyHistogram hist;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  // Open loop only: see the file comment.
  Clock::duration lag_max{};
  std::uint64_t missed_after_reply = 0;
};

std::vector<std::byte> build_request(const Settings& s,
                                     std::uint64_t request_id) {
  net::FrameHeader header;
  header.request_id = request_id;
  std::vector<std::byte> payload;
  if (s.op == "telemetry") {
    header.op = net::FrameHeader::Op::kTelemetry;
    payload.push_back(std::byte{0});
  } else {
    // A lookup for an unbound name: the smallest useful RPC — it crosses
    // the full dispatch path (envelope decode, name-server lock, reply
    // encode) without mutating server state or needing an object.
    header.op = net::FrameHeader::Op::kLookup;
    net::put_string(payload, "loadgen-probe");
  }
  header.payload_len = static_cast<std::uint32_t>(payload.size());
  const auto bytes = net::encode_header(header);
  std::vector<std::byte> frame(bytes.begin(), bytes.end());
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

/// One request/reply on an established connection. Returns false on any
/// transport error (timeout, close, protocol) or when the reply does not
/// correlate to this request. After a failure the stream may hold a late
/// reply for an abandoned request, so the CALLER must reconnect — reading
/// on would silently pair request N with reply N-1.
bool exchange_once(net::Socket& socket, const std::vector<std::byte>& frame,
                   std::uint64_t request_id, std::chrono::milliseconds timeout) {
  try {
    const net::Deadline deadline = net::deadline_after(timeout);
    net::send_all(socket, frame.data(), frame.size(), deadline);
    std::array<std::byte, net::FrameHeader::kSize> head;
    net::recv_exact(socket, head.data(), head.size(), deadline);
    const net::FrameHeader reply = net::decode_header(head.data(), head.size());
    std::vector<std::byte> payload(reply.payload_len);
    if (reply.payload_len > 0)
      net::recv_exact(socket, payload.data(), payload.size(), deadline);
    return reply.op == net::FrameHeader::Op::kReplyOk &&
           reply.request_id == request_id;
  } catch (const net::NetError&) {
    return false;
  }
}

/// Reconnect after a failed exchange; returns an invalid socket when the
/// dial itself fails (the caller keeps counting errors and retrying).
net::Socket redial(const Settings& s) {
  try {
    return net::dial({s.host, s.port},
                     net::deadline_after(std::chrono::milliseconds(2000)));
  } catch (const net::NetError&) {
    return net::Socket{};
  }
}

void run_closed(const Settings& s, int client_id, WorkerResult& out) {
  net::Socket socket;
  try {
    socket = net::dial({s.host, s.port},
                       net::deadline_after(std::chrono::milliseconds(5000)));
  } catch (const net::NetError&) {
    out.errors += static_cast<std::uint64_t>(s.requests);
    return;
  }
  const std::chrono::milliseconds timeout(s.timeout_ms);
  std::uint64_t request_id =
      static_cast<std::uint64_t>(client_id) * 1000000 + 1;
  for (int i = 0; i < s.warmup + s.requests; ++i) {
    const std::uint64_t id = request_id++;
    const auto frame = build_request(s, id);
    const auto t0 = Clock::now();
    const bool ok =
        socket.valid() && exchange_once(socket, frame, id, timeout);
    if (!ok) socket = redial(s);  // failed stream cannot be trusted
    if (i < s.warmup) continue;
    ++out.sent;
    ok ? ++out.ok : ++out.errors;
    out.hist.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count()));
  }
}

void run_open(const Settings& s, int client_id, Clock::time_point start,
              WorkerResult& out) {
  net::Socket socket;
  try {
    socket = net::dial({s.host, s.port},
                       net::deadline_after(std::chrono::milliseconds(5000)));
  } catch (const net::NetError&) {
    ++out.errors;
    return;
  }
  const std::chrono::milliseconds timeout(s.timeout_ms);
  const auto interval = std::chrono::nanoseconds(static_cast<std::int64_t>(
      1e9 * static_cast<double>(s.clients) / s.rate));
  const auto measure_from =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(s.warmup_seconds));
  const auto end =
      measure_from + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(s.measure_seconds));
  // Stagger clients across one interval so the aggregate arrivals are
  // evenly spaced, not N-at-a-time bursts.
  auto intended = start + interval * client_id / s.clients;
  std::uint64_t request_id =
      static_cast<std::uint64_t>(client_id) * 1000000 + 1;

  // The last exchange: from its send until it returned (reply or
  // failure) the client waited on the server, and at any other time on
  // nobody but itself.
  auto last_sent = start;
  auto last_reply = start;
  while (intended < end) {
    if (Clock::now() >= end) break;  // backlogged past the window: stop
    std::this_thread::sleep_until(intended);  // no-op once we fall behind
    const std::uint64_t id = request_id++;
    const auto frame = build_request(s, id);
    const auto sent_at = Clock::now();
    const bool ok =
        socket.valid() && exchange_once(socket, frame, id, timeout);
    if (!ok) socket = redial(s);  // failed stream cannot be trusted
    const auto now = Clock::now();
    last_sent = sent_at;
    last_reply = now;
    if (intended >= measure_from) {
      ++out.sent;
      ok ? ++out.ok : ++out.errors;
      out.lag_max = std::max(out.lag_max, sent_at - intended);
      // Latency from the INTENDED send time: queueing delay caused by a
      // slow server counts against it, not for it.
      out.hist.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - intended)
              .count()));
    }
    intended += interval;
  }
  // Requests whose slot passed while we were stuck never got issued;
  // coordinated-omission accounting charges them as failures lasting
  // until the window closed.
  for (; intended < end; intended += interval) {
    if (intended < measure_from) continue;
    ++out.sent;
    ++out.errors;
    // Only the last exchange can overlap these slots. One that fell due
    // outside it found the client holding its latest reply.
    if (intended < last_sent || intended >= last_reply)
      ++out.missed_after_reply;
    out.hist.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - intended)
            .count()));
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

double lag_max_us(const WorkerResult& r) {
  return std::chrono::duration<double, std::micro>(r.lag_max).count();
}

std::string to_json(const Settings& s, const WorkerResult& total,
                    double elapsed_s) {
  const double throughput =
      elapsed_s > 0.0 ? static_cast<double>(total.ok) / elapsed_s : 0.0;
  char open_fields[128] = "";
  if (s.mode == "open")
    std::snprintf(open_fields, sizeof(open_fields),
                  ",\"lag_max_us\":%.1f,\"missed_after_reply\":%llu",
                  lag_max_us(total),
                  static_cast<unsigned long long>(total.missed_after_reply));
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"label\":\"%s\",\"mode\":\"%s\",\"op\":\"%s\",\"clients\":%d,"
      "\"requests\":%llu,\"ok\":%llu,\"errors\":%llu,"
      "\"elapsed_s\":%.3f,\"throughput_rps\":%.1f%s,"
      "\"latency_us\":{\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f,"
      "\"p999\":%.1f,\"max\":%.1f,\"mean\":%.1f}}",
      json_escape(s.label.empty() ? s.mode : s.label).c_str(), s.mode.c_str(),
      s.op.c_str(), s.clients,
      static_cast<unsigned long long>(total.sent),
      static_cast<unsigned long long>(total.ok),
      static_cast<unsigned long long>(total.errors), elapsed_s, throughput,
      open_fields, total.hist.percentile_us(0.50),
      total.hist.percentile_us(0.95), total.hist.percentile_us(0.99),
      total.hist.percentile_us(0.999), total.hist.max_us(),
      total.hist.mean_us());
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const ac::Config cli(argc, argv);
  Settings s;
  s.host = cli.get("host", s.host);
  s.port = static_cast<std::uint16_t>(cli.get_int("port", 0));
  s.mode = cli.get("mode", s.mode);
  s.op = cli.get("op", s.op);
  s.label = cli.get("label", "");
  s.clients = cli.get_int("clients", s.clients);
  s.requests = cli.get_int("requests", s.requests);
  s.warmup = cli.get_int("warmup", s.warmup);
  s.rate = cli.get_double("rate", s.rate);
  s.measure_seconds = cli.get_double("measure-seconds", s.measure_seconds);
  s.warmup_seconds = cli.get_double("warmup-seconds", s.warmup_seconds);
  s.timeout_ms = cli.get_int("timeout-ms", s.timeout_ms);
  const std::string dump = cli.get("dump", "");

  if (s.port == 0) {
    std::fprintf(stderr, "loadgen: --port is required\n");
    return 2;
  }
  if (s.mode != "closed" && s.mode != "open") {
    std::fprintf(stderr, "loadgen: unknown --mode %s\n", s.mode.c_str());
    return 2;
  }
  if (!net::loopback_available() && s.host == "127.0.0.1") {
    std::fprintf(stderr, "loadgen: loopback TCP unavailable here\n");
    return 2;
  }

  std::vector<WorkerResult> results(static_cast<std::size_t>(s.clients));
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (int c = 0; c < s.clients; ++c) {
    threads.emplace_back([&, c] {
      if (s.mode == "closed")
        run_closed(s, c, results[static_cast<std::size_t>(c)]);
      else
        run_open(s, c, start, results[static_cast<std::size_t>(c)]);
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count() -
      (s.mode == "open" ? s.warmup_seconds : 0.0);

  WorkerResult total;
  for (const auto& r : results) {
    total.hist.merge(r.hist);
    total.sent += r.sent;
    total.ok += r.ok;
    total.errors += r.errors;
    total.lag_max = std::max(total.lag_max, r.lag_max);
    total.missed_after_reply += r.missed_after_reply;
  }

  const std::string json = to_json(s, total, elapsed_s);
  if (!dump.empty()) {
    std::ofstream out(dump);
    out << json << "\n";
    if (!out) {
      std::fprintf(stderr, "loadgen: cannot write %s\n", dump.c_str());
      return 2;
    }
  }
  std::printf(
      "loadgen %s/%s: %d clients, %llu requests (%llu ok, %llu errors) in "
      "%.2fs -> %.0f req/s\n"
      "  latency p50 %.1fus  p95 %.1fus  p99 %.1fus  p99.9 %.1fus  "
      "max %.1fus\n",
      s.mode.c_str(), s.op.c_str(), s.clients,
      static_cast<unsigned long long>(total.sent),
      static_cast<unsigned long long>(total.ok),
      static_cast<unsigned long long>(total.errors), elapsed_s,
      elapsed_s > 0.0 ? static_cast<double>(total.ok) / elapsed_s : 0.0,
      total.hist.percentile_us(0.50), total.hist.percentile_us(0.95),
      total.hist.percentile_us(0.99), total.hist.percentile_us(0.999),
      total.hist.max_us());
  if (s.mode == "open")
    std::printf("  generator lag max %.1fus, %llu missed after the reply\n",
                lag_max_us(total),
                static_cast<unsigned long long>(total.missed_after_reply));
  // A run where nothing succeeded is a failed run, not a datapoint.
  return total.ok > 0 ? 0 : 1;
}
