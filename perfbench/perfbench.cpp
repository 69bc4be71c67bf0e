// perfbench: one measured run of one benchmark workload.
//
//   perfbench --workload rpc_small|sieve_tcp|sieve_local --seed N
//             --seconds S --trace 0|1 --server PATH --out FILE.json
//             --trace-dir DIR
//
// The workloads, their parameters and every metric are described in
// README.md next to this file. This binary measures and verifies; it
// writes one JSON document of raw measurements to --out, which run.py
// turns into the reported metrics. With --trace 1 it runs the workload
// twice, for half of S each: an untraced phase (the tracing-overhead
// baseline), then a traced phase with metrics and tracing switched on in
// every process, whose Chrome traces land in --trace-dir.
//
// Exit status: 0 when every op succeeded and every answer was right, 1
// when any op failed or answered wrong, 2 on bad arguments or a failed
// set-up, 3 when loopback TCP is unavailable (--out then holds only a
// "skipped" marker).
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apar/aop/context.hpp"
#include "apar/common/config.hpp"
#include "apar/common/json.hpp"
#include "apar/common/rng.hpp"
#include "apar/net/socket.hpp"
#include "apar/net/tcp_middleware.hpp"
#include "apar/obs/metrics.hpp"
#include "apar/obs/profiling_aspect.hpp"
#include "apar/obs/trace_context.hpp"
#include "apar/obs/tracer.hpp"
#include "apar/serial/archive.hpp"
#include "apar/sieve/prime_filter.hpp"
#include "apar/sieve/workload.hpp"
#include "apar/strategies/strategies.hpp"

extern char** environ;

namespace {

namespace aop = apar::aop;
namespace net = apar::net;
namespace obs = apar::obs;
namespace serial = apar::serial;
namespace st = apar::strategies;
namespace sv = apar::sieve;
using apar::common::json_escape;

using Clock = std::chrono::steady_clock;
using PrimeFilter = sv::PrimeFilter;
using Pack = std::vector<long long>;
using FarmAspect =
    st::FarmAspect<PrimeFilter, long long, long long, long long, double>;
using ConcAspect = st::ConcurrencyAspect<PrimeFilter>;
using DistAspect =
    st::DistributionAspect<PrimeFilter, long long, long long, double>;
using LocalCpu = st::optimisation::LocalCpuAspect<PrimeFilter>;
using Profiler = obs::ProfilingAspect<PrimeFilter>;

// ---- workload parameters (README.md says why each has its value) ------
constexpr int kClients = 4;                   // rpc_small client threads
constexpr std::size_t kRpcPackLen = 16;
constexpr std::size_t kRpcPacks = 4096;       // seeded packs, cycled
constexpr long long kRpcMax = 2'000'000;      // candidates in (root, max]
constexpr std::size_t kRpcTracedCalls = 40'000;  // fits the trace rings
constexpr long long kWindowBase = 1'000'001;  // sieve windows start here
constexpr long long kWindowJitter = 100'000;  // ... plus 2 * [0, jitter)
constexpr std::size_t kWindowLen = 1'000'000;  // odd candidates per window
constexpr std::size_t kFilters = 4;
constexpr std::size_t kTcpPack = 20'000;
constexpr std::size_t kLocalPack = 1000;
constexpr std::size_t kTcpServers = 2;
constexpr int kRpcServerWorkers = 4;
constexpr int kTcpServerWorkers = 2;
constexpr std::size_t kLocalCpuSlots = 4;
constexpr int kRpcRounds = 5;
constexpr int kSetupReps = 15;
constexpr auto kRpcWarmup = std::chrono::milliseconds(500);
constexpr serial::Format kFormat = serial::Format::kCompact;
// p90, not p99: on a shared 4-vCPU host the p99 of rpc_small measures
// hypervisor preemption more than the program (README.md).
constexpr double kTailPct = 90;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double micros_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e6;
}

/// Linear-interpolated percentile (pct in [0, 100]).
double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 50); }

/// Latencies in log-spaced buckets 0.1% apart, from 0.1 us to beyond
/// 100 s. Memory is constant, so measuring never moves the client's peak
/// RSS, and merging client threads is adding buckets. A percentile reads its
/// bucket's geometric midpoint, within 0.05% of the sample.
class LatencyHistogram {
 public:
  void add(double us) {
    ++count_;
    sum_ += us;
    const double x = std::max(us, kMinUs);
    const auto i = static_cast<std::size_t>(std::log(x / kMinUs) / kLogStep);
    ++buckets_[std::min(i, buckets_.size() - 1)];
  }
  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < buckets_.size(); ++i)
      buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// Nearest-rank percentile, pct in [0, 100].
  [[nodiscard]] double percentile(double pct) const {
    if (count_ == 0) return 0.0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(pct / 100.0 * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= rank)
        return kMinUs * std::exp((static_cast<double>(i) + 0.5) * kLogStep);
    }
    return 0.0;
  }

 private:
  static constexpr double kMinUs = 0.1;
  static constexpr double kLogStep = 0.001;
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(21000, 0);
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

// ---- a small JSON object writer -----------------------------------------
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double v) {
    char buf[48];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof buf, "%.10g", v);
    else
      std::snprintf(buf, sizeof buf, "null");
    return raw(key, buf);
  }
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, "\"" + json_escape(v) + "\"");
  }
  JsonObject& list(std::string_view key, const std::vector<double>& v) {
    std::string text = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[48];
      std::snprintf(buf, sizeof buf, "%s%.10g", i ? "," : "", v[i]);
      text += buf;
    }
    return raw(key, text + "]");
  }
  JsonObject& strings(std::string_view key, const std::vector<std::string>& v) {
    std::string text = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
      text += (i ? ",\"" : "\"") + json_escape(v[i]) + "\"";
    return raw(key, text + "]");
  }
  /// `json` must already be valid JSON text.
  JsonObject& raw(std::string_view key, std::string_view json) {
    if (!body_.empty()) body_ += ',';
    body_ += "\"" + json_escape(key) + "\":";
    body_ += json;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- per-process accounting from /proc ----------------------------------

/// utime + stime of a whole process, exited threads included, in
/// seconds: fields 14 and 15 of /proc/<pid>/stat.
double process_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  const auto paren = line.rfind(')');  // the comm field may hold spaces
  if (paren == std::string::npos || paren + 2 > line.size()) return 0.0;
  std::istringstream rest(line.substr(paren + 2));
  std::string token;
  unsigned long long ticks = 0;
  for (int field = 3; field <= 15 && rest >> token; ++field)
    if (field >= 14) ticks += std::stoull(token);
  return static_cast<double>(ticks) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of a process, in MiB.
double process_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  return 0.0;
}

// ---- sieve_server child processes ---------------------------------------

/// One `sieve_server --mode reactor` child. The constructor returns once
/// the server listens (it prints its port on its first stdout line).
/// stop() ends it with SIGTERM, which also makes a traced server write
/// its Chrome trace, and reaps it.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, int workers,
                const std::vector<std::string>& extra_env) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    out_fd_ = fds[0];

    // The child gets this environment minus every APAR_* knob, so only
    // extra_env decides whether it keeps metrics or traces.
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e)
      if (std::strncmp(*e, "APAR_", 5) != 0) env.emplace_back(*e);
    env.insert(env.end(), extra_env.begin(), extra_env.end());
    std::vector<char*> envp;
    for (auto& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);

    std::vector<std::string> args{binary,          "--mode",
                                  "reactor",       "--workers",
                                  std::to_string(workers), "--run-seconds",
                                  "170"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                 argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
      pid_ = -1;
      stop();
      throw std::runtime_error("cannot start " + binary + ": " +
                               std::strerror(rc));
    }
    const std::string line = read_line(std::chrono::seconds(10));
    const auto at = line.find("127.0.0.1:");
    if (at == std::string::npos) {
      stop();
      throw std::runtime_error("sieve_server reported no port: '" + line +
                               "'");
    }
    port_ = static_cast<std::uint16_t>(std::stoi(line.substr(at + 10)));
  }

  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ServerProcess(ServerProcess&&) = delete;
  ServerProcess& operator=(ServerProcess&&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      // It prints its stats on the way out: drain to EOF, then reap.
      while (!read_line(std::chrono::seconds(20)).empty()) {
      }
      int status = 0;
      const auto deadline = Clock::now() + std::chrono::seconds(5);
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (Clock::now() > deadline) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

 private:
  /// One stdout line without its newline; "" on EOF or timeout.
  std::string read_line(std::chrono::milliseconds timeout) {
    std::string line;
    const auto deadline = Clock::now() + timeout;
    while (out_fd_ >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) break;
      pollfd pfd{out_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) break;
      char c = 0;
      if (::read(out_fd_, &c, 1) != 1) break;
      if (c == '\n') return line.empty() ? std::string(" ") : line;
      line += c;
    }
    return line;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

using Servers = std::vector<std::unique_ptr<ServerProcess>>;

/// Environment of a traced phase's servers: registry probes on, and a
/// Chrome trace written to `trace_file` on SIGTERM.
std::vector<std::string> traced_server_env(const std::string& trace_file) {
  return {"APAR_METRICS=1", "APAR_TRACE_OUT=" + trace_file};
}

// ---- seeded inputs -------------------------------------------------------

/// rpc_small's input: seeded 16-candidate packs and the reply each must
/// get, computed by a local PrimeFilter.
struct RpcInputs {
  long long root = 0;
  std::vector<Pack> packs;
  std::vector<Pack> expected;
  double divisions_per_call = 0;
};

RpcInputs make_rpc_inputs(std::uint64_t seed) {
  RpcInputs in;
  in.root = sv::isqrt(kRpcMax);
  apar::common::Rng rng(seed);
  PrimeFilter reference(2, in.root);
  const auto odd_slots = static_cast<std::uint64_t>((kRpcMax - in.root) / 2);
  for (std::size_t i = 0; i < kRpcPacks; ++i) {
    Pack pack(kRpcPackLen);
    // Odd candidates above the base-prime range (the root is even here).
    for (auto& c : pack)
      c = in.root + 1 + 2 * static_cast<long long>(rng() % odd_slots);
    Pack survivors = pack;
    reference.filter(survivors);
    in.packs.push_back(std::move(pack));
    in.expected.push_back(std::move(survivors));
  }
  in.divisions_per_call =
      static_cast<double>(reference.ops()) / static_cast<double>(kRpcPacks);
  return in;
}

/// The sieve workloads' input: a seeded window of odd candidates, with
/// the prime count and sum of a reference Eratosthenes sieve that its
/// survivors must match.
struct SieveWindow {
  Pack candidates;
  long long root = 0;
  long long expected_primes = 0;
  long long expected_sum = 0;
  std::uint64_t divisions = 0;
};

SieveWindow make_window(std::uint64_t seed) {
  SieveWindow w;
  apar::common::Rng rng(seed);
  const long long lo =
      kWindowBase + 2 * static_cast<long long>(rng() % kWindowJitter);
  w.candidates.resize(kWindowLen);
  for (std::size_t i = 0; i < kWindowLen; ++i)
    w.candidates[i] = lo + 2 * static_cast<long long>(i);
  const long long hi = w.candidates.back();
  w.root = sv::isqrt(hi);
  for (const long long p : sv::primes_up_to(hi)) {
    if (p < lo) continue;
    ++w.expected_primes;
    w.expected_sum += p;
  }
  // Trial divisions do not depend on the partition: every candidate is
  // tried against the base primes until one divides it.
  PrimeFilter sequential(2, w.root);
  Pack survivors = w.candidates;
  sequential.filter(survivors);
  w.divisions = sequential.ops();
  return w;
}

// ---- serialisation timings on the workload's own packs -----------------

std::string serial_timings(const std::vector<Pack>& packs) {
  // Batches keep steady_clock's own cost out of tiny-pack timings.
  const std::size_t batch = std::max<std::size_t>(1, 4096 / packs[0].size());
  std::vector<double> enc_us, dec_us;
  double bytes = 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(300);
  for (std::size_t i = 0; enc_us.size() < 20 || Clock::now() < deadline;
       ++i) {
    const Pack& pack = packs[i % packs.size()];
    std::vector<std::vector<std::byte>> out(batch);
    const auto t0 = Clock::now();
    for (auto& b : out) b = serial::encode(kFormat, pack);
    const auto t1 = Clock::now();
    for (auto& b : out) {
      serial::Reader reader(b, kFormat);
      Pack back;
      reader.value(back);
      if (back != pack) throw std::runtime_error("serial round trip differs");
    }
    const auto t2 = Clock::now();
    enc_us.push_back(micros_between(t0, t1) / static_cast<double>(batch));
    dec_us.push_back(micros_between(t1, t2) / static_cast<double>(batch));
    bytes += static_cast<double>(out[0].size());
  }
  return JsonObject()
      .num("encode_us_per_pack", median(enc_us))
      .num("decode_us_per_pack", median(dec_us))
      .num("bytes_per_pack", bytes / static_cast<double>(enc_us.size()))
      .text();
}

// ---- shared run bookkeeping ---------------------------------------------

/// Every op attempted, and every transport error, kReplyError or wrong
/// answer among them, with the first few messages.
struct Failures {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::mutex mutex;
  std::vector<std::string> messages;

  void fail(const std::string& what) {
    failed.fetch_add(1);
    std::lock_guard lock(mutex);
    if (messages.size() < 5) messages.push_back(what);
  }
};

/// The processes of a workload: this one plus its servers.
struct ProcessSet {
  std::vector<pid_t> pids{::getpid()};

  explicit ProcessSet(const Servers& servers) {
    for (const auto& s : servers) pids.push_back(s->pid());
  }
  [[nodiscard]] double cpu_seconds() const {
    double s = 0;
    for (pid_t p : pids) s += process_cpu_seconds(p);
    return s;
  }
  [[nodiscard]] double peak_rss_mb() const {
    double s = 0;
    for (pid_t p : pids) s += process_peak_rss_mb(p);
    return s;
  }
};

/// The end-to-end figures of one measured window.
struct Window {
  double seconds = 0;
  LatencyHistogram latency;  ///< one sample per completed op
  double cpu_seconds = 0;    ///< user + sys of every process involved
  double peak_rss_mb = 0;    ///< sum of VmHWM over those processes
};

/// Per-metric medians over rounds. Each rpc_small round runs against a
/// fresh server, so a hiccup of the host, or an unlucky placement of the
/// threads on the cores, that spoils one round cannot set a run's
/// figures; the sieve workloads run one round.
std::string window_json(const std::vector<Window>& rounds) {
  double seconds = 0, ops = 0;
  std::vector<double> rate, p50, tail, avg, cpu, rss;
  for (const Window& w : rounds) {
    const auto n = static_cast<double>(w.latency.count());
    seconds += w.seconds;
    ops += n;
    rate.push_back(n / w.seconds);
    p50.push_back(w.latency.percentile(50));
    tail.push_back(w.latency.percentile(kTailPct));
    avg.push_back(w.latency.mean());
    cpu.push_back(n > 0 ? w.cpu_seconds * 1e6 / n : 0.0);
    rss.push_back(w.peak_rss_mb);
  }
  return JsonObject()
      .num("rounds", static_cast<double>(rounds.size()))
      .num("seconds", seconds)
      .num("ops", ops)
      .num("ops_per_s", median(rate))
      .num("op_p50_us", median(p50))
      .num("op_tail_us", median(tail))
      .num("tail_pct", kTailPct)
      .num("op_mean_us", median(avg))
      .num("cpu_us_per_op", median(cpu))
      .num("peak_rss_mb", median(rss))
      .text();
}

struct RunSettings {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string server;
  std::string trace_dir;
};

// ---- rpc_small -----------------------------------------------------------

/// One reactor server, one middleware, one remote PrimeFilter per client
/// thread (filters are not thread safe, and each thread owns one).
struct RpcRig {
  Servers servers;
  std::unique_ptr<net::TcpMiddleware> middleware;
  std::vector<apar::cluster::RemoteHandle> filters;
};

std::unique_ptr<RpcRig> make_rpc_rig(const RunSettings& run,
                                     const RpcInputs& in,
                                     const std::vector<std::string>& env,
                                     double* create_ms) {
  auto rig = std::make_unique<RpcRig>();
  rig->servers.push_back(
      std::make_unique<ServerProcess>(run.server, kRpcServerWorkers, env));
  net::TcpMiddleware::Options opts;
  opts.endpoints = {{"127.0.0.1", rig->servers[0]->port()}};
  opts.format = kFormat;
  rig->middleware = std::make_unique<net::TcpMiddleware>(opts);
  const auto t0 = Clock::now();
  for (int t = 0; t < kClients; ++t)
    rig->filters.push_back(rig->middleware->create(
        0, "PrimeFilter", serial::encode(kFormat, 2LL, in.root, 0.0)));
  if (create_ms) *create_ms = micros_between(t0, Clock::now()) / 1e3;
  return rig;
}

/// A closed loop of kClients threads for `seconds` (after a warm-up), or
/// until `max_calls` calls were measured when that is non-zero.
/// `on_start` runs when the warm-up ends and the window opens.
Window rpc_window(RpcRig& rig, const RpcInputs& in, Failures& failures,
                  double seconds, std::size_t max_calls,
                  const std::function<void()>& on_start) {
  const ProcessSet procs(rig.servers);
  const auto start = Clock::now() + kRpcWarmup;
  const auto end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::atomic<std::size_t> measured{0};
  std::vector<LatencyHistogram> latencies(kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      std::size_t i = static_cast<std::size_t>(t) * (kRpcPacks / kClients);
      for (;; ++i) {
        const auto t0 = Clock::now();
        if (t0 >= end) break;
        const bool timed = t0 >= start;
        if (timed && max_calls && measured.load() >= max_calls) break;
        const Pack& pack = in.packs[i % kRpcPacks];
        failures.attempted.fetch_add(1);
        try {
          const auto reply = rig.middleware->invoke(
              rig.filters[t], "filter", serial::encode(kFormat, pack));
          serial::Reader reader(reply, kFormat);
          Pack survivors;
          reader.value(survivors);
          const auto t1 = Clock::now();
          if (survivors != in.expected[i % kRpcPacks]) {
            failures.fail("rpc_small: wrong survivors for pack " +
                          std::to_string(i % kRpcPacks));
            continue;
          }
          if (timed) {
            latencies[t].add(micros_between(t0, t1));
            measured.fetch_add(1);
          }
        } catch (const std::exception& e) {
          failures.fail(std::string("rpc_small: ") + e.what());
        }
      }
    });
  }
  // The clients stop on their own at `end`; an error here must still wait
  // for them before it propagates.
  double cpu0 = 0, cpu1 = 0;
  auto stop = start;
  std::exception_ptr error;
  try {
    std::this_thread::sleep_until(start);
    on_start();
    cpu0 = procs.cpu_seconds();
    while (Clock::now() < end && !(max_calls && measured.load() >= max_calls))
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop = Clock::now();
    cpu1 = procs.cpu_seconds();
  } catch (...) {
    error = std::current_exception();
  }
  for (auto& c : clients) c.join();
  if (error) std::rethrow_exception(error);

  Window w;
  w.seconds = seconds_between(start, stop);
  for (const auto& l : latencies) w.latency.merge(l);
  w.cpu_seconds = cpu1 - cpu0;
  w.peak_rss_mb = procs.peak_rss_mb();
  return w;
}

std::string net_delta_json(const net::TcpMiddleware::NetCounters& a,
                           const net::TcpMiddleware::NetCounters& b,
                           const apar::cluster::MiddlewareStats::Snapshot& ma,
                           const apar::cluster::MiddlewareStats::Snapshot& mb,
                           double ops) {
  const auto per_op = [ops](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x) / ops;
  };
  return JsonObject()
      .num("net.frames_per_op",
           per_op(a.frames_sent + a.frames_received,
                  b.frames_sent + b.frames_received))
      .num("net.wire_bytes_per_op",
           per_op(a.wire_bytes_sent + a.wire_bytes_received,
                  b.wire_bytes_sent + b.wire_bytes_received))
      .num("net.connects", static_cast<double>(b.connects))
      .num("cluster.sync_calls_per_op", per_op(ma.sync_calls, mb.sync_calls))
      .num("cluster.one_way_per_op",
           per_op(ma.one_way_calls, mb.one_way_calls))
      .num("cluster.payload_bytes_per_op",
           per_op(ma.bytes_sent + ma.bytes_received,
                  mb.bytes_sent + mb.bytes_received))
      .text();
}

std::string telemetry_pair(net::TcpMiddleware& mw, std::size_t node,
                           const std::string& before) {
  return "[" + before + "," + mw.telemetry(node) + "]";
}

void run_rpc_small(const RunSettings& run, Failures& failures,
                   JsonObject& doc) {
  const RpcInputs in = make_rpc_inputs(run.seed);
  const double phase = run.trace ? run.seconds / 2 : run.seconds;

  std::vector<double> setup_s;
  std::vector<Window> rounds;
  std::unique_ptr<RpcRig> rig;
  for (int r = 0; r < kSetupReps + kRpcRounds; ++r) {
    rig.reset();  // the previous server goes first
    const auto t0 = Clock::now();
    rig = make_rpc_rig(run, in, {}, nullptr);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (r >= kSetupReps)
      rounds.push_back(
          rpc_window(*rig, in, failures, phase / kRpcRounds, 0, [] {}));
  }
  rig.reset();
  doc.list("setup_s", setup_s).raw("window", window_json(rounds));
  if (!run.trace) return;

  obs::set_metrics_enabled(true);
  obs::set_tracing_enabled(true);
  double create_ms = 0;
  rig = make_rpc_rig(run, in,
                     traced_server_env(run.trace_dir + "/server-0.json"),
                     &create_ms);
  auto& mw = *rig->middleware;
  std::string client0, server0;
  net::TcpMiddleware::NetCounters net0;
  apar::cluster::MiddlewareStats::Snapshot mw0;
  const Window traced =
      rpc_window(*rig, in, failures, phase, kRpcTracedCalls, [&] {
        client0 = obs::MetricsRegistry::global().to_json();
        server0 = mw.telemetry(0);
        net0 = mw.net_counters();
        mw0 = mw.stats().snapshot();
      });
  const auto ops = static_cast<double>(traced.latency.count());
  const std::string counts =
      net_delta_json(net0, mw.net_counters(), mw0, mw.stats().snapshot(), ops);
  const std::string servers = "[" + telemetry_pair(mw, 0, server0) + "]";
  const std::string client_metrics =
      "[" + client0 + "," + obs::MetricsRegistry::global().to_json() + "]";
  rig.reset();  // SIGTERM: the server writes its trace
  obs::set_tracing_enabled(false);
  obs::Tracer::global()->write_chrome_trace(run.trace_dir + "/client.json",
                                            static_cast<int>(::getpid()),
                                            "perfbench-client");

  doc.raw("traced",
          JsonObject()
              .raw("window", window_json({traced}))
              .raw("counts", counts)
              .num("create_ms", create_ms)
              .num("divisions_per_op", in.divisions_per_call)
              .num("packs_per_op", 1)
              .raw("serial", serial_timings(in.packs))
              .raw("client_metrics", client_metrics)
              .raw("server_telemetry", servers)
              .num("client_trace_dropped",
                   static_cast<double>(obs::Tracer::global()->dropped_events()))
              .text());
}

// ---- sieve_tcp and sieve_local -------------------------------------------

/// The farm weave of one sieve workload: Table 1's FarmThreads for
/// sieve_local, the sieve_client weave (farm, concurrency, distribution
/// over TCP) for sieve_tcp. Members are declared in dependency order, so
/// the context (and every thread it spawned) goes before the middleware
/// and the servers.
struct SieveRig {
  Servers servers;
  std::unique_ptr<net::TcpMiddleware> middleware;
  std::unique_ptr<net::TcpFabric> fabric;
  std::map<std::string, std::unique_ptr<obs::MetricsRegistry>> profiles;
  std::unique_ptr<aop::Context> ctx;
  std::shared_ptr<FarmAspect> farm;
  std::shared_ptr<ConcAspect> conc;
  aop::Ref<PrimeFilter> filter;

  /// Plug a ProfilingAspect at `order` with a registry of its own.
  template <auto... Methods>
  void profile(const std::string& name, int order) {
    auto& registry = profiles[name];
    registry = std::make_unique<obs::MetricsRegistry>();
    auto aspect = std::make_shared<Profiler>("prof." + name, *registry, order);
    (aspect->template profile_method<Methods>(), ...);
    ctx->attach(aspect);
  }

  [[nodiscard]] std::string profiles_json() const {
    JsonObject o;
    for (const auto& [name, registry] : profiles) o.raw(name, registry->to_json());
    return o.text();
  }
};

std::unique_ptr<SieveRig> make_sieve_rig(const RunSettings& run,
                                         const SieveWindow& w, bool tcp,
                                         bool profiled, double* create_ms) {
  auto rig = std::make_unique<SieveRig>();
  if (tcp) {
    net::TcpMiddleware::Options opts;
    for (std::size_t i = 0; i < kTcpServers; ++i) {
      const auto env =
          profiled ? traced_server_env(run.trace_dir + "/server-" +
                                       std::to_string(i) + ".json")
                   : std::vector<std::string>{};
      rig->servers.push_back(
          std::make_unique<ServerProcess>(run.server, kTcpServerWorkers, env));
      opts.endpoints.push_back({"127.0.0.1", rig->servers.back()->port()});
    }
    opts.format = kFormat;
    rig->middleware = std::make_unique<net::TcpMiddleware>(opts);
    rig->fabric = std::make_unique<net::TcpFabric>(*rig->middleware);
  }
  rig->ctx = std::make_unique<aop::Context>();
  FarmAspect::Options fopts;
  fopts.duplicates = kFilters;
  fopts.pack_size = tcp ? kTcpPack : kLocalPack;
  rig->farm = std::make_shared<FarmAspect>("Partition", fopts);
  rig->ctx->attach(rig->farm);
  rig->conc = std::make_shared<ConcAspect>("Concurrency");
  rig->conc->async_method<&PrimeFilter::process>()
      .async_method<&PrimeFilter::filter>()
      .guarded_method<&PrimeFilter::collect>();
  rig->ctx->attach(rig->conc);
  if (tcp) {
    auto dist = std::make_shared<DistAspect>("Distribution", *rig->fabric,
                                             *rig->middleware);
    dist->distribute_method<&PrimeFilter::filter>()
        .distribute_method<&PrimeFilter::process>(/*allow_one_way=*/true)
        .distribute_method<&PrimeFilter::collect>(/*allow_one_way=*/true)
        .distribute_method<&PrimeFilter::take_results>();
    rig->ctx->attach(dist);
  } else {
    auto cpu = std::make_shared<LocalCpu>("LocalCpu", kLocalCpuSlots);
    cpu->limit_method<&PrimeFilter::process>()
        .limit_method<&PrimeFilter::filter>();
    rig->ctx->attach(cpu);
  }
  if (profiled) {
    // Outermost: counts the woven top-level calls. Then just outside and
    // just inside the async (200) and sync (400) advice, and innermost:
    // the one-way send for TCP, the handler itself in-process.
    rig->profile<&PrimeFilter::process, &PrimeFilter::take_results>("calls",
                                                                    1);
    rig->profile<&PrimeFilter::process>("dispatch",
                                        aop::order::kConcurrencyAsync - 1);
    rig->profile<&PrimeFilter::process>("monitor_outer",
                                        aop::order::kConcurrencySync - 1);
    rig->profile<&PrimeFilter::process>("monitor_inner",
                                        aop::order::kConcurrencySync + 1);
    if (tcp)
      rig->profile<&PrimeFilter::process>("oneway",
                                          aop::order::kDistribution - 1);
    else
      rig->profile<&PrimeFilter::process>("handler",
                                          aop::order::kDistribution + 100);
  }
  const auto t0 = Clock::now();
  rig->filter = rig->ctx->create<PrimeFilter>(2LL, w.root, 0.0);
  if (create_ms) *create_ms = micros_between(t0, Clock::now()) / 1e3;
  return rig;
}

struct SieveTimes {
  double total_us = 0;    ///< the sieve: process, quiesce and gather
  double split_us = 0;    ///< inside the top-level ctx.call<&process>
  double quiesce_us = 0;
  double gather_us = 0;
  double iteration_us = 0;  ///< total plus the input copy and the check
};

/// One verified sieve of the window through the rig's weave: the
/// paper's core lines (call process, quiesce) plus the farm's gather.
bool run_sieve(SieveRig& rig, const SieveWindow& w, Failures& failures,
               SieveTimes& times) {
  const auto begin = Clock::now();
  Pack input = w.candidates;  // process() takes its pack by reference
  failures.attempted.fetch_add(1);
  try {
    const auto t0 = Clock::now();
    rig.ctx->call<&PrimeFilter::process>(rig.filter, input);
    const auto t1 = Clock::now();
    rig.ctx->quiesce();
    const auto t2 = Clock::now();
    const Pack survivors = rig.farm->gather_results(*rig.ctx);
    const auto t3 = Clock::now();
    const long long sum =
        std::accumulate(survivors.begin(), survivors.end(), 0LL);
    if (static_cast<long long>(survivors.size()) != w.expected_primes ||
        sum != w.expected_sum) {
      failures.fail("sieve: " + std::to_string(survivors.size()) +
                    " survivors, expected " +
                    std::to_string(w.expected_primes));
      return false;
    }
    times = {micros_between(t0, t3), micros_between(t0, t1),
             micros_between(t1, t2), micros_between(t2, t3),
             micros_between(begin, Clock::now())};
    return true;
  } catch (const std::exception& e) {
    failures.fail(std::string("sieve: ") + e.what());
    return false;
  }
}

/// One warm-up sieve, then sieves until `seconds` have passed; `on_start`
/// runs between the two, `after_each` after every measured sieve, outside
/// its timing. With `trace_first`, tracing is on for the first measured
/// sieve only.
Window sieve_window(SieveRig& rig, const SieveWindow& w, Failures& failures,
                    double seconds, bool trace_first,
                    std::vector<SieveTimes>* all_times,
                    const std::function<void()>& on_start,
                    const std::function<void()>& after_each) {
  const ProcessSet procs(rig.servers);
  SieveTimes times;
  run_sieve(rig, w, failures, times);
  on_start();
  Window win;
  const double cpu0 = procs.cpu_seconds();
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    if (trace_first) obs::set_tracing_enabled(win.latency.count() == 0);
    if (!run_sieve(rig, w, failures, times)) continue;
    win.latency.add(times.total_us);
    if (all_times) all_times->push_back(times);
    after_each();
  }
  if (trace_first) obs::set_tracing_enabled(false);
  win.seconds = seconds_between(start, Clock::now());
  win.cpu_seconds = procs.cpu_seconds() - cpu0;
  win.peak_rss_mb = procs.peak_rss_mb();
  return win;
}

void run_sieve_workload(const RunSettings& run, bool tcp, Failures& failures,
                        JsonObject& doc) {
  const SieveWindow w = make_window(run.seed);
  const double phase = run.trace ? run.seconds / 2 : run.seconds;

  std::vector<double> setup_s;
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    auto rig = make_sieve_rig(run, w, tcp, /*profiled=*/false, nullptr);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    return rig;
  };
  std::unique_ptr<SieveRig> rig;
  for (int r = 0; r < (tcp ? kSetupReps : 1); ++r) {
    rig.reset();
    rig = timed_setup();
  }
  // The in-process set-up takes tens of microseconds, and back-to-back
  // repetitions all land in one state of the host (their median moves by
  // half between runs). Sampling it once after every sieve instead spreads
  // the samples over the run, each with caches as cold as a first set-up.
  const Window untraced = sieve_window(
      *rig, w, failures, phase, false, nullptr, [] {},
      [&] { if (!tcp) timed_setup(); });
  rig.reset();
  doc.list("setup_s", setup_s).raw("window", window_json({untraced}));
  if (!run.trace) return;

  obs::set_metrics_enabled(true);
  // sieve_local records ~10 trace events per pack, so a whole traced
  // phase would overflow the ring: it traces its first sieve only.
  // sieve_tcp is traced throughout.
  obs::set_tracing_enabled(tcp);
  double create_ms = 0;
  rig = make_sieve_rig(run, w, tcp, /*profiled=*/true, &create_ms);
  std::string client0, profiles0;
  std::vector<std::string> server0;
  net::TcpMiddleware::NetCounters net0;
  apar::cluster::MiddlewareStats::Snapshot mw0;
  std::uint64_t spawned0 = 0;
  std::vector<SieveTimes> times;
  const Window traced = sieve_window(
      *rig, w, failures, phase, /*trace_first=*/!tcp, &times, [&] {
        client0 = obs::MetricsRegistry::global().to_json();
        profiles0 = rig->profiles_json();
        spawned0 = rig->conc->spawned();
        if (!tcp) return;
        for (std::size_t i = 0; i < kTcpServers; ++i)
          server0.push_back(rig->middleware->telemetry(i));
        net0 = rig->middleware->net_counters();
        mw0 = rig->middleware->stats().snapshot();
      },
      [] {});
  const auto ops = static_cast<double>(traced.latency.count());

  JsonObject counts;
  counts.num("concurrency.spawned_per_sieve",
             static_cast<double>(rig->conc->spawned() - spawned0) / ops);
  std::string servers = "[]";
  if (tcp) {
    const std::string net_json =
        net_delta_json(net0, rig->middleware->net_counters(), mw0,
                       rig->middleware->stats().snapshot(), ops);
    counts.raw("net", net_json);
    servers = "[";
    for (std::size_t i = 0; i < kTcpServers; ++i)
      servers += (i ? "," : "") + telemetry_pair(*rig->middleware, i, server0[i]);
    servers += "]";
  }
  const std::string client_metrics =
      "[" + client0 + "," + obs::MetricsRegistry::global().to_json() + "]";
  const std::string profiles =
      "[" + profiles0 + "," + rig->profiles_json() + "]";
  rig.reset();
  obs::set_tracing_enabled(false);
  obs::Tracer::global()->write_chrome_trace(run.trace_dir + "/client.json",
                                            static_cast<int>(::getpid()),
                                            "perfbench-client");

  std::vector<double> split, quiesce, gather;
  double explained = 0, total = 0;
  for (const auto& t : times) {
    split.push_back(t.split_us / 1e3);
    quiesce.push_back(t.quiesce_us / 1e3);
    gather.push_back(t.gather_us / 1e3);
    explained += t.split_us + t.quiesce_us + t.gather_us;
    total += t.iteration_us;
  }
  JsonObject traced_doc;
  traced_doc.raw("window", window_json({traced}))
      .raw("counts", counts.text())
      .num("create_ms", create_ms)
      .num("split_ms", median(split))
      .num("quiesce_ms", median(quiesce))
      .num("gather_ms", median(gather))
      .num("unexplained_frac", total > 0 ? 1.0 - explained / total : 0.0)
      .num("divisions_per_op", static_cast<double>(w.divisions))
      .raw("client_metrics", client_metrics)
      .raw("server_telemetry", servers)
      .raw("profiles", profiles)
      .num("client_trace_dropped",
           static_cast<double>(obs::Tracer::global()->dropped_events()));
  if (tcp) {
    std::vector<Pack> packs;
    for (std::size_t i = 0; i + kTcpPack <= w.candidates.size() && i < 8 * kTcpPack;
         i += kTcpPack)
      packs.emplace_back(w.candidates.begin() + static_cast<std::ptrdiff_t>(i),
                         w.candidates.begin() +
                             static_cast<std::ptrdiff_t>(i + kTcpPack));
    traced_doc.raw("serial", serial_timings(packs));
  }
  doc.raw("traced", traced_doc.text());
}

}  // namespace

int main(int argc, char** argv) {
  const apar::common::Config cli(argc, argv);
  RunSettings run;
  run.workload = cli.get("workload", "");
  run.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  run.seconds = cli.get_double("seconds", 10.0);
  run.trace = cli.get_int("trace", 0) != 0;
  run.server = cli.get("server", "");
  run.trace_dir = cli.get("trace-dir", ".");
  const std::string out_path = cli.get("out", "");
  const bool tcp = run.workload == "rpc_small" || run.workload == "sieve_tcp";
  if ((!tcp && run.workload != "sieve_local") || out_path.empty() ||
      !(run.seconds > 0) || (tcp && run.server.empty())) {
    std::fprintf(stderr,
                 "usage: perfbench --workload rpc_small|sieve_tcp|sieve_local "
                 "--seed N --seconds S --trace 0|1 --server PATH --out FILE "
                 "[--trace-dir DIR]\n");
    return 2;
  }
  // Tracing and registry probes follow this run's phases, never the
  // caller's environment.
  obs::set_tracing_enabled(false);
  obs::set_metrics_enabled(false);

  const auto write = [&out_path](const std::string& text) {
    std::ofstream out(out_path);
    out << text << '\n';
    return static_cast<bool>(out);
  };
  if (tcp && !net::loopback_available()) {
    write(JsonObject().str("skipped", "loopback TCP unavailable").text());
    std::fprintf(stderr, "perfbench: loopback TCP unavailable, skipped\n");
    return 3;
  }

  JsonObject doc;
  doc.str("workload", run.workload)
      .num("seed", static_cast<double>(run.seed))
      .num("seconds", run.seconds)
      .num("trace", run.trace ? 1 : 0)
      .str("build_type", PERFBENCH_BUILD_TYPE)
#if defined(__clang__)
      .str("compiler", "clang " __clang_version__)
#else
      .str("compiler", "gcc " __VERSION__)
#endif
      .num("nproc", std::thread::hardware_concurrency());
  Failures failures;
  try {
    if (run.workload == "rpc_small")
      run_rpc_small(run, failures, doc);
    else
      run_sieve_workload(run, run.workload == "sieve_tcp", failures, doc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", run.workload.c_str(),
                 e.what());
    return 2;
  }
  doc.num("attempted", static_cast<double>(failures.attempted.load()))
      .num("failed", static_cast<double>(failures.failed.load()))
      .strings("failures", failures.messages);
  if (!write(doc.text())) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
    return 2;
  }
  return failures.failed.load() == 0 ? 0 : 1;
}
