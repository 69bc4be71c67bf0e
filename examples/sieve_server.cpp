// Two-process sieve, server half: hosts PrimeFilter behind a real TCP
// socket. The paper's "target machine" — it knows nothing about farms,
// packs or formats; it just exposes the registered core class and lets
// clients create and call instances over the wire.
//
//   ./examples/sieve_server                      # ephemeral port, printed
//   ./examples/sieve_server --port 7077
//   ./examples/sieve_server --port-file /tmp/p   # for scripting (CI smoke)
//
// Options: --port P --port-file PATH --workers N --run-seconds S
//          --max-connections N [--mode reactor]
// Every connection is served from --workers leader/followers threads over
// one epoll set (src/net/reactor): the thread that reads a request runs it
// and writes its reply, so the connection count is not bounded by
// --workers. --mode takes only "reactor", the one server there is.
// Runs until SIGINT/SIGTERM or until --run-seconds elapses (default 300,
// a leak guard for scripted runs), then prints its traffic stats.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "apar/cluster/rpc.hpp"
#include "apar/common/config.hpp"
#include "apar/net/socket.hpp"
#include "apar/net/tcp_server.hpp"
#include "apar/obs/trace_context.hpp"
#include "apar/obs/tracer.hpp"
#include "apar/sieve/prime_filter.hpp"

namespace ac = apar::common;
namespace net = apar::net;
namespace obs = apar::obs;
namespace sv = apar::sieve;

namespace {
std::atomic<bool> g_stop{false};
void on_signal(int) { g_stop.store(true); }
}  // namespace

int main(int argc, char** argv) {
  const ac::Config cli(argc, argv);
  const auto run_seconds = cli.get_double("run-seconds", 300.0);
  const auto port_file = cli.get("port-file", "");

  if (!net::loopback_available()) {
    std::fprintf(stderr, "sieve_server: loopback TCP unavailable here\n");
    return 2;
  }

  // The server side of the paper's split: register the core class once;
  // everything else (who creates filters, how many, with what arguments)
  // is the client's weave.
  apar::cluster::rpc::Registry registry;
  registry.bind<sv::PrimeFilter>("PrimeFilter")
      .ctor<long long, long long, double>()
      .method<&sv::PrimeFilter::filter>("filter")
      .method<&sv::PrimeFilter::process>("process")
      .method<&sv::PrimeFilter::collect>("collect")
      .method<&sv::PrimeFilter::take_results>("take_results");

  net::TcpServer::Options opts;
  opts.port = static_cast<std::uint16_t>(cli.get_int("port", 0));
  opts.workers = static_cast<std::size_t>(cli.get_int("workers", 4));
  opts.label = "sieve-server";
  opts.reactor.max_connections =
      static_cast<std::size_t>(cli.get_int("max-connections", 1024));
  if (const std::string mode = cli.get("mode", "reactor"); mode != "reactor") {
    std::fprintf(stderr, "sieve_server: unknown --mode %s\n", mode.c_str());
    return 2;
  }
  net::TcpServer server(registry, opts);

  std::printf(
      "sieve_server: PrimeFilter hosted on 127.0.0.1:%u (%zu workers)\n",
      server.port(), opts.workers);
  std::fflush(stdout);
  if (!port_file.empty()) {
    if (std::FILE* f = std::fopen(port_file.c_str(), "w")) {
      std::fprintf(f, "%u\n", server.port());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "sieve_server: cannot write %s\n",
                   port_file.c_str());
      return 2;
    }
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(run_seconds));
  while (!g_stop.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  server.stop();
  // APAR_TRACE_OUT=<path> dumps this half of the distributed trace; the
  // serve spans inside carry the CLIENT's ids as parents, which is what
  // lets tools/merge_traces.py stitch the two processes back together.
  if (const char* trace_out = std::getenv("APAR_TRACE_OUT");
      trace_out != nullptr && *trace_out != '\0' && obs::tracing_enabled()) {
    obs::Tracer::global()->write_chrome_trace(trace_out,
                                              static_cast<int>(::getpid()),
                                              "sieve-server");
    std::printf("sieve_server: trace written to %s\n", trace_out);
  }
  const auto s = server.stats();
  std::printf("sieve_server: served %llu frames in / %llu out, "
              "%llu bytes in / %llu out, %llu objects hosted, "
              "%llu dispatch errors\n",
              static_cast<unsigned long long>(s.frames_in),
              static_cast<unsigned long long>(s.frames_out),
              static_cast<unsigned long long>(s.bytes_in),
              static_cast<unsigned long long>(s.bytes_out),
              static_cast<unsigned long long>(server.dispatcher().object_count()),
              static_cast<unsigned long long>(s.dispatch_errors));
  return 0;
}
