// hpacd — the HPAC-Offload tuning daemon.
//
// Serves tuning queries over a Unix-domain socket against a persistent
// result store: memoized tuples answer from an immutable store snapshot
// without touching the scheduler, missing tuples are admitted (bounded,
// per-connection fair) and evaluated on demand, one at a time, with
// baselines cached per (benchmark, device). Point it at an existing campaign CSV and it serves
// everything the campaign already measured; every cold answer is appended
// to the same journal, so the store only ever grows.
//
// Examples:
//   hpacd --socket=/tmp/hpacd.sock --store=campaign.csv
//   hpacd --socket=/tmp/hpacd.sock --store=campaign.csv --max-pending=16
//   hpacd --socket=/tmp/hpacd.sock --store=final.csv --read-only
//
// A client connects, sends framed queries (see src/service/protocol.hpp),
// and may send a shutdown frame to stop the daemon gracefully. Signals:
// SIGTERM drains — new connections are refused, requests already received
// finish and their replies are delivered, then the daemon exits (the
// journal needs no extra flush: every append is flushed when written).
// SIGINT stops immediately. --read-only serves a finalized CSV (or a
// journal owned by another process) without ever opening it for writing:
// cold tuples answer degraded from the nearest known config.

#include <poll.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "harness/result_store.hpp"
#include "service/server.hpp"

using namespace hpac;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket=PATH [--store=FILE] [--max-pending=N]\n"
               "          [--threads=N] [--read-only]\n\n"
               "--socket     Unix-domain socket to listen on (required)\n"
               "--store      result CSV to serve and append to (default: in-memory)\n"
               "--max-pending  admission bound for cold tuples (default 64)\n"
               "--threads    accepted for compatibility; no effect (cold tuples\n"
               "             are evaluated one at a time)\n"
               "--read-only  serve an existing --store without writing to it;\n"
               "             cold tuples answer degraded from the nearest config\n",
               argv0);
  std::exit(2);
}

std::uint64_t parse_count(const char* flag, const std::string& value, bool allow_zero) {
  long long parsed = 0;
  if (!strings::parse_int(value, parsed) || parsed < 0 || (!allow_zero && parsed == 0)) {
    std::fprintf(stderr, "error: %s needs a positive number, got \"%s\"\n", flag,
                 value.c_str());
    std::exit(2);
  }
  return static_cast<std::uint64_t>(parsed);
}

// Self-pipe: the handler only writes one byte (async-signal-safe), and a
// plain thread blocked in poll(2) performs the actual drain/stop — which
// takes locks and joins threads, none of it legal inside a handler.
int g_signal_pipe[2] = {-1, -1};

void on_signal(int signo) {
  const unsigned char byte = static_cast<unsigned char>(signo);
  // A full pipe just means a signal is already queued for handling.
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  service::TuningServer::Options options;
  std::string store_path;
  bool read_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string(key) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (auto v = value("--socket")) options.socket_path = *v;
    else if (auto v2 = value("--store")) store_path = *v2;
    else if (auto v3 = value("--max-pending")) {
      options.service.max_pending =
          parse_count("--max-pending", *v3, /*allow_zero=*/false);
    } else if (auto v4 = value("--threads")) {
      parse_count("--threads", *v4, /*allow_zero=*/true);  // validated, then unused
    } else if (arg == "--read-only") {
      read_only = true;
    } else {
      usage(argv[0]);
    }
  }
  if (options.socket_path.empty()) usage(argv[0]);
  if (read_only && store_path.empty()) {
    std::fprintf(stderr, "error: --read-only needs a --store to serve\n");
    return 2;
  }
  options.service.read_only = read_only;

  try {
    harness::ResultStore store(store_path, read_only);
    if (store.persistent()) {
      std::printf("hpacd: store %s%s (%zu records restored, %zu duplicate rows dropped)\n",
                  store.path().c_str(), read_only ? " [read-only]" : "",
                  store.load_stats().restored, store.load_stats().duplicates);
    } else {
      std::printf("hpacd: in-memory store (answers are not persisted)\n");
    }
    service::TuningServer server(store, options);

    HPAC_REQUIRE(::pipe(g_signal_pipe) == 0, "cannot create signal pipe");
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::thread signal_thread([&server] {
      pollfd pfd{g_signal_pipe[0], POLLIN, 0};
      for (;;) {
        if (::poll(&pfd, 1, -1) < 0) {
          if (errno == EINTR) continue;
          return;
        }
        unsigned char signo = 0;
        if (::read(g_signal_pipe[0], &signo, 1) != 1) return;  // pipe closed: exit
        if (signo == SIGTERM) {
          std::printf("hpacd: draining (finishing in-flight requests)\n");
          std::fflush(stdout);
          server.drain();
        } else {
          server.stop();
        }
        return;
      }
    });

    server.start();
    std::printf("hpacd: listening on %s\n", options.socket_path.c_str());
    std::fflush(stdout);
    server.wait();
    server.stop();  // no-op after a signal-driven drain/stop
    // Wake the signal thread if no signal ever fired (protocol shutdown).
    ::close(g_signal_pipe[1]);
    g_signal_pipe[1] = -1;
    signal_thread.join();
    ::close(g_signal_pipe[0]);

    const auto stats = server.service().stats();
    std::printf("hpacd: served %llu queries (%llu memoized, %llu evaluated, "
                "%llu coalesced, %llu rejected, %llu degraded, "
                "%llu past deadline, %llu eval failures, %llu quarantined)\n",
                static_cast<unsigned long long>(stats.queries),
                static_cast<unsigned long long>(stats.memoized),
                static_cast<unsigned long long>(stats.evaluated),
                static_cast<unsigned long long>(stats.coalesced),
                static_cast<unsigned long long>(stats.rejected),
                static_cast<unsigned long long>(stats.degraded),
                static_cast<unsigned long long>(stats.deadline_exceeded),
                static_cast<unsigned long long>(stats.eval_failures),
                static_cast<unsigned long long>(stats.quarantined));
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
