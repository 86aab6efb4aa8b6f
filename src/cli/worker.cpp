#include "cli/worker.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <unistd.h>

#include "net/server.h"
#include "util/env.h"

namespace emmark {

namespace {

SocketServer* g_worker_instance = nullptr;

extern "C" void worker_signal_handler(int) {
  // Async-signal-safe: request_stop() flips an atomic and writes the
  // loop's eventfd, which wakes it to drain gracefully.
  if (g_worker_instance != nullptr) g_worker_instance->request_stop();
}

}  // namespace

int run_shard_worker(ShardWorkerConfig config) {
  const std::string crash_on = env_or("EMMARK_TEST_CRASH_ON", "");
  if (crash_on == "startup") {
    // Crash-loop injection: die before the socket exists, so the
    // supervisor's handshake never succeeds and backoff kicks in.
    std::fprintf(stderr, "[shard-worker %zu] EMMARK_TEST_CRASH_ON=startup\n",
                 config.shard_index);
    return 42;
  }

  config.router.shards = 1;
  RequestRouter router(config.router);

  ServerConfig server_config;
  server_config.unix_path = config.socket_path;
  server_config.max_inflight_per_conn = config.max_inflight_per_conn;
  if (!crash_on.empty()) {
    // Deterministic mid-request death: _exit (not exit) so no drain, no
    // flush -- indistinguishable from SIGKILL as far as the supervisor's
    // link-EOF/pidfd detection is concerned.
    server_config.line_tap = [crash_on](const std::string& line) {
      if (line.find(crash_on) != std::string::npos) _exit(42);
    };
  }
  SocketServer server(router, server_config);

  g_worker_instance = &server;
  std::signal(SIGTERM, worker_signal_handler);
  // The supervisor owns SIGINT (a ^C reaches the whole foreground process
  // group); workers ignore it and wait for the supervisor's SIGTERM so
  // shutdown is sequenced from one place.
  std::signal(SIGINT, SIG_IGN);

  std::fprintf(stderr, "[shard-worker %zu] pid %d listening on %s\n",
               config.shard_index, static_cast<int>(::getpid()),
               config.socket_path.c_str());
  const int rc = server.run();
  g_worker_instance = nullptr;
  std::fprintf(stderr, "[shard-worker %zu] clean shutdown\n",
               config.shard_index);
  return rc;
}

}  // namespace emmark
