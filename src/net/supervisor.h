// Supervisor: the process-shard front door.
//
// `emmark_cli serve --process-shards` runs one of these in the parent
// process. It spawns one `emmark_cli shard-worker` process per shard --
// the same one-shard router behind a SocketServer that `serve` runs, on a
// Unix-domain socket -- owns the consistent-hash ring, and proxies the
// docs/PROTOCOL.md line protocol between TCP clients and the owning
// worker. Each line is parsed once here with the workers' own codec
// (cli/protocol.h): an engine verb goes to its home shard, `stats`,
// `metrics` and `quit` fan out to every worker and their replies merge
// into the single-process shapes, and a line that does not parse goes to
// shard 0, whose worker answers with the canonical error line. The same
// listening port also speaks minimal HTTP/1.1 (sniffed from the first
// bytes of a connection): `GET /metrics` returns the fleet-merged
// Prometheus exposition, `POST /v1/<verb>` carries one request line
// (docs/PROTOCOL.md §8).
//
// Lifecycle: a worker is ready once its socket accepts a connection
// (retried every 5 ms after the spawn; one not ready within 30 s is
// killed). Client accept is held until every worker's first spawn is ready
// or has failed.
//
// Fault model: a worker dying (crash, OOM kill, SIGKILL) wakes the loop
// through its pidfd and is reaped then. Every request in flight on that
// worker fails with a structured retryable error
// (`"retryable":true`) while sibling shards keep serving untouched; the
// supervisor respawns the worker with bounded exponential backoff
// (doubling per consecutive failure up to a cap, reset after the worker
// stays up 2 s). Fan-out verbs degrade to the live subset of workers.
//
// Threading: the supervisor is one event loop on SocketServer's primitive
// (net/event_loop.h), asleep until a client, link or pidfd is ready,
// request_stop() wakes it (from any thread or a signal handler), or a
// deadline passes: respawn backoff, the next connect to a starting
// worker, shutdown grace (10 s). The test accessors read atomics published
// by the loop, so harnesses can watch pids/respawns/backoff from outside.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <sys/types.h>

#include "cli/router.h"

namespace emmark {

struct SupervisorConfig {
  /// TCP front door (0 = ephemeral; read the result from port()).
  uint16_t port = 0;
  std::string bind_addr = "127.0.0.1";
  /// Unflushed requests per client connection before reads pause (same
  /// backpressure rule as ServerConfig::max_inflight_per_conn).
  size_t max_inflight_per_conn = 64;

  /// Binary to exec for workers. Empty = /proc/self/exe (the normal
  /// case: workers are `emmark_cli shard-worker`). Tests point it at the
  /// built emmark_cli explicitly.
  std::string worker_cmd;
  /// Directory for the per-worker Unix sockets. Empty = a fresh
  /// directory under the system temp dir, removed on shutdown.
  std::string socket_dir;

  /// Respawn backoff: first respawn after `respawn_backoff_ms`, doubling
  /// per consecutive failure up to `respawn_backoff_max_ms`.
  int respawn_backoff_ms = 200;
  int respawn_backoff_max_ms = 5000;

  /// Backend config forwarded to every worker (each runs it with
  /// shards=1). `router.shards` is the worker count and sizes the ring,
  /// exactly as in-process sharding does.
  RouterConfig router;
};

class Supervisor {
 public:
  /// Binds the front door and spawns the first generation of workers;
  /// throws std::runtime_error on bind failure. Workers turn ready inside
  /// run().
  explicit Supervisor(SupervisorConfig config);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  uint16_t port() const;

  /// Serves until request_stop(); returns 0 on a clean shutdown.
  int run();

  /// Async-signal-safe stop request.
  void request_stop();

  // -- observability / test accessors (safe from any thread) --
  size_t workers() const;
  pid_t worker_pid(size_t shard) const;      // -1 while down
  bool worker_ready(size_t shard) const;     // its socket accepted a connection
  uint64_t worker_respawns(size_t shard) const;  // spawns beyond the first
  int worker_backoff_ms(size_t shard) const;     // current delay, 0 if up

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace emmark
