// Supervisor: the process-shard front door.
//
// `emmark_cli serve --process-shards` runs one of these in the parent
// process. It spawns one shard-worker process per shard (src/cli/worker.h
// -- the unchanged router/engine/store stack behind a Unix-domain
// socket), owns the consistent-hash ring, and proxies the docs/PROTOCOL.md
// line protocol between TCP clients and the owning worker. The same
// listening port also speaks minimal HTTP/1.1 (sniffed from the first
// bytes of a connection): `GET /metrics` returns the fleet-merged
// Prometheus exposition, `POST /v1/<verb>` carries one request line
// (docs/PROTOCOL.md §8).
//
// Fault model: a worker dying (crash, OOM kill, SIGKILL) wakes the loop
// through its pidfd and is reaped then. Every request in flight on that
// worker fails with a structured retryable error
// (`"retryable":true`) while sibling shards keep serving untouched; the
// supervisor respawns the worker with bounded exponential backoff
// (doubling per consecutive failure up to a cap, reset after the worker
// stays healthy). Fan-out verbs (`stats`, `metrics`, `quit`) degrade to
// the live subset of workers.
//
// Threading: the supervisor is one event loop on SocketServer's primitive
// (net/event_loop.h), asleep until a client, link or pidfd is ready,
// request_stop() wakes it (from any thread or a signal handler), or a
// deadline passes: respawn backoff, handshake retry or timeout, shutdown
// grace. The test accessors read atomics published by the loop, so
// harnesses can watch pids/respawns/backoff from outside.
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
  /// per consecutive failure up to `respawn_backoff_max_ms`. A worker
  /// that stays up longer than `healthy_after_ms` resets the streak.
  int respawn_backoff_ms = 200;
  int respawn_backoff_max_ms = 5000;
  int healthy_after_ms = 2000;
  /// A spawned worker must accept the handshake within this window or it
  /// is killed and counted as a failure.
  int handshake_timeout_ms = 30000;
  /// Graceful-shutdown budget: drain clients, SIGTERM workers, then
  /// SIGKILL whatever remains.
  int shutdown_grace_ms = 10000;

  /// Backend config forwarded to every worker (each runs it with
  /// shards=1). `router.shards` is the worker count and sizes the ring,
  /// exactly as in-process sharding does.
  RouterConfig router;
};

class Supervisor {
 public:
  /// Binds the front door and spawns the first generation of workers;
  /// throws std::runtime_error on bind failure. Handshakes complete
  /// inside run().
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
  bool worker_ready(size_t shard) const;     // handshake done, serving
  uint64_t worker_respawns(size_t shard) const;  // spawns beyond the first
  int worker_backoff_ms(size_t shard) const;     // current delay, 0 if up

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace emmark
