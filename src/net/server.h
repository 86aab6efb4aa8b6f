// SocketServer: the TCP front-end over the RequestRouter serving core.
//
// `emmark_cli serve` binds a listening socket and runs a single-threaded
// event loop (net/event_loop.h). Every accepted connection gets its own
// RequestRouter::Session (per-connection ordering, artifact dependencies,
// counters) speaking the same newline-delimited JSON protocol as the stdio
// daemon (docs/PROTOCOL.md) -- same RequestRouter code path, so responses
// are byte-identical between transports. Heavy work -- request bodies,
// cold model builds, artifact file I/O, suspect deep copies -- runs on the
// shard engines' pool workers via the router's lazy verb pipelines; the
// loop thread only parses, dispatches, and shuttles bytes, and never
// parks (docs/ARCHITECTURE.md, "Threading"). It sleeps until a socket is
// ready, an engine result or model build lands (RequestRouter::set_wakeup),
// request_stop() is called, or the store TTL sweep is due; each pass then
// pumps every connection (deferred submissions retry, finished responses
// flush). A cold build on one connection never delays another.
//
// Lifecycle: the constructor binds and listens (port() is valid
// immediately; port 0 picks an ephemeral port). run() blocks until
// request_stop() -- callable from any thread or a signal handler -- then
// shuts down gracefully: stop accepting, settle every live session
// (in-flight requests complete and their responses flush), close. `quit`
// on a connection ends only that connection.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cli/router.h"
#include "net/event_loop.h"

namespace emmark {

class Conn;

struct ServerConfig {
  /// Port to bind (0 = ephemeral; read the result from port()).
  uint16_t port = 0;
  /// Bind address. Loopback by default: the daemon protocol is
  /// unauthenticated, so exposing it wider is an explicit operator choice.
  std::string bind_addr = "127.0.0.1";
  /// Non-empty: listen on this Unix-domain socket path instead of TCP
  /// (port/bind_addr are ignored, port() reports 0). Used by the
  /// process-shard workers, which only ever talk to their supervisor on
  /// the same host. A stale file at the path is unlinked before bind; the
  /// path is unlinked again on destruction.
  std::string unix_path;
  /// Unflushed requests per connection before the server stops reading
  /// from that socket (TCP backpressure instead of an unbounded queue).
  size_t max_inflight_per_conn = 64;
  /// Optional tap invoked with every complete request line before it is
  /// handed to the session. Test hook: the shard worker uses it for
  /// EMMARK_TEST_CRASH_ON fault injection (die deterministically when a
  /// chosen request arrives). Must not block.
  std::function<void(const std::string&)> line_tap;
};

class SocketServer {
 public:
  /// Binds and listens immediately; throws std::runtime_error on failure
  /// (port in use, bad address). `router` must outlive the server (which
  /// installs its wakeup there and detaches it on destruction).
  SocketServer(RequestRouter& router, ServerConfig config = {});
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// The bound port (resolves port 0 to the actual ephemeral port).
  uint16_t port() const { return port_; }

  /// Serves until request_stop(); returns 0 on a clean shutdown.
  int run();

  /// Async-signal-safe stop request (an atomic store, one write): run()
  /// finishes the current pass, settles every connection, and returns.
  void request_stop() {
    stop_.store(true, std::memory_order_relaxed);
    loop_.wake();
  }

  /// Connections currently open (for tests/observability).
  size_t connections() const { return connection_count_.load(std::memory_order_relaxed); }

 private:
  RequestRouter& router_;
  ServerConfig config_;
  EventLoop loop_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> connection_count_{0};
  std::vector<std::unique_ptr<Conn>> conns_;
  /// Server-side series in the router's registry, scraped via `metrics`:
  /// busy time per loop pass (outside the wait: event and pump passes -- a
  /// growing tail means the loop thread does work that belongs on the
  /// engines), open/accepted connection counts.
  obs::Histogram* poll_cycle_hist_ = nullptr;
  obs::Gauge* connections_gauge_ = nullptr;
  obs::Counter* accepted_counter_ = nullptr;
};

}  // namespace emmark
