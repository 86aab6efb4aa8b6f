// RequestRouter: the transport-agnostic core of the serving protocol.
//
// The stdio daemon, the TCP socket server (src/net/server.h) and the
// process-shard workers share this one implementation byte for byte, and
// configure it from the same command-line options (add_router_options):
//
//   * RequestRouter owns the backend shards. Each shard is an independent
//     ModelStore + async WatermarkEngine pair; a ShardRouter consistent-
//     hashes model-spec keys across them, so every spec has a home shard
//     and hot models from different shards never thrash one LRU.
//   * RequestRouter::Session is one protocol conversation (a stdin stream,
//     or one TCP connection): it parses request lines, dispatches to the
//     spec's home shard, and flushes exactly one JSON line per request in
//     request order. Ordering, artifact read/write dependencies, and the
//     submitted/completed/failed counters in `stats` are all per-session;
//     store and engine counters are per-shard (shared by every session on
//     the same router).
//
// Lines parse through the protocol codec (cli/protocol.h), whose verb
// table holds each verb's parameters and artifact claims. Every engine
// verb then runs one lazy pipeline (router.cpp), to which a verb supplies
// only its engine-request factory and its success step. The engine
// submission waits, without blocking, for the model build and the slot's
// artifact claims; artifact file I/O and the suspect deep copy run in the
// request's lazy factory on an engine worker. The intake thread's cost per
// line is parse + queue push.
//
// The wire protocol itself is specified normatively in docs/PROTOCOL.md;
// the architecture (layering, threading, sharding) in docs/ARCHITECTURE.md.
//
// Sessions are single-threaded: all calls on one Session must come from
// one thread at a time (the daemon loop, or the server's event loop). The
// router's shards are thread-safe and shared by any number of sessions.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cli/protocol.h"
#include "model_zoo/store.h"
#include "nn/transformer.h"
#include "obs/metrics.h"
#include "wm/engine.h"

namespace emmark {

struct RouterConfig {
  /// Zoo checkpoint cache directory ("" = default).
  std::string cache_dir;
  /// Per-shard ModelStore capacity (resident originals before LRU
  /// eviction).
  size_t store_capacity = 4;
  /// Per-shard ModelStore byte budget over code-buffer footprints
  /// (0 = entry-count cap only).
  uint64_t max_resident_bytes = 0;
  /// Train-steps cap applied to every zoo build (0 = full training).
  int64_t train_steps_cap = 0;
  /// Engine base seed for seed-from-id requests (every shard's engine
  /// shares it, so request seeds do not depend on shard placement).
  uint64_t base_seed = 0;
  /// Default trace/verify WER gate (percent).
  double min_wer_pct = 90.0;
  /// Backend shard count (>= 1). One shard reproduces PR 3's daemon
  /// exactly; N shards partition the spec key space N ways.
  size_t shards = 1;
  /// Admission-control bound per shard (0 = never shed): a request whose
  /// home shard already holds this many queued requests -- engine
  /// pending() plus parsed-but-not-yet-submitted deferred slots -- is
  /// fast-failed at parse time with a structured overload error instead
  /// of being queued (docs/PROTOCOL.md §7). Per shard, so a burst into
  /// one shard sheds without touching warm traffic on the others.
  size_t max_queued = 0;
  /// Per-shard ModelStore idle TTL in seconds (0 = keep until LRU
  /// pressure); swept by the serving loops via sweep_stores().
  double store_ttl_sec = 0;
  /// Echo each parsed command to stderr (interactive sessions).
  bool echo = false;
};

class ArgParser;

/// The serving-core options `daemon`, `serve` and `shard-worker` share.
void add_router_options(ArgParser& args);
RouterConfig router_config_from(const ArgParser& args);
/// The inverse of router_config_from(): options that parse back to
/// `config`, every field but `shards` (a process-shard worker serves one
/// shard). Numbers render in a form that parses back to the same value.
std::vector<std::string> router_args(const RouterConfig& config);

/// Consistent-hash ring over shard indices. Each shard contributes 64
/// virtual points hashed from "shard-<i>#<v>" (fnv1a64 finished through
/// splitmix64, so the mapping is byte-stable across platforms and runs); a
/// key lands on the first point clockwise from its own hash. Growing the
/// shard set by one therefore remaps only ~1/N of the key space, so a
/// process-shard fleet loses few warm caches to a resize.
class ShardRouter {
 public:
  explicit ShardRouter(size_t shards);

  size_t shards() const { return shards_; }
  size_t shard_for(const std::string& key) const;

 private:
  size_t shards_;
  std::vector<std::pair<uint64_t, size_t>> ring_;  // sorted (point, shard)
};

class RequestRouter {
 public:
  /// Receives one complete response line (no trailing newline).
  using LineSink = std::function<void(const std::string&)>;

  explicit RequestRouter(const RouterConfig& config);
  ~RequestRouter();

  RequestRouter(const RequestRouter&) = delete;
  RequestRouter& operator=(const RequestRouter&) = delete;

  const RouterConfig& config() const { return config_; }
  size_t shard_for(const ModelSpec& spec) const {
    return ring_.shard_for(spec.key());
  }

  /// Blocks until every shard engine is idle. Transport teardown only --
  /// no request path calls this (the `stats` verb reports a live
  /// snapshot instead of draining other sessions' work).
  void drain();

  /// One live snapshot per shard, for `stats` and `metrics`.
  std::vector<ShardSnapshot> shard_stats() const;

  /// The process-wide metrics registry behind the `metrics` verb.
  /// Transports register their own series here (the socket server adds
  /// poll-cycle and connection metrics); recording through the returned
  /// references is lock-free.
  obs::MetricsRegistry& metrics_registry() { return registry_; }

  /// Full Prometheus text exposition for the `metrics` verb: every
  /// registered series plus shard-derived families (engine queue depths
  /// and wait/exec histograms, store residency and latency histograms,
  /// merged across shards at scrape time). Ends with a `# EOF` line, no
  /// trailing newline (transports append it).
  std::string metrics_text();

  /// Runs each shard store's idle-TTL sweep (no-op when --store-ttl is
  /// off). The socket server runs it every loop pass and sleeps no later
  /// than next_sweep_at(); the stdio daemon runs it per input line.
  void sweep_stores();

  /// Earliest instant a sweep_stores() can evict something
  /// (steady_clock::time_point::max() when --store-ttl is off).
  std::chrono::steady_clock::time_point next_sweep_at() const;

  /// Installs `wake` on every shard: each engine fires it after publishing
  /// an async result, each store after an async build lands -- the events
  /// no fd reports. An empty function detaches; once that call returns no
  /// previous hook is running or will start (util/wake_hook.h), so the
  /// owner of the woken fd detaches before closing it.
  void set_wakeup(const std::function<void()>& wake);

  /// One protocol conversation. Responses stream through the sink passed
  /// to each call, strictly in request order for this session.
  class Session {
   public:
    ~Session();

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /// Parses and dispatches one request line. Ready responses (this
    /// request's, or earlier ones that just completed) are flushed to
    /// `emit`. Never blocks on builds, engine work, or artifact I/O. Returns false once the session saw `quit`: the caller must
    /// stop feeding lines and call finish().
    bool handle_line(const std::string& line, const LineSink& emit);

    /// Advances deferred pipelines (build landed -> engine submission)
    /// and flushes responses whose results became ready, without
    /// blocking; a flush releases artifact claims, so it advances again
    /// until nothing more flushes. Transports call this when woken (see
    /// set_wakeup) so completed async work reaches an idle connection.
    void poll(const LineSink& emit);

    /// Blocks until every currently pending response has flushed, without
    /// ending the session (unlike finish()). The socket server uses it at
    /// graceful shutdown to alternate settle/feed passes over a backlog
    /// that was throttled at the in-flight bound.
    void settle(const LineSink& emit);

    /// Blocks until every pending response has flushed; emits the closing
    /// quit line if the session ended via `quit` (EOF sessions just
    /// settle). Call exactly once, after the last handle_line.
    void finish(const LineSink& emit);

    /// Requests whose responses have not flushed yet (the per-connection
    /// in-flight bound the socket server throttles reads on).
    size_t inflight() const { return pending_.size(); }

    bool quit_seen() const { return quit_; }

   private:
    friend class RequestRouter;
    explicit Session(RequestRouter& router) : router_(router) {}

    /// One response slot awaiting its turn: results stream strictly in
    /// request order, so a slot is flushed once it is ready and everything
    /// before it has been flushed.
    struct PendingOutput {
      /// Non-blocking progression (retry a deferred engine submission
      /// once the build future resolved and the artifact dependencies
      /// cleared). Empty for slots with nothing to advance (errors,
      /// stats).
      std::function<void()> advance;
      std::function<bool()> ready;
      std::function<std::string()> finalize;  // never throws; returns JSON

      /// A slot whose response is already known (a rejected request).
      static PendingOutput line(std::string text) {
        return {{}, [] { return true; }, [text] { return text; }};
      }
    };

    /// The engine-verb pipeline: admission, the model build, artifact
    /// claims, and the deferred engine submission behind one response slot.
    void start(const ParsedRequest& request, const std::string& id);

    /// Runs every pending slot's advance hook (not just the front):
    /// deferred submissions behind an unfinished slot still reach the
    /// engine as soon as their dependencies clear, so the shard executes
    /// a session's independent requests concurrently.
    void advance_pending();
    /// Emits ready responses in order; true when it emitted any.
    bool flush_pending(bool block, const LineSink& emit);

    RequestRouter& router_;
    uint64_t auto_id_ = 0;
    uint64_t slot_seq_ = 0;
    uint64_t submitted_ = 0;
    uint64_t completed_ = 0;
    uint64_t failed_ = 0;
    bool quit_ = false;
    std::deque<PendingOutput> pending_;
    /// Artifact claims by in-flight slots, keyed by canonical path with
    /// the claiming slot's sequence number. A reader defers its engine
    /// submission while an earlier slot still owes a write to one of its
    /// paths; a writer defers while an earlier slot still reads or writes
    /// one of its paths. Ordering over slot sequence numbers keeps a
    /// read-then-write pair on one path from deadlocking each other (see
    /// docs/PROTOCOL.md, "Artifact dependencies").
    std::multimap<std::string, uint64_t> pending_writes_;
    std::multimap<std::string, uint64_t> pending_reads_;
  };

  std::unique_ptr<Session> open_session();

 private:
  friend class Session;
  friend struct RouterMetrics;

  /// One backend shard: an independent model cache plus engine.
  struct Shard {
    explicit Shard(const RouterConfig& config);
    ModelStore store;
    WatermarkEngine engine;
    /// Requests parsed but not yet handed to the engine (build future
    /// unresolved, artifact gates). Together with engine.pending() this
    /// is the shard's admission-control load.
    std::atomic<size_t> deferred{0};
  };

  Shard& shard(size_t index) { return *shards_[index]; }

  RouterConfig config_;
  ShardRouter ring_;
  obs::MetricsRegistry registry_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Pre-registered request-lifecycle series (per-verb latency phases,
  /// request/failure/shed counters); defined in router.cpp.
  std::unique_ptr<struct RouterMetrics> metrics_;
};

}  // namespace emmark
