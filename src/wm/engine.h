// WatermarkEngine: the service front-door over the scheme registry.
//
// A vendor operating at fleet scale does not watermark one model at a time:
// deployments arrive as streams of requests spanning many models, devices
// and schemes (ROADMAP north star). The engine offers two entry styles over
// one execution path:
//
//   * Batched (synchronous): insert_batch / extract_batch / trace_batch fan
//     a request vector out on the thread pool and block until every slot is
//     filled, in request order.
//   * Asynchronous (service): submit() enqueues one request on a bounded
//     queue and returns a std::future immediately; worker tasks drain the
//     queue on the shared ThreadPool. try_submit() is the non-blocking
//     variant for latency-critical callers (the server event loop): a full
//     queue returns false instead of parking the submitter. An optional
//     completion callback fires on the worker right before the future
//     becomes ready. drain() blocks until the engine is idle; shutdown()
//     stops intake, cancels queued requests (their slots report ok=false,
//     futures still become ready) and waits for in-flight work -- a
//     destructor-safe shutdown even with a non-empty queue.
//
// Guarantees, shared by both styles:
//
//   * One result slot per request -- a failed request reports {ok=false,
//     error} in its slot instead of aborting anything else (service
//     semantics, unlike the throwing library calls).
//   * Deterministic per-request seeding: requests flagged `seed_from_id`
//     get their key seeds derived from (config.base_seed, request id), so a
//     replayed workload reproduces every placement regardless of request
//     order, queue/worker interleaving, or thread count -- and two requests
//     never share a seed unless they share an id. Async results are
//     byte-identical to the synchronous path for the same requests.
//   * A ready future implies the request is no longer pending(): results
//     are published (callback, then promise) only after the engine's
//     in-flight count dropped, so an observer that saw the future resolve
//     never finds the same request still counted as pending -- the
//     property that keeps `stats` snapshots deterministic after a session
//     settled its own slots.
//
// Request payloads reference caller-owned models/stats (non-owning
// pointers); the caller keeps them alive until the request's result is
// observed (batch return, future ready, or callback fired). Each request
// type alternatively takes a lazy factory (model_factory /
// sources_factory) that the executing worker invokes to materialize the
// payload -- deep copies and artifact file loads then cost the submitting
// thread nothing.
//
// Queue semantics: submit() applies backpressure -- it blocks while the
// queue holds config.max_queue requests; try_submit() refuses instead.
// Worker parallelism is capped at config.max_workers (0 = the bound pool's
// size). Engine pump tasks run in the pool's dispatch class, ahead of any
// request's intra parallel_for fan-out (see util/threadpool.h). The engine
// binds ThreadPool::active() at construction; create the engine inside a
// ScopedOverride to pin it to a private pool, and destroy the engine before
// that pool.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/wake_hook.h"
#include "wm/fingerprint.h"
#include "wm/scheme.h"

namespace emmark {

class ThreadPool;
struct OwnershipEvidence;

struct EngineConfig {
  /// Base for deterministic per-request seed derivation (seed_from_id).
  uint64_t base_seed = 0;
  /// Verdict gate applied to trace/verify requests that do not set their own.
  double trace_min_wer_pct = 90.0;
  /// Bounded queue depth: a full queue blocks submit() and refuses
  /// try_submit().
  size_t max_queue = 256;
  /// Max concurrently executing async requests (0 = bound pool size).
  size_t max_workers = 0;
};

class WatermarkEngine {
 public:
  /// Lifetime counters over the asynchronous path (submit/cancel), exposed
  /// so a serving layer that owns one engine per shard can report per-shard
  /// load without wrapping every submission. The batch entry points do not
  /// count here: they are library calls, not service traffic.
  struct Counters {
    uint64_t submitted = 0;  // accepted submit()/try_submit() calls
    uint64_t completed = 0;  // executed requests whose slot reported ok
    uint64_t failed = 0;     // executed requests whose slot reported !ok
    uint64_t cancelled = 0;  // queued requests cancelled by shutdown()
  };

  struct InsertRequest {
    std::string id;                           // unique within the workload
    std::string scheme = "emmark";            // registry key
    QuantizedModel* model = nullptr;          // watermarked in place
    /// Lazy alternative to `model`: invoked on the executing worker to
    /// materialize the target (e.g. deep-copying a shared ModelStore
    /// handle) so submission threads never pay the copy. Used when
    /// `model` is null; exceptions it throws fail only this slot. The
    /// returned model stays caller-owned, like `model`.
    std::function<QuantizedModel*()> model_factory;
    const ActivationStats* stats = nullptr;
    WatermarkKey key;
    /// Overwrite key.seed / key.signature_seed from (base_seed, id).
    bool seed_from_id = false;
  };
  struct InsertResult {
    std::string id;
    bool ok = false;
    std::string error;
    WatermarkKey key;  // effective key (post seed derivation)
    SchemeRecord record;
  };

  struct ExtractRequest {
    std::string id;
    const QuantizedModel* suspect = nullptr;
    const QuantizedModel* original = nullptr;
    const SchemeRecord* record = nullptr;  // carries its scheme tag
    struct Sources {
      const QuantizedModel* suspect = nullptr;
      const QuantizedModel* original = nullptr;
      const SchemeRecord* record = nullptr;
    };
    /// Lazy alternative to the pointer fields, mirroring insert's
    /// model_factory: invoked on the executing worker when `suspect` is
    /// null, so suspect deep copies and artifact loads (load_codes,
    /// SchemeRecord::load) never run on the submitting thread. Exceptions
    /// it throws fail only this slot; the returned pointees stay
    /// caller-owned.
    std::function<Sources()> sources_factory;
  };
  struct ExtractResult {
    std::string id;
    bool ok = false;
    std::string error;
    ExtractionReport report;
  };

  struct TraceRequest {
    std::string id;
    const QuantizedModel* suspect = nullptr;
    const QuantizedModel* original = nullptr;
    const FingerprintSet* set = nullptr;
    /// Negative = use config.trace_min_wer_pct.
    double min_wer_pct = -1.0;
    struct Sources {
      const QuantizedModel* suspect = nullptr;
      const QuantizedModel* original = nullptr;
      const FingerprintSet* set = nullptr;
    };
    /// Lazy alternative to the pointer fields (see ExtractRequest).
    std::function<Sources()> sources_factory;
  };
  struct TraceBatchResult {
    std::string id;
    bool ok = false;
    std::string error;
    TraceResult trace;
  };

  /// Arbiter-side evidence audit (OwnershipEvidence::verify) as an engine
  /// verb, so a serving layer can run it off the intake thread like every
  /// other request.
  struct VerifyRequest {
    std::string id;
    const QuantizedModel* suspect = nullptr;
    const QuantizedModel* original = nullptr;
    const ActivationStats* stats = nullptr;
    const OwnershipEvidence* evidence = nullptr;
    /// Negative = use config.trace_min_wer_pct.
    double min_wer_pct = -1.0;
    struct Sources {
      const QuantizedModel* suspect = nullptr;
      const QuantizedModel* original = nullptr;
      const ActivationStats* stats = nullptr;
      const OwnershipEvidence* evidence = nullptr;
    };
    /// Lazy alternative to the pointer fields (see ExtractRequest).
    std::function<Sources()> sources_factory;
  };
  struct VerifyResult {
    std::string id;
    bool ok = false;
    std::string error;
    bool verified = false;  // the audit verdict (ok=true either way)
    std::string owner;      // from the evidence bundle
    std::string scheme;
    std::string why;  // human-readable reason when verified=false
  };

  using InsertCallback = std::function<void(const InsertResult&)>;
  using ExtractCallback = std::function<void(const ExtractResult&)>;
  using TraceCallback = std::function<void(const TraceBatchResult&)>;
  using VerifyCallback = std::function<void(const VerifyResult&)>;

  explicit WatermarkEngine(EngineConfig config = {});
  ~WatermarkEngine();

  WatermarkEngine(const WatermarkEngine&) = delete;
  WatermarkEngine& operator=(const WatermarkEngine&) = delete;

  /// Deterministic seed for a request id (stable across platforms; FNV-1a
  /// into SplitMix64, salted by `lane` for independent streams).
  static uint64_t request_seed(uint64_t base_seed, const std::string& request_id,
                               uint64_t lane = 0);

  // --- batched (synchronous) entry points ----------------------------------
  std::vector<InsertResult> insert_batch(const std::vector<InsertRequest>& requests) const;
  std::vector<ExtractResult> extract_batch(const std::vector<ExtractRequest>& requests) const;
  std::vector<TraceBatchResult> trace_batch(const std::vector<TraceRequest>& requests) const;

  // --- asynchronous entry points --------------------------------------------
  /// Enqueues the request and returns immediately (unless the queue is
  /// full, which blocks until space frees). The optional callback runs on
  /// the worker that executed the request, with the same result the future
  /// delivers; callback exceptions are swallowed. After shutdown() the
  /// future resolves at once with an ok=false rejection slot.
  std::future<InsertResult> submit(InsertRequest request, InsertCallback done = {});
  std::future<ExtractResult> submit(ExtractRequest request, ExtractCallback done = {});
  std::future<TraceBatchResult> submit(TraceRequest request, TraceCallback done = {});
  std::future<VerifyResult> submit(VerifyRequest request, VerifyCallback done = {});

  /// Non-blocking submit: never parks the caller. Returns false -- leaving
  /// `request` and `out` untouched -- when the queue is at config.max_queue,
  /// so the caller retries on a later poll. Returns true when the request
  /// was accepted (out becomes the result future) or the engine is shut
  /// down (out resolves at once with an ok=false rejection slot, exactly
  /// like submit() after shutdown). A true return consumes the request.
  bool try_submit(InsertRequest& request, std::future<InsertResult>& out,
                  InsertCallback done = {});
  bool try_submit(ExtractRequest& request, std::future<ExtractResult>& out,
                  ExtractCallback done = {});
  bool try_submit(TraceRequest& request, std::future<TraceBatchResult>& out,
                  TraceCallback done = {});
  bool try_submit(VerifyRequest& request, std::future<VerifyResult>& out,
                  VerifyCallback done = {});

  /// Blocks until every submitted request has completed and no worker task
  /// remains scheduled.
  void drain();

  /// Stops intake, completes queued-but-unstarted requests with ok=false
  /// cancellation slots (futures and callbacks still fire), and waits for
  /// in-flight requests to finish. Idempotent; called by the destructor.
  void shutdown();

  /// Requests currently queued or executing. A request whose future is
  /// ready is never counted (results publish after the in-flight count
  /// drops -- see the file comment).
  size_t pending() const;

  /// True when the next submit() would block on backpressure (queue at
  /// config.max_queue). Advisory -- the state can change before a
  /// subsequent submit -- callers that must stay non-blocking should use
  /// try_submit(), which checks and enqueues under one lock.
  bool queue_full() const;

  /// Snapshot of the async-path lifetime counters.
  Counters counters() const;

  /// Queue-wait (enqueue -> dequeue) latency distribution of the async
  /// path. Recorded lock-free by pump workers; scrape via snapshot(), and
  /// merge snapshots across shard engines at scrape time.
  const obs::Histogram& queue_wait_histogram() const {
    return queue_wait_hist_;
  }

  /// Execution (dequeue -> run returned) latency distribution.
  const obs::Histogram& exec_histogram() const { return exec_hist_; }

  /// Called on the worker after each async result is published (its
  /// future is ready by then): a serving loop installs its wakeup here.
  /// An empty function detaches; see util/wake_hook.h for the guarantee.
  void set_completion_hook(std::function<void()> hook) {
    completion_hook_.set(std::move(hook));
  }

  const EngineConfig& config() const { return config_; }

 private:
  struct QueuedTask {
    std::function<void()> run;      // executes the request into its slot
    std::function<void()> publish;  // callback + promise, after run
    std::function<void()> cancel;   // completes the promise with a rejection
    std::chrono::steady_clock::time_point enqueued_at;
  };

  template <typename Request, typename Result, typename Callback>
  bool enqueue(Request& request, Callback done,
               Result (*runner)(const EngineConfig&, const Request&),
               bool blocking, std::future<Result>& out);

  static InsertResult run_insert(const EngineConfig& config, const InsertRequest& request);
  static ExtractResult run_extract(const EngineConfig& config, const ExtractRequest& request);
  static TraceBatchResult run_trace(const EngineConfig& config, const TraceRequest& request);
  static VerifyResult run_verify(const EngineConfig& config, const VerifyRequest& request);

  size_t worker_cap() const;
  void pump();

  EngineConfig config_;
  ThreadPool* pool_;  // bound at construction (ThreadPool::active())

  mutable std::mutex mutex_;
  std::condition_variable space_cv_;  // submit backpressure
  std::condition_variable idle_cv_;   // drain / shutdown
  std::deque<QueuedTask> queue_;
  size_t running_pumps_ = 0;  // drain tasks scheduled or running on the pool
  size_t in_flight_ = 0;      // requests currently executing
  bool accepting_ = true;
  Counters counters_;
  obs::Histogram queue_wait_hist_;
  obs::Histogram exec_hist_;
  WakeHook completion_hook_;
};

}  // namespace emmark
