// WatermarkEngine: the service front-door over the scheme registry.
//
// A vendor operating at fleet scale does not watermark one model at a time:
// deployments arrive as streams of requests spanning many models, devices
// and schemes. submit() posts each request to the bound ThreadPool as one
// task and returns a std::future immediately. The pool's FIFO is the only
// queue: requests from every engine sharing a pool start in arrival order,
// so no request waits behind one that arrived after it.
// An optional completion callback fires on the worker right before the
// future becomes ready. drain() blocks until the engine is idle;
// shutdown() stops intake and waits for every posted task. A task that
// starts after shutdown() resolves its slot as cancelled (ok=false, and
// the future and callback still fire), so shutdown -- and the destructor
// -- is safe with requests still queued. A batch is submit-all-then-wait.
//
// Guarantees:
//
//   * One result slot per request -- a failed request reports {ok=false,
//     error} in its slot instead of aborting anything else (service
//     semantics, unlike the throwing library calls).
//   * Deterministic per-request seeding: requests flagged `seed_from_id`
//     get their key seeds derived from (config.base_seed, request id), so a
//     replayed workload reproduces every placement regardless of request
//     order, worker interleaving, or thread count -- and two requests
//     never share a seed unless they share an id. Results equal direct
//     WatermarkRegistry scheme calls with the same keys at every pool size.
//   * A ready future implies the request is no longer pending(): results
//     are published (callback, then promise) only after the engine's
//     pending count dropped, so an observer that saw the future resolve
//     never finds the same request still counted as pending -- the
//     property that keeps `stats` snapshots deterministic after a session
//     settled its own slots.
//
// One request shape: every request carries a lazy factory (model_factory
// for insert, sources_factory for the rest) that the executing worker
// invokes to materialize its payload, so deep copies and artifact loads
// cost the submitting thread nothing. The pointees it returns stay
// caller-owned until the result is observed (future ready, or callback).
//
// A request runs start to finish on one pool worker; any parallel_for it
// calls runs inline there (util/threadpool.h). The engine binds
// ThreadPool::active() at construction; create the engine inside a
// ScopedOverride to pin it to a private pool, and destroy the engine before
// that pool.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "util/wake_hook.h"
#include "wm/fingerprint.h"
#include "wm/scheme.h"

namespace emmark {

class ThreadPool;
struct OriginalFacts;
struct OwnershipEvidence;

struct EngineConfig {
  /// Base for deterministic per-request seed derivation (seed_from_id).
  uint64_t base_seed = 0;
  /// Verdict gate applied to trace/verify requests that do not set their own.
  double trace_min_wer_pct = 90.0;
};

class WatermarkEngine {
 public:
  /// Lifetime counters, exposed so a serving layer that owns one engine
  /// per shard can report per-shard load without wrapping every
  /// submission.
  struct Counters {
    uint64_t submitted = 0;  // accepted submit() calls
    uint64_t completed = 0;  // executed requests whose slot reported ok
    uint64_t failed = 0;     // executed requests whose slot reported !ok
    uint64_t cancelled = 0;  // requests whose task started after shutdown()
  };

  /// What every result slot carries: the request id, and either ok or the
  /// error that failed the request.
  struct Outcome {
    std::string id;
    bool ok = false;
    std::string error;
  };

  struct InsertResult : Outcome {
    WatermarkKey key;  // effective key (post seed derivation)
    SchemeRecord record;
  };
  struct InsertRequest {
    using Result = InsertResult;
    std::string id;                 // unique within the workload
    std::string scheme = "emmark";  // registry key
    /// Materializes the model to watermark in place (e.g. a deep copy of
    /// a shared ModelStore handle); the returned model stays caller-owned.
    std::function<QuantizedModel*()> model_factory;
    const ActivationStats* stats = nullptr;
    WatermarkKey key;
    /// Overwrite key.seed / key.signature_seed from (base_seed, id).
    bool seed_from_id = false;
  };

  struct ExtractResult : Outcome {
    ExtractionReport report;
  };
  struct ExtractRequest {
    using Result = ExtractResult;
    std::string id;
    struct Sources {
      const QuantizedModel* suspect = nullptr;
      const QuantizedModel* original = nullptr;
      const SchemeRecord* record = nullptr;  // carries its scheme tag
    };
    /// Materializes the payload (suspect deep copy, load_codes,
    /// SchemeRecord::load); exceptions it throws fail only this slot.
    std::function<Sources()> sources_factory;
  };

  struct TraceBatchResult : Outcome {
    TraceResult trace;
  };
  struct TraceRequest {
    using Result = TraceBatchResult;
    std::string id;
    /// Negative = use config.trace_min_wer_pct.
    double min_wer_pct = -1.0;
    struct Sources {
      const QuantizedModel* suspect = nullptr;
      const QuantizedModel* original = nullptr;
      const FingerprintSet* set = nullptr;
    };
    std::function<Sources()> sources_factory;
  };

  /// Arbiter-side evidence audit (OwnershipEvidence::verify) as an engine
  /// verb, so a serving layer can run it off the intake thread like every
  /// other request.
  struct VerifyResult : Outcome {
    bool verified = false;  // the audit verdict (ok=true either way)
    std::string owner;      // from the evidence bundle
    std::string scheme;
    std::string why;  // human-readable reason when verified=false
  };
  struct VerifyRequest {
    using Result = VerifyResult;
    std::string id;
    /// Negative = use config.trace_min_wer_pct.
    double min_wer_pct = -1.0;
    struct Sources {
      const QuantizedModel* suspect = nullptr;
      const QuantizedModel* original = nullptr;
      const ActivationStats* stats = nullptr;
      const OwnershipEvidence* evidence = nullptr;
      /// The facts of `original` and `stats` (a ModelHandle's); null
      /// computes them for this request alone.
      const OriginalFacts* facts = nullptr;
    };
    std::function<Sources()> sources_factory;
  };

  /// Runs on the worker that executed the request, with the result the
  /// future delivers.
  template <typename Request>
  using Callback = std::function<void(const typename Request::Result&)>;

  explicit WatermarkEngine(EngineConfig config = {});
  ~WatermarkEngine();

  WatermarkEngine(const WatermarkEngine&) = delete;
  WatermarkEngine& operator=(const WatermarkEngine&) = delete;

  /// Deterministic seed for a request id (stable across platforms; FNV-1a
  /// into SplitMix64, salted by `lane` for independent streams).
  static uint64_t request_seed(uint64_t base_seed, const std::string& request_id,
                               uint64_t lane = 0);

  /// Posts the request to the pool and returns at once. Callback
  /// exceptions are swallowed. After shutdown() the future resolves at
  /// once with an ok=false rejection slot. Instantiated in engine.cpp for
  /// the four request types.
  template <typename Request>
  std::future<typename Request::Result> submit(Request request,
                                               Callback<Request> done = {});

  /// Blocks until every posted task has finished.
  void drain();

  /// Stops intake and waits for every posted task: those that start from
  /// now on resolve their slots as ok=false cancellations (futures and
  /// callbacks still fire). Idempotent; called by the destructor.
  void shutdown();

  /// Requests posted and not yet published. A request whose future is
  /// ready is never counted (results publish after the count drops -- see
  /// the file comment).
  size_t pending() const;

  /// Snapshot of the lifetime counters.
  Counters counters() const;

  /// Queue-wait (submit -> task start) latency distribution. Recorded
  /// lock-free by pool workers; scrape via snapshot(), and merge snapshots
  /// across shard engines at scrape time.
  const obs::Histogram& queue_wait_histogram() const {
    return queue_wait_hist_;
  }

  /// Execution (task start -> run returned) latency distribution.
  const obs::Histogram& exec_histogram() const { return exec_hist_; }

  /// Called on the worker after each result is published (its future is
  /// ready by then): a serving loop installs its wakeup here. An empty
  /// function detaches; see util/wake_hook.h for the guarantee.
  void set_completion_hook(std::function<void()> hook) {
    completion_hook_.set(std::move(hook));
  }

  const EngineConfig& config() const { return config_; }

 private:
  EngineConfig config_;
  ThreadPool* pool_;  // bound at construction (ThreadPool::active())

  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;  // drain / shutdown
  size_t pending_ = 0;  // requests posted and not yet published
  size_t tasks_ = 0;    // posted tasks not yet finished (>= pending_)
  bool accepting_ = true;
  Counters counters_;
  obs::Histogram queue_wait_hist_;
  obs::Histogram exec_hist_;
  WakeHook completion_hook_;
};

}  // namespace emmark
