#include "wm/engine.h"

#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>

#include "util/rng.h"
#include "util/threadpool.h"
#include "wm/evidence.h"

namespace emmark {

WatermarkEngine::WatermarkEngine(EngineConfig config)
    : config_(config), pool_(&ThreadPool::active()) {}

WatermarkEngine::~WatermarkEngine() { shutdown(); }

uint64_t WatermarkEngine::request_seed(uint64_t base_seed,
                                       const std::string& request_id,
                                       uint64_t lane) {
  // fnv1a64 is byte-stable across platforms (unlike std::hash), so replayed
  // workloads reproduce their seeds anywhere.
  uint64_t state = base_seed ^ fnv1a64(request_id.data(), request_id.size()) ^
                   (lane * 0xbf58476d1ce4e5b9ull);
  return splitmix64(state);
}

namespace {

using InsertRequest = WatermarkEngine::InsertRequest;
using ExtractRequest = WatermarkEngine::ExtractRequest;
using TraceRequest = WatermarkEngine::TraceRequest;
using VerifyRequest = WatermarkEngine::VerifyRequest;

/// Runs one request body into its slot, routing any exception into the
/// slot's error string: a malformed request must not take down the rest
/// of the workload.
template <typename Request, typename Fn>
typename Request::Result run_guarded(const Request& request, const Fn& fn) {
  typename Request::Result slot;
  slot.id = request.id;
  try {
    fn(slot);
    slot.ok = true;
  } catch (const std::exception& e) {
    slot.ok = false;
    slot.error = e.what();
  }
  return slot;
}

template <typename Result>
Result rejection(const std::string& id, const char* why) {
  Result slot;
  slot.id = id;
  slot.error = why;
  return slot;
}

double gate_of(const EngineConfig& config, double min_wer_pct) {
  return min_wer_pct >= 0.0 ? min_wer_pct : config.trace_min_wer_pct;
}

// --- single-request executors: each materializes its payload on the worker
// through the request's factory, then calls the scheme.

WatermarkEngine::InsertResult execute(const EngineConfig& config,
                                      const InsertRequest& request) {
  return run_guarded(request, [&](WatermarkEngine::InsertResult& slot) {
    QuantizedModel* model = request.model_factory ? request.model_factory() : nullptr;
    if (model == nullptr || request.stats == nullptr) {
      throw std::invalid_argument("insert request needs model and stats");
    }
    slot.key = request.key;
    if (request.seed_from_id) {
      slot.key.seed =
          WatermarkEngine::request_seed(config.base_seed, request.id, /*lane=*/0);
      slot.key.signature_seed =
          WatermarkEngine::request_seed(config.base_seed, request.id, /*lane=*/1);
    }
    slot.record = WatermarkRegistry::create(request.scheme)
                      ->insert(*model, *request.stats, slot.key);
  });
}

WatermarkEngine::ExtractResult execute(const EngineConfig& /*config*/,
                                       const ExtractRequest& request) {
  return run_guarded(request, [&](WatermarkEngine::ExtractResult& slot) {
    const auto src = request.sources_factory ? request.sources_factory()
                                             : ExtractRequest::Sources{};
    if (src.suspect == nullptr || src.original == nullptr || src.record == nullptr) {
      throw std::invalid_argument("extract request needs suspect, original, record");
    }
    slot.report = WatermarkRegistry::create(src.record->scheme())
                      ->extract(*src.suspect, *src.original, *src.record);
  });
}

WatermarkEngine::TraceBatchResult execute(const EngineConfig& config,
                                          const TraceRequest& request) {
  return run_guarded(request, [&](WatermarkEngine::TraceBatchResult& slot) {
    const auto src = request.sources_factory ? request.sources_factory()
                                             : TraceRequest::Sources{};
    if (src.suspect == nullptr || src.original == nullptr || src.set == nullptr) {
      throw std::invalid_argument("trace request needs suspect, original, set");
    }
    slot.trace = Fingerprinter::trace(*src.suspect, *src.original, *src.set,
                                      gate_of(config, request.min_wer_pct));
  });
}

WatermarkEngine::VerifyResult execute(const EngineConfig& config,
                                      const VerifyRequest& request) {
  return run_guarded(request, [&](WatermarkEngine::VerifyResult& slot) {
    const auto src = request.sources_factory ? request.sources_factory()
                                             : VerifyRequest::Sources{};
    if (src.suspect == nullptr || src.original == nullptr || src.stats == nullptr ||
        src.evidence == nullptr) {
      throw std::invalid_argument(
          "verify request needs suspect, original, stats, evidence");
    }
    slot.owner = src.evidence->owner;
    slot.scheme = src.evidence->scheme();
    const double gate = gate_of(config, request.min_wer_pct);
    slot.verified =
        src.facts != nullptr
            ? src.evidence->verify(*src.suspect, *src.original, *src.stats,
                                   *src.facts, gate, &slot.why)
            : src.evidence->verify(*src.suspect, *src.original, *src.stats, gate,
                                   &slot.why);
  });
}

}  // namespace

// --- asynchronous path -------------------------------------------------------

template <typename Request>
std::future<typename Request::Result> WatermarkEngine::submit(
    Request request, Callback<Request> done) {
  using Result = typename Request::Result;
  struct Task {
    Request request;
    Callback<Request> done;
    std::promise<Result> promise;
    std::chrono::steady_clock::time_point posted_at;

    void publish(Result slot) {
      if (done) {
        try {
          done(slot);
        } catch (...) {
          // Callback failures must not kill the pool worker or drop the
          // future; the slot still resolves below.
        }
      }
      promise.set_value(std::move(slot));
    }
  };
  auto task = std::make_shared<Task>(Task{std::move(request), std::move(done), {},
                                          std::chrono::steady_clock::now()});
  std::future<Result> out = task->promise.get_future();
  bool accepted = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    accepted = accepting_;
    if (accepted) {
      ++counters_.submitted;
      ++pending_;
      ++tasks_;
    }
  }
  if (!accepted) {
    // Rejected outside the lock: a callback is caller code and may itself
    // touch the engine (pending(), submit()).
    task->publish(rejection<Result>(task->request.id, "engine is shut down"));
    return out;
  }
  pool_->post([this, task = std::move(task)]() mutable {
    const auto started_at = std::chrono::steady_clock::now();
    bool run = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      run = accepting_;
    }
    // execute() never throws: the executor captures errors in the slot.
    Result slot = run ? execute(config_, task->request)
                      : rejection<Result>(task->request.id,
                                          "engine shut down before the request ran");
    if (run) {
      queue_wait_hist_.record_duration(started_at - task->posted_at);
      exec_hist_.record_duration(std::chrono::steady_clock::now() - started_at);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++(!run ? counters_.cancelled : slot.ok ? counters_.completed : counters_.failed);
      --pending_;
    }
    // Published strictly after pending_ dropped: anyone who observes the
    // future ready must never find the request still counted in pending()
    // -- the determinism contract the `stats` verb's live snapshot leans on.
    task->publish(std::move(slot));
    // The caller's closures die before the engine can report idle: they
    // may own state (a session's job) that must not outlive the engine.
    task.reset();
    completion_hook_.fire();
    std::lock_guard<std::mutex> lock(mutex_);
    if (--tasks_ == 0) idle_cv_.notify_all();
  });
  return out;
}

template std::future<WatermarkEngine::InsertResult> WatermarkEngine::submit(
    InsertRequest, Callback<InsertRequest>);
template std::future<WatermarkEngine::ExtractResult> WatermarkEngine::submit(
    ExtractRequest, Callback<ExtractRequest>);
template std::future<WatermarkEngine::TraceBatchResult> WatermarkEngine::submit(
    TraceRequest, Callback<TraceRequest>);
template std::future<WatermarkEngine::VerifyResult> WatermarkEngine::submit(
    VerifyRequest, Callback<VerifyRequest>);

void WatermarkEngine::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] { return tasks_ == 0; });
}

void WatermarkEngine::shutdown() {
  std::unique_lock<std::mutex> lock(mutex_);
  accepting_ = false;
  idle_cv_.wait(lock, [&] { return tasks_ == 0; });
}

size_t WatermarkEngine::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_;
}

WatermarkEngine::Counters WatermarkEngine::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace emmark
