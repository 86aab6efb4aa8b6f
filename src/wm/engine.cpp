#include "wm/engine.h"

#include <exception>
#include <stdexcept>
#include <utility>

#include "util/rng.h"
#include "util/threadpool.h"
#include "wm/evidence.h"

namespace emmark {

WatermarkEngine::WatermarkEngine(EngineConfig config)
    : config_(config), pool_(&ThreadPool::active()) {
  if (config_.max_queue == 0) config_.max_queue = 1;
}

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

size_t WatermarkEngine::worker_cap() const {
  const size_t pool_size = pool_->size() == 0 ? 1 : pool_->size();
  return config_.max_workers == 0 ? pool_size
                                  : std::min(config_.max_workers, pool_size);
}

void WatermarkEngine::pump() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (queue_.empty()) {
        --running_pumps_;
        if (running_pumps_ == 0 && in_flight_ == 0) idle_cv_.notify_all();
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
      space_cv_.notify_one();
    }
    const auto dequeued_at = std::chrono::steady_clock::now();
    queue_wait_hist_.record_duration(dequeued_at - task.enqueued_at);
    task.run();  // never throws: the executor captures errors in the slot
    exec_hist_.record_duration(std::chrono::steady_clock::now() - dequeued_at);
    {
      // The idle notification is owned by the pump exit path: in_flight_
      // can only reach zero while at least this pump is still counted in
      // running_pumps_, so the last exiting pump always observes (and
      // announces) the idle state.
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
    }
    // Publish (callback, then promise) strictly after the in-flight count
    // dropped: anyone who observes the future ready must never find the
    // request still counted in pending() -- the determinism contract the
    // `stats` verb's live snapshot leans on.
    task.publish();
    completion_hook_.fire();
  }
}

template <typename Request>
bool WatermarkEngine::enqueue(Request& request, Callback<Request> done,
                              bool blocking,
                              std::future<typename Request::Result>& out) {
  using Result = typename Request::Result;
  auto promise = std::make_shared<std::promise<Result>>();

  auto reject = [](const Request& req, const Callback<Request>& cb,
                   const std::shared_ptr<std::promise<Result>>& prom,
                   const char* why) {
    Result slot;
    slot.id = req.id;
    slot.ok = false;
    slot.error = why;
    if (cb) {
      try {
        cb(slot);
      } catch (...) {
      }
    }
    prom->set_value(std::move(slot));
  };

  std::unique_lock<std::mutex> lock(mutex_);
  if (blocking) {
    space_cv_.wait(lock, [&] {
      return !accepting_ || queue_.size() < config_.max_queue;
    });
  } else if (accepting_ && queue_.size() >= config_.max_queue) {
    // Refusal leaves `request` and `out` untouched; the caller retries on
    // a later poll. Checked-and-enqueued under one lock.
    return false;
  }
  if (!accepting_) {
    lock.unlock();
    out = promise->get_future();
    reject(request, done, promise, "engine is shut down");
    return true;
  }

  QueuedTask task;
  auto shared_request = std::make_shared<Request>(std::move(request));
  auto shared_done = std::make_shared<Callback<Request>>(std::move(done));
  // run fills this box on the worker; publish consumes it strictly after
  // the engine's in-flight count dropped (see pump()).
  auto slot_box = std::make_shared<Result>();
  task.run = [this, shared_request, slot_box] {
    *slot_box = execute(config_, *shared_request);
    std::lock_guard<std::mutex> count_lock(mutex_);
    slot_box->ok ? ++counters_.completed : ++counters_.failed;
  };
  task.publish = [shared_done, promise, slot_box] {
    if (*shared_done) {
      try {
        (*shared_done)(*slot_box);
      } catch (...) {
        // Callback failures must not kill the pool worker or drop the
        // future; the slot still resolves below.
      }
    }
    promise->set_value(std::move(*slot_box));
  };
  task.cancel = [this, shared_request, shared_done, promise, reject] {
    {
      std::lock_guard<std::mutex> count_lock(mutex_);
      ++counters_.cancelled;
    }
    reject(*shared_request, *shared_done, promise,
           "engine shut down before the request ran");
  };
  ++counters_.submitted;
  task.enqueued_at = std::chrono::steady_clock::now();
  queue_.push_back(std::move(task));
  if (running_pumps_ < worker_cap()) {
    ++running_pumps_;
    pool_->post([this] { pump(); });
  }
  lock.unlock();
  out = promise->get_future();
  return true;
}

template bool WatermarkEngine::enqueue(InsertRequest&, Callback<InsertRequest>, bool,
                                       std::future<InsertResult>&);
template bool WatermarkEngine::enqueue(ExtractRequest&, Callback<ExtractRequest>, bool,
                                       std::future<ExtractResult>&);
template bool WatermarkEngine::enqueue(TraceRequest&, Callback<TraceRequest>, bool,
                                       std::future<TraceBatchResult>&);
template bool WatermarkEngine::enqueue(VerifyRequest&, Callback<VerifyRequest>, bool,
                                       std::future<VerifyResult>&);

void WatermarkEngine::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] {
    return queue_.empty() && in_flight_ == 0 && running_pumps_ == 0;
  });
}

void WatermarkEngine::shutdown() {
  std::deque<QueuedTask> cancelled;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
    cancelled.swap(queue_);
    // Blocked submitters re-check accepting_ and bail out with rejections.
    space_cv_.notify_all();
  }
  // Cancellations complete promises/callbacks outside the lock: a callback
  // is caller code and may itself touch the engine (pending(), submit()).
  for (QueuedTask& task : cancelled) task.cancel();
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] { return in_flight_ == 0 && running_pumps_ == 0; });
}

size_t WatermarkEngine::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size() + in_flight_;
}

WatermarkEngine::Counters WatermarkEngine::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace emmark
