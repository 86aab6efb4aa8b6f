#include "cli/router.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/argparse.h"
#include "util/rng.h"
#include "wm/evidence.h"
#include "wm/fingerprint.h"
#include "wm/scheme.h"

namespace emmark {

// --- command-line options ----------------------------------------------------

void add_router_options(ArgParser& args) {
  args.add_option("cache", "", "zoo checkpoint cache directory (default: auto)");
  args.add_option("capacity", "4", "per-shard resident originals before LRU eviction");
  args.add_option("max-bytes", "0",
                  "per-shard store byte budget over code buffers (0 = entry cap only)");
  args.add_option("shards", "1", "backend shards (ModelStore+engine pairs)");
  args.add_option("train-cap", "0", "cap zoo training steps (0 = full; for dev)");
  args.add_option("base-seed", "0", "engine base seed for seed-from-id requests");
  args.add_option("min-wer", "90", "default verify/trace WER gate (percent)");
  args.add_option("max-queued", "0",
                  "per-shard admission bound: fast-fail new requests with an "
                  "overload error once a shard holds this many queued "
                  "requests (0 = never shed)");
  args.add_option("store-ttl", "0",
                  "evict store entries idle longer than this many seconds "
                  "(0 = keep until LRU pressure)");
  args.add_flag("echo", "echo each parsed command to stderr");
}

RouterConfig router_config_from(const ArgParser& args) {
  RouterConfig config;
  config.cache_dir = args.get("cache");
  config.store_capacity = args.get_uint("capacity");
  config.max_resident_bytes = args.get_uint("max-bytes");
  config.shards = args.get_uint("shards");
  config.train_steps_cap = args.get_int("train-cap");
  config.base_seed = args.get_uint("base-seed");
  config.min_wer_pct = args.get_double("min-wer");
  config.max_queued = args.get_uint("max-queued");
  config.store_ttl_sec = args.get_double("store-ttl");
  config.echo = args.get_flag("echo");
  return config;
}

std::vector<std::string> router_args(const RouterConfig& config) {
  // Shortest form that parses back to the same double (std::to_string's
  // fixed six decimals would turn 1e-7 into 0).
  auto number = [](double value) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  };
  std::vector<std::string> args = {
      "--cache", config.cache_dir,
      "--capacity", std::to_string(config.store_capacity),
      "--max-bytes", std::to_string(config.max_resident_bytes),
      "--train-cap", std::to_string(config.train_steps_cap),
      "--base-seed", std::to_string(config.base_seed),
      "--min-wer", number(config.min_wer_pct),
      "--max-queued", std::to_string(config.max_queued),
      "--store-ttl", number(config.store_ttl_sec),
  };
  if (config.echo) args.push_back("--echo");
  return args;
}

// --- ShardRouter -------------------------------------------------------------

namespace {

constexpr size_t kVnodesPerShard = 64;

/// Ring hash: fnv1a64 (byte-stable) finished through splitmix64. FNV-1a
/// alone has weak avalanche on short, near-identical strings -- vnode
/// labels and zoo spec keys both are -- which left one shard owning ~90%
/// of the ring; the finisher restores uniformity while staying fully
/// deterministic across platforms.
uint64_t ring_hash(const std::string& s) {
  uint64_t state = fnv1a64(s.data(), s.size());
  return splitmix64(state);
}

}  // namespace

ShardRouter::ShardRouter(size_t shards) : shards_(shards == 0 ? 1 : shards) {
  if (shards_ == 1) return;  // ring unused: everything maps to shard 0
  ring_.reserve(shards_ * kVnodesPerShard);
  for (size_t shard = 0; shard < shards_; ++shard) {
    for (size_t v = 0; v < kVnodesPerShard; ++v) {
      const std::string label =
          "shard-" + std::to_string(shard) + "#" + std::to_string(v);
      ring_.emplace_back(ring_hash(label), shard);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

size_t ShardRouter::shard_for(const std::string& key) const {
  if (shards_ == 1) return 0;
  const uint64_t point = ring_hash(key);
  auto it = std::upper_bound(ring_.begin(), ring_.end(),
                             std::make_pair(point, size_t{0}),
                             [](const auto& a, const auto& b) { return a.first < b.first; });
  return it == ring_.end() ? ring_.front().second : it->second;
}

// --- request-lifecycle metrics -----------------------------------------------

/// Pre-registered series behind the `metrics` verb. Registration (a
/// name+label lookup under the registry mutex) happens once, at router
/// construction; the request path only touches the resolved pointers --
/// relaxed atomic increments, per the obs record-path cost contract.
struct RouterMetrics {
  static constexpr size_t kPhases = 4;
  static constexpr const char* kPhaseNames[kPhases] = {"queue", "run", "flush",
                                                       "total"};

  /// One engine verb's series; `verbs` is indexed by the Verb value.
  struct VerbSeries {
    obs::Histogram* latency[kPhases] = {};
    obs::Counter* requests = nullptr;
    obs::Counter* failures = nullptr;
  };
  std::vector<VerbSeries> verbs;
  std::vector<obs::Counter*> shed;  // per shard
  obs::Counter* scrapes = nullptr;

  RouterMetrics(obs::MetricsRegistry& registry, size_t shards)
      : verbs(verb_table().size()) {
    for (const VerbSpec& verb : verb_table()) {
      if (verb.route != VerbSpec::Route::kSpec) continue;
      VerbSeries& series = verbs[static_cast<size_t>(verb.verb)];
      for (size_t p = 0; p < kPhases; ++p) {
        series.latency[p] = &registry.histogram(
            "emmark_request_latency_seconds",
            "Request lifecycle phase latency per verb (queue: parse to "
            "engine submit; run: submit to completion; flush: completion to "
            "response emit; total: parse to emit).",
            {{"verb", verb.name}, {"phase", kPhaseNames[p]}});
      }
      series.requests =
          &registry.counter("emmark_requests_total", "Responses emitted per verb.",
                            {{"verb", verb.name}});
      series.failures = &registry.counter("emmark_request_failures_total",
                                          "Responses with ok=false per verb.",
                                          {{"verb", verb.name}});
    }
    shed.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
      shed.push_back(&registry.counter(
          "emmark_requests_shed_total",
          "Requests fast-failed by admission control (--max-queued).",
          {{"shard", std::to_string(s)}}));
    }
    scrapes = &registry.counter("emmark_metrics_scrapes_total",
                                "metrics-verb scrapes served.");
  }
};

namespace {

// --- artifact claims -----------------------------------------------------------

/// Stable key for read-after-write artifact matching: two spellings of
/// one path ("dep.codes", "./dep.codes") must collide.
std::vector<std::string> artifact_keys(const std::vector<std::string>& paths) {
  std::vector<std::string> keys;
  for (const std::string& path : paths) {
    std::error_code ec;
    const std::filesystem::path canon = std::filesystem::weakly_canonical(path, ec);
    keys.push_back(ec ? path : canon.string());
  }
  return keys;
}

/// True when any of `keys` is claimed by a slot older than `seq`. The
/// sequence comparison makes the artifact gates directional: a slot only
/// ever waits for claims from slots before it, so a reader and a writer of
/// one path -- whichever order they arrived in -- form a chain, never a
/// cycle of mutual deferral.
bool claimed_before(const std::multimap<std::string, uint64_t>& claims,
                    const std::vector<std::string>& keys, uint64_t seq) {
  for (const std::string& key : keys) {
    const auto range = claims.equal_range(key);
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second < seq) return true;
    }
  }
  return false;
}

void release_claims(std::multimap<std::string, uint64_t>& claims,
                    const std::vector<std::string>& keys, uint64_t seq) {
  for (const std::string& key : keys) {
    const auto range = claims.equal_range(key);
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == seq) {
        claims.erase(it);
        break;
      }
    }
  }
}

/// One slot's artifact claims, keyed by artifact_keys().
struct Claims {
  std::vector<std::string> reads, writes;
  uint64_t seq = 0;
};

template <typename Result>
bool future_ready(const std::shared_future<Result>& future) {
  return future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// Lifecycle timestamps for one request. `parse` is stamped at intake,
/// `submit` as the request is handed to the engine, `complete` on the engine
/// worker just before the result future resolves -- the future is the
/// synchronization that makes `complete` safe to read at flush time.
struct RequestStamps {
  std::chrono::steady_clock::time_point parse{};
  std::chrono::steady_clock::time_point submit{};
  std::chrono::steady_clock::time_point complete{};
};

void record_request(const RouterMetrics::VerbSeries& series,
                    const RequestStamps& stamps, bool ok) {
  const auto flush = std::chrono::steady_clock::now();
  constexpr std::chrono::steady_clock::time_point kUnset{};
  series.latency[3]->record_duration(flush - stamps.parse);
  if (stamps.submit != kUnset) {
    series.latency[0]->record_duration(stamps.submit - stamps.parse);
    if (stamps.complete != kUnset) {
      series.latency[1]->record_duration(stamps.complete - stamps.submit);
      series.latency[2]->record_duration(flush - stamps.complete);
    }
  }
  series.requests->inc();
  if (!ok) series.failures->inc();
}

// --- the engine pipeline -------------------------------------------------------
//
// Every engine verb runs one lazy pipeline (Session::start): parse, admit,
// start the model build via ModelStore::get_async, and claim artifacts.
// The slot then waits, re-checked on every poll, for its artifact claims
// to clear and its build future to be ready -- an engine worker must never
// park on a build future, since builds run on the same pool and a small
// pool could deadlock on itself -- and submits to the engine, which posts
// it to the pool at once.
//
// Artifact loads and the suspect deep copy live in the request's lazy
// factory, which the engine invokes on the executing worker -- the session
// thread never touches the filesystem. The blocking variant (block=true,
// used only by the in-order finalizers, where waiting is the contract)
// waits for the build instead. A failed build settles the job with its
// error instead of throwing: the response slot turns it into the same
// error line an intake-time failure produces.
//
// A verb supplies only its engine-request factory and its success step,
// which runs on the worker before the result future resolves: it renders
// the verb's success fields, and insert's also writes its artifacts, so a
// later reader gated on the insert's flush sees the files.

using InsertRequest = WatermarkEngine::InsertRequest;
using ExtractRequest = WatermarkEngine::ExtractRequest;
using TraceRequest = WatermarkEngine::TraceRequest;
using VerifyRequest = WatermarkEngine::VerifyRequest;

struct Job;
/// Resolves the build and hands the job to its engine (see above); a no-op
/// once the job is submitted or failed.
using SubmitStep = void (*)(const std::shared_ptr<Job>& job, bool block);

/// One engine request between intake and response. The request's factory
/// and completion callback capture the job, which pins it until the engine
/// finishes the slot, so an abandoned session can drop its finalizer
/// without dangling the worker.
struct Job {
  ParsedRequest request;
  std::string id;
  WatermarkEngine* engine = nullptr;
  SubmitStep submit = nullptr;
  std::shared_future<ModelHandle> build;
  RequestStamps stamps;
  /// The home shard's deferred count (admission control's load), held
  /// until the request reaches the engine or fails before it.
  std::atomic<size_t>* deferred = nullptr;
  // Set on the session thread once the engine took the request, or the
  // build failed (then settled at once, with the build error as the body).
  ModelHandle handle;
  /// True once the result is in; `block` waits for it.
  std::function<bool(bool block)> settled;
  // Materialized on the engine worker by the request's factory.
  std::unique_ptr<QuantizedModel> model;  // insert target, or suspect copy
  SchemeRecord record;
  FingerprintSet set;
  std::unique_ptr<OwnershipEvidence> evidence;
  // Written on the worker before the result future resolves; read after
  // it resolved, so the promise/future pair is the synchronization.
  bool ok = false;
  std::string body;  // success fields, or the error message

  ~Job() { release_deferred(); }
  void release_deferred() {
    if (deferred != nullptr) deferred->fetch_sub(1, std::memory_order_relaxed);
    deferred = nullptr;
  }
};

template <typename Request, Request (*make)(const std::shared_ptr<Job>&),
          std::string (*succeed)(Job&, const typename Request::Result&)>
void submit_job(const std::shared_ptr<Job>& job, bool block) {
  using Result = typename Request::Result;
  if (job->settled || (!block && !future_ready(job->build))) return;
  try {
    job->handle = job->build.get();
  } catch (const std::exception& e) {
    job->body = e.what();
    job->settled = [](bool) { return true; };
    job->release_deferred();  // never reaching the engine
    return;
  }
  Request request = make(job);
  WatermarkEngine::Callback<Request> done = [job](const Result& slot) {
    job->body = slot.error;
    if (slot.ok) {
      try {
        job->body = succeed(*job, slot);
        job->ok = true;
      } catch (const std::exception& e) {
        job->body = e.what();
      }
    }
    job->stamps.complete = std::chrono::steady_clock::now();
  };
  // Stamped before the engine sees the request: its worker may complete it
  // before submit() returns.
  job->stamps.submit = std::chrono::steady_clock::now();
  job->settled = [result = job->engine->submit(std::move(request), std::move(done))
                                .share()](bool block) {
    if (block) result.wait();
    return future_ready(result);
  };
  job->release_deferred();
}

/// The suspect: a deep copy of the cached original carrying the request's
/// codes.
const QuantizedModel* load_suspect(Job& job) {
  job.model = std::make_unique<QuantizedModel>(*job.handle.original);
  job.model->load_codes(job.request.text("codes"));
  return job.model.get();
}

InsertRequest make_insert(const std::shared_ptr<Job>& job) {
  const ParsedRequest& args = job->request;
  InsertRequest request;
  request.id = job->id;
  request.scheme = args.text("scheme");
  request.key.seed = static_cast<uint64_t>(args.integer("seed"));
  request.key.signature_seed = static_cast<uint64_t>(args.integer("signature-seed"));
  request.key.bits_per_layer = args.integer("bits");
  request.key.candidate_ratio = args.integer("ratio");
  request.seed_from_id = args.integer("seed-from-id") != 0;
  request.stats = job->handle.stats.get();
  // The deep copy of the cached original happens on the engine worker, so
  // even a warm insert costs the session only a queue push, and
  // back-to-back inserts pipeline instead of serializing on copies.
  request.model_factory = [job] {
    job->model = std::make_unique<QuantizedModel>(*job->handle.original);
    return job->model.get();
  };
  return request;
}

std::string insert_success(Job& job, const WatermarkEngine::InsertResult& slot) {
  const ParsedRequest& args = job.request;
  std::string artifacts;
  auto wrote = [&](const char* kind) {
    artifacts +=
        ",\"" + std::string(kind) + "\":\"" + json_escape(args.text(kind)) + "\"";
  };
  if (!args.text("codes").empty()) {
    job.model->save_codes(args.text("codes"));
    wrote("codes");
  }
  if (!args.text("record").empty()) {
    slot.record.save(args.text("record"));
    wrote("record");
  }
  if (!args.text("evidence").empty()) {
    OwnershipEvidence::create(args.text("owner"), slot.record, job.handle.facts,
                              static_cast<uint64_t>(std::time(nullptr)))
        .save(args.text("evidence"));
    wrote("evidence");
  }
  const int64_t total_bits =
      WatermarkRegistry::create(slot.record.scheme())->total_bits(slot.record);
  return ",\"scheme\":\"" + json_escape(slot.record.scheme()) +
         "\",\"total_bits\":" + std::to_string(total_bits) +
         ",\"seed\":" + std::to_string(slot.key.seed) + artifacts;
}

ExtractRequest make_extract(const std::shared_ptr<Job>& job) {
  ExtractRequest request;
  request.id = job->id;
  request.sources_factory = [job] {
    const QuantizedModel* suspect = load_suspect(*job);
    job->record = SchemeRecord::load(job->request.text("record"));
    return ExtractRequest::Sources{suspect, job->handle.original.get(), &job->record};
  };
  return request;
}

std::string extract_success(Job& job, const WatermarkEngine::ExtractResult& slot) {
  return ",\"scheme\":\"" + json_escape(job.record.scheme()) +
         "\",\"wer_pct\":" + json_double(slot.report.wer_pct()) +
         ",\"matched_bits\":" + std::to_string(slot.report.matched_bits) +
         ",\"total_bits\":" + std::to_string(slot.report.total_bits) +
         ",\"strength_log10\":" + json_double(slot.report.strength_log10());
}

VerifyRequest make_verify(const std::shared_ptr<Job>& job) {
  VerifyRequest request;
  request.id = job->id;
  request.min_wer_pct = job->request.number("min-wer");
  request.sources_factory = [job] {
    const QuantizedModel* suspect = load_suspect(*job);
    job->evidence = std::make_unique<OwnershipEvidence>(
        OwnershipEvidence::load(job->request.text("evidence")));
    return VerifyRequest::Sources{suspect, job->handle.original.get(),
                                  job->handle.stats.get(), job->evidence.get(),
                                  &job->handle.facts};
  };
  return request;
}

std::string verify_success(Job&, const WatermarkEngine::VerifyResult& slot) {
  return std::string(",\"verified\":") + (slot.verified ? "true" : "false") +
         ",\"owner\":\"" + json_escape(slot.owner) + "\",\"scheme\":\"" +
         json_escape(slot.scheme) + "\",\"why\":\"" + json_escape(slot.why) + "\"";
}

TraceRequest make_trace(const std::shared_ptr<Job>& job) {
  TraceRequest request;
  request.id = job->id;
  request.min_wer_pct = job->request.number("min-wer");
  request.sources_factory = [job] {
    const QuantizedModel* suspect = load_suspect(*job);
    job->set = FingerprintSet::load(job->request.text("set"));
    return TraceRequest::Sources{suspect, job->handle.original.get(), &job->set};
  };
  return request;
}

std::string trace_success(Job&, const WatermarkEngine::TraceBatchResult& slot) {
  return ",\"device\":\"" + json_escape(slot.trace.device_id) + "\",\"matched\":" +
         (slot.trace.device_id.empty() ? "false" : "true") +
         ",\"wer_pct\":" + json_double(slot.trace.wer_pct) +
         ",\"runner_up_wer_pct\":" + json_double(slot.trace.runner_up_wer_pct) +
         ",\"strength_log10\":" + json_double(slot.trace.strength_log10);
}

/// The verb-specific half of the pipeline, one entry per engine verb.
SubmitStep engine_step(Verb verb) {
  switch (verb) {
    case Verb::kInsert:
      return &submit_job<InsertRequest, make_insert, insert_success>;
    case Verb::kExtract:
      return &submit_job<ExtractRequest, make_extract, extract_success>;
    case Verb::kVerify:
      return &submit_job<VerifyRequest, make_verify, verify_success>;
    case Verb::kTrace:
      return &submit_job<TraceRequest, make_trace, trace_success>;
    default:
      throw std::logic_error("not an engine verb");
  }
}

}  // namespace

// --- RequestRouter -----------------------------------------------------------

RequestRouter::Shard::Shard(const RouterConfig& config)
    : store([&] {
        ModelStoreConfig sc;
        sc.cache_dir = config.cache_dir;
        sc.capacity = config.store_capacity;
        sc.max_resident_bytes = config.max_resident_bytes;
        sc.idle_ttl_sec = config.store_ttl_sec;
        return sc;
      }()),
      engine({config.base_seed, config.min_wer_pct}) {}

RequestRouter::RequestRouter(const RouterConfig& config)
    : config_(config), ring_(config.shards == 0 ? 1 : config.shards) {
  config_.shards = ring_.shards();
  shards_.reserve(config_.shards);
  for (size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(config_));
  }
  metrics_ = std::make_unique<RouterMetrics>(registry_, config_.shards);
}

RequestRouter::~RequestRouter() {
  // Engines shut down before their sibling stores go away (per-shard
  // member order already guarantees it; spelled out for the reader).
  for (auto& shard : shards_) shard->engine.shutdown();
}

void RequestRouter::drain() {
  for (auto& shard : shards_) shard->engine.drain();
}

std::vector<ShardSnapshot> RequestRouter::shard_stats() const {
  std::vector<ShardSnapshot> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.push_back({out.size(), shard->store.stats(), shard->engine.counters(),
                   shard->engine.pending()});
  }
  return out;
}

void RequestRouter::sweep_stores() {
  for (auto& shard : shards_) shard->store.sweep_idle();
}

std::chrono::steady_clock::time_point RequestRouter::next_sweep_at() const {
  auto at = std::chrono::steady_clock::time_point::max();
  for (const auto& shard : shards_) {
    at = std::min(at, shard->store.next_idle_expiry());
  }
  return at;
}

void RequestRouter::set_wakeup(const std::function<void()>& wake) {
  for (auto& shard : shards_) {
    shard->engine.set_completion_hook(wake);
    shard->store.set_build_hook(wake);
  }
}

std::string RequestRouter::metrics_text() {
  metrics_->scrapes->inc();
  obs::Exposition out;
  registry_.expose(out);

  // Shard-derived families: gauges sampled and histograms merged at scrape
  // time, so the engine/store record paths never touch the registry. Every
  // family name is distinct from the registered ones, keeping families
  // contiguous as the exposition format requires.
  const std::vector<ShardSnapshot> snaps = shard_stats();
  using Samples = std::vector<std::pair<const char*, uint64_t>>;
  auto gauge = [&](const char* name, const char* help, auto value) {
    out.family(name, "gauge", help);
    for (size_t i = 0; i < snaps.size(); ++i) {
      out.sample(name, {{"shard", std::to_string(i)}}, static_cast<uint64_t>(value(i)));
    }
  };
  auto counter = [&](const char* name, const char* help, const char* label,
                     auto samples) {
    out.family(name, "counter", help);
    for (size_t i = 0; i < snaps.size(); ++i) {
      for (const auto& [kind, value] : Samples(samples(snaps[i]))) {
        out.sample(name, {{"shard", std::to_string(i)}, {label, kind}}, value);
      }
    }
  };
  auto histogram = [&](const char* name, const char* help, auto of) {
    obs::Histogram::Snapshot merged;
    for (const auto& shard : shards_) merged.merge(of(*shard).snapshot());
    out.family(name, "histogram", help);
    out.histogram(name, {}, merged);
  };

  gauge("emmark_engine_queue_depth",
        "Requests queued or executing on the shard engine.",
        [&](size_t i) { return snaps[i].engine_pending; });
  gauge("emmark_engine_deferred_slots",
        "Requests parsed but not yet handed to the shard engine.",
        [&](size_t i) { return shards_[i]->deferred.load(std::memory_order_relaxed); });
  counter("emmark_engine_requests_total",
          "Lifetime shard-engine async requests by final state.", "state",
          [](const ShardSnapshot& s) {
            return Samples{{"submitted", s.engine.submitted},
                           {"completed", s.engine.completed},
                           {"failed", s.engine.failed},
                           {"cancelled", s.engine.cancelled}};
          });
  histogram("emmark_engine_queue_wait_seconds",
            "Engine enqueue-to-dequeue wait, merged across shards.",
            [](const Shard& s) -> auto& { return s.engine.queue_wait_histogram(); });
  histogram("emmark_engine_exec_seconds",
            "Engine request execution time, merged across shards.",
            [](const Shard& s) -> auto& { return s.engine.exec_histogram(); });

  counter("emmark_store_events_total", "Lifetime shard-store cache events.", "event",
          [](const ShardSnapshot& s) {
            return Samples{{"hit", s.store.hits},
                           {"miss", s.store.misses},
                           {"build", s.store.builds},
                           {"eviction", s.store.evictions}};
          });
  gauge("emmark_store_resident_entries", "Models resident in the shard store.",
        [&](size_t i) { return snaps[i].store.resident; });
  gauge("emmark_store_resident_bytes", "Code-buffer bytes resident in the shard store.",
        [&](size_t i) { return snaps[i].store.resident_bytes; });
  histogram("emmark_store_build_seconds",
            "Cold zoo build duration, merged across shards.",
            [](const Shard& s) -> auto& { return s.store.build_histogram(); });
  histogram("emmark_store_lookup_hit_seconds",
            "Warm store lookup duration, merged across shards.",
            [](const Shard& s) -> auto& { return s.store.hit_histogram(); });
  histogram("emmark_store_miss_to_ready_seconds",
            "Miss-to-ready duration (lookup start until the build landed), "
            "merged across shards.",
            [](const Shard& s) -> auto& { return s.store.miss_histogram(); });

  std::string text = out.text();
  text += "# EOF";
  return text;
}

std::unique_ptr<RequestRouter::Session> RequestRouter::open_session() {
  return std::unique_ptr<Session>(new Session(*this));
}

// --- Session -----------------------------------------------------------------

RequestRouter::Session::~Session() {
  // A session abandoned mid-flight (connection reset) discards its
  // unflushed results: the finalizers are dropped, not run -- running
  // them would block this thread (the server's event loop) on engine
  // futures for a peer that is gone. Engine-side work stays memory-safe
  // without them: every submitted request keeps its Job alive via a
  // shared_ptr capture (the request's lazy factory and its completion
  // callback), so a still-executing request never dangles.
  pending_.clear();
}

void RequestRouter::Session::advance_pending() {
  for (PendingOutput& slot : pending_) {
    if (slot.advance) slot.advance();
  }
}

bool RequestRouter::Session::flush_pending(bool block, const LineSink& emit) {
  bool emitted = false;
  while (!pending_.empty()) {
    if (!block && !pending_.front().ready()) break;
    PendingOutput slot = std::move(pending_.front());
    pending_.pop_front();
    emit(slot.finalize());
    emitted = true;
  }
  return emitted;
}

void RequestRouter::Session::poll(const LineSink& emit) {
  // A flush releases the artifact claims that gate later slots, and no
  // wakeup will come for them: re-advance until a pass flushes nothing (a
  // slot can turn ready at once, e.g. when its build had failed).
  do {
    advance_pending();
  } while (flush_pending(/*block=*/false, emit));
}

void RequestRouter::Session::settle(const LineSink& emit) {
  advance_pending();
  flush_pending(/*block=*/true, emit);
}

void RequestRouter::Session::finish(const LineSink& emit) {
  settle(emit);
  if (quit_) emit(render_quit(submitted_));
}

void RequestRouter::Session::start(const ParsedRequest& request,
                                   const std::string& id) {
  const RouterConfig& config = router_.config_;
  const RouterMetrics::VerbSeries& series =
      router_.metrics_->verbs[static_cast<size_t>(request.verb->verb)];

  // Admission control (--max-queued): shed *before* any work happens -- no
  // build started, no claims taken, not counted submitted -- when the home
  // shard's engine backlog plus its deferred (parsed-but-unsubmitted)
  // slots are at the bound. Per shard: a burst into one shard sheds
  // without touching warm traffic homed on the others. The overload line
  // is a normal error line plus "shed":true, so clients can tell overload
  // from request failure.
  const size_t index = router_.shard_for(request.spec);
  Shard& home = router_.shard(index);
  if (config.max_queued > 0) {
    const size_t load =
        home.deferred.load(std::memory_order_relaxed) + home.engine.pending();
    if (load >= config.max_queued) {
      router_.metrics_->shed[index]->inc();
      series.requests->inc();
      series.failures->inc();
      ++failed_;
      pending_.push_back(PendingOutput::line(error_line(
          id, request.verb->name,
          "overloaded: shard " + std::to_string(index) + " has " +
              std::to_string(load) + " queued requests (bound " +
              std::to_string(config.max_queued) + "); retry later",
          "shed")));
      return;
    }
  }

  auto job = std::make_shared<Job>();
  job->request = request;
  job->id = id;
  job->engine = &home.engine;
  job->submit = engine_step(request.verb->verb);
  job->stamps.parse = std::chrono::steady_clock::now();
  job->deferred = &home.deferred;
  home.deferred.fetch_add(1, std::memory_order_relaxed);

  // Cold builds run on the pool behind the store's shared future; the
  // engine submission happens from this session's advance path once the
  // future resolves, so intake never stalls on zoo training and no engine
  // worker parks on a build.
  job->build = home.store.get_async(request.spec);

  // Claimed last: nothing after this can throw and leave stale claims
  // that would serialize the rest of the session.
  Claims claims{artifact_keys(request.artifacts(ParamSpec::Artifact::kRead)),
                artifact_keys(request.artifacts(ParamSpec::Artifact::kWrite)),
                ++slot_seq_};
  for (const std::string& key : claims.reads) pending_reads_.emplace(key, claims.seq);
  for (const std::string& key : claims.writes) pending_writes_.emplace(key, claims.seq);
  ++submitted_;

  // A reader defers behind earlier writers of its paths; a writer also
  // behind earlier readers (they must load the old bytes) -- so a
  // read/write pair on one path chains in request order instead of
  // deadlocking, and writers are last-writer-wins in request order.
  auto advance = [this, job, claims] {
    if (!claimed_before(pending_writes_, claims.reads, claims.seq) &&
        !claimed_before(pending_writes_, claims.writes, claims.seq) &&
        !claimed_before(pending_reads_, claims.writes, claims.seq)) {
      job->submit(job, /*block=*/false);
    }
  };
  advance();
  pending_.push_back(PendingOutput{
      std::move(advance),
      [job] { return job->settled && job->settled(/*block=*/false); },
      [this, job, claims, &series]() -> std::string {
        // Blocking is the contract here: finalizers run in request order,
        // so every earlier claim on these paths has already been released
        // (its reads/writes happened before its future resolved) and the
        // gate can be bypassed.
        job->submit(job, /*block=*/true);
        job->settled(/*block=*/true);
        const bool ok = job->ok;
        ok ? ++completed_ : ++failed_;
        // The paths stop being owed once the response flushed (written /
        // read, or never going to be).
        release_claims(pending_reads_, claims.reads, claims.seq);
        release_claims(pending_writes_, claims.writes, claims.seq);
        record_request(series, job->stamps, ok);
        const std::string cmd = job->request.verb->name;
        if (!ok) return error_line(job->id, cmd, job->body);
        return "{\"id\":\"" + json_escape(job->id) + "\",\"cmd\":\"" + cmd +
               "\",\"ok\":true" + job->body + "}";
      }});
}

bool RequestRouter::Session::handle_line(const std::string& line,
                                         const LineSink& emit) {
  const RouterConfig& config = router_.config_;

  // Skip blanks and comment lines.
  const std::vector<std::string> tokens = tokenize(line);
  if (tokens.empty() || tokens[0][0] == '#') {
    poll(emit);
    return !quit_;
  }
  const std::string& cmd = tokens[0];
  if (config.echo) std::fprintf(stderr, "[serve] %s\n", line.c_str());

  std::string id;
  try {
    const Params params = Params::parse(tokens);
    id = params.get("id", "req-" + std::to_string(++auto_id_));
    // The whole line parses before anything else happens: a rejected line
    // starts no build and takes no claims.
    const ParsedRequest request = parse_request(cmd, params, config.train_steps_cap);
    switch (request.verb->verb) {
      case Verb::kQuit:
        quit_ = true;
        break;
      case Verb::kStats:
        // Deferred like every other verb (the line flushes in request
        // order), but the snapshot is computed at flush time and is *live*:
        // it settles only this session's earlier slots -- by virtue of
        // flushing after them -- and never drains the router. Another
        // session's in-flight work shows up as engine pending counts
        // instead of stalling this response behind it.
        pending_.push_back(PendingOutput{
            /*advance=*/{}, [] { return true; }, [this, id] {
              return render_stats(
                  {.id = id,
                   .capacity = router_.config_.store_capacity * router_.shards_.size(),
                   .submitted = submitted_, .completed = completed_, .failed = failed_,
                   .shards = router_.shard_stats()});
            }});
        break;
      case Verb::kMetrics:
        // Prometheus text exposition (docs/PROTOCOL.md §5): the one verb
        // whose response is multi-line, terminated by a `# EOF` line. The
        // slot flushes in request order like any other, and the snapshot is
        // live like `stats` -- computed at flush, never draining anyone.
        // Scrapes do not count into submitted_ (the stats JSON stays
        // byte-compatible whether or not anyone scrapes).
        pending_.push_back(PendingOutput{
            /*advance=*/{}, [] { return true; },
            [this]() -> std::string { return router_.metrics_text(); }});
        break;
      default:
        start(request, id);
    }
  } catch (const std::exception& e) {
    ++failed_;
    pending_.push_back(PendingOutput::line(error_line(
        id.empty() ? "req-" + std::to_string(++auto_id_) : id, cmd, e.what())));
  }
  poll(emit);
  return !quit_;
}

}  // namespace emmark
