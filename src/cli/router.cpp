#include "cli/router.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "model_zoo/zoo.h"
#include "util/rng.h"
#include "wm/evidence.h"
#include "wm/fingerprint.h"
#include "wm/scheme.h"

namespace emmark {

QuantMethod parse_quant_spec(const std::string& spec, ArchFamily family) {
  if (spec == "int8") {
    return family == ArchFamily::kOptStyle ? QuantMethod::kSmoothQuantInt8
                                           : QuantMethod::kLlmInt8;
  }
  if (spec == "int4") return QuantMethod::kAwqInt4;
  for (QuantMethod method :
       {QuantMethod::kRtnInt8, QuantMethod::kSmoothQuantInt8, QuantMethod::kLlmInt8,
        QuantMethod::kRtnInt4, QuantMethod::kAwqInt4, QuantMethod::kGptqInt4}) {
    if (spec == to_string(method)) return method;
  }
  throw std::invalid_argument(
      "unknown quant spec: " + spec +
      " (use int4, int8, or an explicit method like awq-int4)");
}

// --- ShardRouter -------------------------------------------------------------

namespace {

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

ShardRouter::ShardRouter(size_t shards, size_t vnodes_per_shard)
    : shards_(shards == 0 ? 1 : shards) {
  if (shards_ == 1) return;  // ring unused: everything maps to shard 0
  ring_.reserve(shards_ * vnodes_per_shard);
  for (size_t shard = 0; shard < shards_; ++shard) {
    for (size_t v = 0; v < vnodes_per_shard; ++v) {
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
  static constexpr size_t kVerbs = 4;
  static constexpr const char* kVerbNames[kVerbs] = {"insert", "extract",
                                                     "trace", "verify"};
  static constexpr size_t kPhases = 4;
  static constexpr const char* kPhaseNames[kPhases] = {"queue", "run", "flush",
                                                       "total"};

  obs::Histogram* latency[kVerbs][kPhases];
  obs::Counter* requests[kVerbs];
  obs::Counter* failures[kVerbs];
  std::vector<obs::Counter*> shed;  // per shard
  obs::Counter* scrapes = nullptr;

  RouterMetrics(obs::MetricsRegistry& registry, size_t shards) {
    for (size_t v = 0; v < kVerbs; ++v) {
      for (size_t p = 0; p < kPhases; ++p) {
        latency[v][p] = &registry.histogram(
            "emmark_request_latency_seconds",
            "Request lifecycle phase latency per verb (queue: parse to "
            "engine submit; run: submit to completion; flush: completion to "
            "response emit; total: parse to emit).",
            {{"verb", kVerbNames[v]}, {"phase", kPhaseNames[p]}});
      }
      requests[v] =
          &registry.counter("emmark_requests_total", "Responses emitted per verb.",
                            {{"verb", kVerbNames[v]}});
      failures[v] = &registry.counter("emmark_request_failures_total",
                                      "Responses with ok=false per verb.",
                                      {{"verb", kVerbNames[v]}});
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

// --- wire helpers ------------------------------------------------------------

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// `key=value` parameters following the command word. Numeric getters
/// reject values with trailing garbage ("bits=8x"): std::stoll/std::stod
/// stop at the first non-numeric character, so only a fully-consumed
/// string counts as a number.
struct Params {
  std::map<std::string, std::string> kv;

  std::string get(const std::string& key, const std::string& def) const {
    const auto it = kv.find(key);
    return it == kv.end() ? def : it->second;
  }
  std::string require(const std::string& key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) throw std::invalid_argument("missing parameter: " + key);
    return it->second;
  }
  int64_t get_int(const std::string& key, int64_t def) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return def;
    try {
      size_t consumed = 0;
      const int64_t value = std::stoll(it->second, &consumed);
      if (consumed != it->second.size()) {
        throw std::invalid_argument("trailing characters");
      }
      return value;
    } catch (const std::exception&) {
      throw std::invalid_argument("parameter " + key + " expects an integer, got: " +
                                  it->second);
    }
  }
  double get_double(const std::string& key, double def) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return def;
    try {
      size_t consumed = 0;
      const double value = std::stod(it->second, &consumed);
      if (consumed != it->second.size()) {
        throw std::invalid_argument("trailing characters");
      }
      return value;
    } catch (const std::exception&) {
      throw std::invalid_argument("parameter " + key + " expects a number, got: " +
                                  it->second);
    }
  }
};

Params parse_params(const std::vector<std::string>& tokens) {
  Params params;
  for (size_t i = 1; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("expected key=value, got: " + tokens[i]);
    }
    params.kv[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
  }
  return params;
}

/// Stable key for read-after-write artifact matching: two spellings of
/// one path ("dep.codes", "./dep.codes") must collide.
std::string artifact_key(const std::string& path) {
  std::error_code ec;
  const std::filesystem::path canon = std::filesystem::weakly_canonical(path, ec);
  return ec ? path : canon.string();
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

/// Drops a slot's artifact claims when its finalizer exits, success or
/// error: the paths stop being owed once the response flushed (written /
/// read, or never going to be).
struct ClaimRelease {
  std::multimap<std::string, uint64_t>& claims;
  const std::vector<std::string>& keys;
  uint64_t seq;
  ~ClaimRelease() { release_claims(claims, keys, seq); }
};

std::string error_line(const std::string& id, const std::string& cmd,
                       const std::string& error) {
  return "{\"id\":\"" + json_escape(id) + "\",\"cmd\":\"" + json_escape(cmd) +
         "\",\"ok\":false,\"error\":\"" + json_escape(error) + "\"}";
}

template <typename Result>
bool future_ready(const std::shared_future<Result>& future) {
  return future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

WatermarkKey key_from(const Params& params) {
  WatermarkKey key;
  key.seed = static_cast<uint64_t>(params.get_int("seed", 100));
  key.signature_seed =
      static_cast<uint64_t>(params.get_int("signature-seed", 424242));
  key.bits_per_layer = params.get_int("bits", 8);
  key.candidate_ratio = params.get_int("ratio", 10);
  return key;
}

constexpr size_t kInsertVerb = 0;
constexpr size_t kExtractVerb = 1;
constexpr size_t kTraceVerb = 2;
constexpr size_t kVerifyVerb = 3;

size_t verb_index(const std::string& cmd) {
  if (cmd == "insert") return kInsertVerb;
  if (cmd == "extract") return kExtractVerb;
  if (cmd == "trace") return kTraceVerb;
  return kVerifyVerb;
}

/// Lifecycle timestamps for one request. `parse` is stamped at intake,
/// `submit` when the engine accepts the request, `complete` on the engine
/// worker just before the result future resolves -- the future is the
/// synchronization that makes `complete` safe to read at flush time.
struct RequestStamps {
  std::chrono::steady_clock::time_point parse{};
  std::chrono::steady_clock::time_point submit{};
  std::chrono::steady_clock::time_point complete{};
};

/// RAII deferred-slot accounting against the request's home shard: armed
/// at parse, released when the request reaches the engine (or permanently
/// fails before it; the destructor covers abandoned sessions). The count
/// feeds the admission-control load and the deferred-slots gauge.
class DeferredSlot {
 public:
  DeferredSlot() = default;
  DeferredSlot(const DeferredSlot&) = delete;
  DeferredSlot& operator=(const DeferredSlot&) = delete;
  ~DeferredSlot() { release(); }

  void arm(std::atomic<size_t>& count) {
    release();
    count_ = &count;
    count_->fetch_add(1, std::memory_order_relaxed);
  }
  void release() {
    if (count_ != nullptr) {
      count_->fetch_sub(1, std::memory_order_relaxed);
      count_ = nullptr;
    }
  }

 private:
  std::atomic<size_t>* count_ = nullptr;
};

/// Thrown by the admission check; handle_line turns it into the
/// structured overload error line (`"shed":true`, docs/PROTOCOL.md §7).
struct OverloadError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void record_request(RouterMetrics& metrics, size_t verb,
                    const RequestStamps& stamps, bool ok) {
  const auto flush = std::chrono::steady_clock::now();
  constexpr std::chrono::steady_clock::time_point kUnset{};
  metrics.latency[verb][3]->record_duration(flush - stamps.parse);
  if (stamps.submit != kUnset) {
    metrics.latency[verb][0]->record_duration(stamps.submit - stamps.parse);
    if (stamps.complete != kUnset) {
      metrics.latency[verb][1]->record_duration(stamps.complete -
                                                stamps.submit);
      metrics.latency[verb][2]->record_duration(flush - stamps.complete);
    }
  }
  metrics.requests[verb]->inc();
  if (!ok) metrics.failures[verb]->inc();
}

/// Scoped flush-time recorder for a verb finalizer: destruction stamps the
/// flush and records every phase; the finalizer flips `ok` on success.
struct RequestRecord {
  RouterMetrics& metrics;
  size_t verb;
  const RequestStamps& stamps;
  bool ok = false;
  ~RequestRecord() { record_request(metrics, verb, stamps, ok); }
};

// --- per-verb lazy pipelines -------------------------------------------------
//
// Every verb follows one shape. handle_line fills a ctx with the parsed
// parameters and the model build future (ModelStore::get_async), then the
// submit helper moves the request toward the engine in two non-blocking
// steps retried on every poll:
//
//   1. the build future must be ready (an engine worker must never park on
//      a build future -- builds run on the same pool, so a small pool
//      could deadlock on itself);
//   2. the engine must accept it (try_submit; a full queue defers to the
//      next poll instead of parking the event loop).
//
// Artifact loads and the suspect deep copy live in the request's lazy
// sources factory, which the engine invokes on the executing worker -- the
// session thread never touches the filesystem. The blocking variant
// (block=true, used only by the in-order finalizers, where waiting is the
// contract) resolves the build and submits with backpressure in one call.
// A failed build lands in ctx.fail_error instead of throwing: the response
// slot turns it into the same error line an intake-time failure used to
// produce.

template <typename Result, typename Ctx, typename MakeRequest>
bool submit_lazy(const std::shared_ptr<Ctx>& ctx, bool block,
                 MakeRequest make_request,
                 std::function<void(const Result&)> done = {}) {
  if (ctx->result != nullptr || !ctx->fail_error.empty()) return true;
  if (!block && !future_ready(ctx->build)) return false;
  try {
    ctx->handle = ctx->build.get();
  } catch (const std::exception& e) {
    ctx->fail_error = e.what();
    ctx->deferred.release();  // never reaching the engine
    return true;
  }
  auto request = make_request();
  if (block) {
    ctx->result = std::make_shared<std::shared_future<Result>>(
        ctx->engine->submit(std::move(request), std::move(done)).share());
    ctx->stamps.submit = std::chrono::steady_clock::now();
    ctx->deferred.release();
    return true;
  }
  std::future<Result> out;
  if (!ctx->engine->try_submit(request, out, std::move(done))) return false;
  ctx->result = std::make_shared<std::shared_future<Result>>(out.share());
  ctx->stamps.submit = std::chrono::steady_clock::now();
  ctx->deferred.release();
  return true;
}

/// Everything an insert needs between intake and response. The worker that
/// executes the request also writes the artifacts (completion callback):
/// codes, record and evidence hit disk before the result future becomes
/// ready, so a later reader gated on this slot's flush sees the files.
struct InsertCtx {
  WatermarkEngine* engine = nullptr;
  std::shared_future<ModelHandle> build;
  ModelHandle handle;
  std::unique_ptr<QuantizedModel> model;
  // Request fields captured at parse time, submitted when the build lands.
  std::string id, scheme;
  WatermarkKey key;
  bool seed_from_id = false;
  std::string codes_path, record_path, evidence_path, owner;
  // Written by the engine worker (completion callback) before the result
  // future resolves; the finalizer reads them after it resolved, so the
  // promise/future pair is the synchronization.
  std::string artifacts_json;
  int64_t total_bits = 0;
  std::string save_error;
  // Set once submitted / failed.
  std::shared_ptr<std::shared_future<WatermarkEngine::InsertResult>> result;
  std::string fail_error;
  RequestStamps stamps;
  DeferredSlot deferred;
};

/// Runs on the engine worker right after the insert executed: persist the
/// requested artifacts and price the response while still off the session
/// thread.
void save_insert_artifacts(const std::shared_ptr<InsertCtx>& ctx,
                           const WatermarkEngine::InsertResult& slot) {
  if (!slot.ok) return;
  try {
    if (!ctx->codes_path.empty()) {
      ctx->model->save_codes(ctx->codes_path);
      ctx->artifacts_json += ",\"codes\":\"" + json_escape(ctx->codes_path) + "\"";
    }
    if (!ctx->record_path.empty()) {
      slot.record.save(ctx->record_path);
      ctx->artifacts_json += ",\"record\":\"" + json_escape(ctx->record_path) + "\"";
    }
    if (!ctx->evidence_path.empty()) {
      OwnershipEvidence::create(ctx->owner, slot.record, *ctx->handle.original,
                                *ctx->handle.stats,
                                static_cast<uint64_t>(std::time(nullptr)))
          .save(ctx->evidence_path);
      ctx->artifacts_json +=
          ",\"evidence\":\"" + json_escape(ctx->evidence_path) + "\"";
    }
    ctx->total_bits = WatermarkRegistry::create(slot.record.scheme())
                          ->total_bits(slot.record);
  } catch (const std::exception& e) {
    ctx->save_error = e.what();
  }
}

bool submit_insert(const std::shared_ptr<InsertCtx>& ctx, bool block) {
  return submit_lazy<WatermarkEngine::InsertResult>(
      ctx, block,
      [&ctx] {
        WatermarkEngine::InsertRequest request;
        request.id = ctx->id;
        request.scheme = ctx->scheme;
        request.key = ctx->key;
        request.seed_from_id = ctx->seed_from_id;
        request.stats = ctx->handle.stats.get();
        // The deep copy of the cached original happens on the engine
        // worker (model_factory), so even a warm insert costs the session
        // only a queue push, and back-to-back inserts pipeline instead of
        // serializing on copies.
        request.model_factory = [ctx] {
          ctx->model = std::make_unique<QuantizedModel>(*ctx->handle.original);
          return ctx->model.get();
        };
        return request;
      },
      std::function<void(const WatermarkEngine::InsertResult&)>(
          [ctx](const WatermarkEngine::InsertResult& slot) {
            save_insert_artifacts(ctx, slot);
            ctx->stamps.complete = std::chrono::steady_clock::now();
          }));
}

struct ExtractCtx {
  WatermarkEngine* engine = nullptr;
  std::shared_future<ModelHandle> build;
  ModelHandle handle;
  std::unique_ptr<QuantizedModel> suspect;
  SchemeRecord record;
  std::string id, codes_path, record_path;
  std::shared_ptr<std::shared_future<WatermarkEngine::ExtractResult>> result;
  std::string fail_error;
  RequestStamps stamps;
  DeferredSlot deferred;
};

bool submit_extract(const std::shared_ptr<ExtractCtx>& ctx, bool block) {
  return submit_lazy<WatermarkEngine::ExtractResult>(
      ctx, block,
      [&ctx] {
        WatermarkEngine::ExtractRequest request;
        request.id = ctx->id;
        // The suspect deep copy and both artifact loads run on the engine
        // worker. The factory capturing ctx also pins it until the engine
        // finishes the slot, so an abandoned session can drop its finalizer
        // without dangling the worker.
        request.sources_factory = [ctx] {
          ctx->suspect = std::make_unique<QuantizedModel>(*ctx->handle.original);
          ctx->suspect->load_codes(ctx->codes_path);
          ctx->record = SchemeRecord::load(ctx->record_path);
          WatermarkEngine::ExtractRequest::Sources src;
          src.suspect = ctx->suspect.get();
          src.original = ctx->handle.original.get();
          src.record = &ctx->record;
          return src;
        };
        return request;
      },
      std::function<void(const WatermarkEngine::ExtractResult&)>(
          [ctx](const WatermarkEngine::ExtractResult&) {
            ctx->stamps.complete = std::chrono::steady_clock::now();
          }));
}

struct TraceCtx {
  WatermarkEngine* engine = nullptr;
  std::shared_future<ModelHandle> build;
  ModelHandle handle;
  std::unique_ptr<QuantizedModel> suspect;
  FingerprintSet set;
  std::string id, codes_path, set_path;
  double min_wer_pct = -1.0;
  std::shared_ptr<std::shared_future<WatermarkEngine::TraceBatchResult>> result;
  std::string fail_error;
  RequestStamps stamps;
  DeferredSlot deferred;
};

bool submit_trace(const std::shared_ptr<TraceCtx>& ctx, bool block) {
  return submit_lazy<WatermarkEngine::TraceBatchResult>(
      ctx, block,
      [&ctx] {
        WatermarkEngine::TraceRequest request;
        request.id = ctx->id;
        request.min_wer_pct = ctx->min_wer_pct;
        request.sources_factory = [ctx] {
          ctx->suspect = std::make_unique<QuantizedModel>(*ctx->handle.original);
          ctx->suspect->load_codes(ctx->codes_path);
          ctx->set = FingerprintSet::load(ctx->set_path);
          WatermarkEngine::TraceRequest::Sources src;
          src.suspect = ctx->suspect.get();
          src.original = ctx->handle.original.get();
          src.set = &ctx->set;
          return src;
        };
        return request;
      },
      std::function<void(const WatermarkEngine::TraceBatchResult&)>(
          [ctx](const WatermarkEngine::TraceBatchResult&) {
            ctx->stamps.complete = std::chrono::steady_clock::now();
          }));
}

struct VerifyCtx {
  WatermarkEngine* engine = nullptr;
  std::shared_future<ModelHandle> build;
  ModelHandle handle;
  std::unique_ptr<QuantizedModel> suspect;
  std::unique_ptr<OwnershipEvidence> evidence;
  std::string id, codes_path, evidence_path;
  double min_wer_pct = -1.0;
  std::shared_ptr<std::shared_future<WatermarkEngine::VerifyResult>> result;
  std::string fail_error;
  RequestStamps stamps;
  DeferredSlot deferred;
};

bool submit_verify(const std::shared_ptr<VerifyCtx>& ctx, bool block) {
  return submit_lazy<WatermarkEngine::VerifyResult>(
      ctx, block,
      [&ctx] {
        WatermarkEngine::VerifyRequest request;
        request.id = ctx->id;
        request.min_wer_pct = ctx->min_wer_pct;
        request.sources_factory = [ctx] {
          ctx->suspect = std::make_unique<QuantizedModel>(*ctx->handle.original);
          ctx->suspect->load_codes(ctx->codes_path);
          ctx->evidence = std::make_unique<OwnershipEvidence>(
              OwnershipEvidence::load(ctx->evidence_path));
          WatermarkEngine::VerifyRequest::Sources src;
          src.suspect = ctx->suspect.get();
          src.original = ctx->handle.original.get();
          src.stats = ctx->handle.stats.get();
          src.evidence = ctx->evidence.get();
          return src;
        };
        return request;
      },
      std::function<void(const WatermarkEngine::VerifyResult&)>(
          [ctx](const WatermarkEngine::VerifyResult&) {
            ctx->stamps.complete = std::chrono::steady_clock::now();
          }));
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
      engine([&] {
        EngineConfig ec;
        ec.base_seed = config.base_seed;
        ec.trace_min_wer_pct = config.min_wer_pct;
        ec.max_workers = config.max_workers;
        if (config.engine_queue != 0) ec.max_queue = config.engine_queue;
        return ec;
      }()) {}

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

std::vector<RequestRouter::ShardSnapshot> RequestRouter::shard_stats() const {
  std::vector<ShardSnapshot> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardSnapshot snap;
    snap.store = shard->store.stats();
    snap.engine = shard->engine.counters();
    snap.engine_pending = shard->engine.pending();
    out.push_back(snap);
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
  auto shard_label = [](size_t i) {
    return obs::Labels{{"shard", std::to_string(i)}};
  };

  out.family("emmark_engine_queue_depth", "gauge",
             "Requests queued or executing on the shard engine.");
  for (size_t i = 0; i < shards_.size(); ++i) {
    out.sample("emmark_engine_queue_depth", shard_label(i),
               static_cast<uint64_t>(shards_[i]->engine.pending()));
  }
  out.family("emmark_engine_deferred_slots", "gauge",
             "Requests parsed but not yet handed to the shard engine.");
  for (size_t i = 0; i < shards_.size(); ++i) {
    out.sample("emmark_engine_deferred_slots", shard_label(i),
               static_cast<uint64_t>(
                   shards_[i]->deferred.load(std::memory_order_relaxed)));
  }
  out.family("emmark_engine_requests_total", "counter",
             "Lifetime shard-engine async requests by final state.");
  for (size_t i = 0; i < shards_.size(); ++i) {
    const WatermarkEngine::Counters counters = shards_[i]->engine.counters();
    const std::pair<const char*, uint64_t> states[] = {
        {"submitted", counters.submitted},
        {"completed", counters.completed},
        {"failed", counters.failed},
        {"cancelled", counters.cancelled}};
    for (const auto& [state, value] : states) {
      obs::Labels labels = shard_label(i);
      labels.emplace_back("state", state);
      out.sample("emmark_engine_requests_total", labels, value);
    }
  }

  obs::Histogram::Snapshot queue_wait;
  obs::Histogram::Snapshot exec;
  obs::Histogram::Snapshot build;
  obs::Histogram::Snapshot hit;
  obs::Histogram::Snapshot miss;
  for (const auto& shard : shards_) {
    queue_wait.merge(shard->engine.queue_wait_histogram().snapshot());
    exec.merge(shard->engine.exec_histogram().snapshot());
    build.merge(shard->store.build_histogram().snapshot());
    hit.merge(shard->store.hit_histogram().snapshot());
    miss.merge(shard->store.miss_histogram().snapshot());
  }
  out.family("emmark_engine_queue_wait_seconds", "histogram",
             "Engine enqueue-to-dequeue wait, merged across shards.");
  out.histogram("emmark_engine_queue_wait_seconds", {}, queue_wait);
  out.family("emmark_engine_exec_seconds", "histogram",
             "Engine request execution time, merged across shards.");
  out.histogram("emmark_engine_exec_seconds", {}, exec);

  out.family("emmark_store_events_total", "counter",
             "Lifetime shard-store cache events.");
  for (size_t i = 0; i < shards_.size(); ++i) {
    const ModelStore::Stats stats = shards_[i]->store.stats();
    const std::pair<const char*, uint64_t> events[] = {
        {"hit", stats.hits},
        {"miss", stats.misses},
        {"build", stats.builds},
        {"eviction", stats.evictions}};
    for (const auto& [event, value] : events) {
      obs::Labels labels = shard_label(i);
      labels.emplace_back("event", event);
      out.sample("emmark_store_events_total", labels, value);
    }
  }
  std::vector<ModelStore::Stats> store_stats;
  store_stats.reserve(shards_.size());
  for (const auto& shard : shards_) store_stats.push_back(shard->store.stats());
  out.family("emmark_store_resident_entries", "gauge",
             "Models resident in the shard store.");
  for (size_t i = 0; i < store_stats.size(); ++i) {
    out.sample("emmark_store_resident_entries", shard_label(i),
               static_cast<uint64_t>(store_stats[i].resident));
  }
  out.family("emmark_store_resident_bytes", "gauge",
             "Code-buffer bytes resident in the shard store.");
  for (size_t i = 0; i < store_stats.size(); ++i) {
    out.sample("emmark_store_resident_bytes", shard_label(i),
               store_stats[i].resident_bytes);
  }
  out.family("emmark_store_build_seconds", "histogram",
             "Cold zoo build duration, merged across shards.");
  out.histogram("emmark_store_build_seconds", {}, build);
  out.family("emmark_store_lookup_hit_seconds", "histogram",
             "Warm store lookup duration, merged across shards.");
  out.histogram("emmark_store_lookup_hit_seconds", {}, hit);
  out.family("emmark_store_miss_to_ready_seconds", "histogram",
             "Miss-to-ready duration (lookup start until the build landed), "
             "merged across shards.");
  out.histogram("emmark_store_miss_to_ready_seconds", {}, miss);

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
  // without them: every submitted request keeps its context alive via a
  // shared_ptr capture (the model / sources factories and insert's
  // artifact-save callback), so a still-executing request never dangles.
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
  advance_pending();
  flush_pending(/*block=*/true, emit);
  if (quit_) {
    emit("{\"cmd\":\"quit\",\"ok\":true,\"served\":" + std::to_string(submitted_) +
         "}");
  }
}

bool RequestRouter::Session::handle_line(const std::string& line,
                                         const LineSink& emit) {
  const RouterConfig& config = router_.config_;

  // Tokenize; skip blanks and comment lines.
  std::vector<std::string> tokens;
  {
    std::istringstream split(line);
    std::string token;
    while (split >> token) tokens.push_back(token);
  }
  if (tokens.empty() || tokens[0][0] == '#') {
    poll(emit);
    return !quit_;
  }
  const std::string cmd = tokens[0];
  if (config.echo) std::fprintf(stderr, "[serve] %s\n", line.c_str());

  std::string id;
  try {
    const Params params = parse_params(tokens);
    id = params.get("id", "req-" + std::to_string(++auto_id_));

    auto spec_for = [&] {
      ModelSpec spec;
      spec.model = params.get("model", "opt-125m-sim");
      spec.method = parse_quant_spec(params.get("quant", "int4"),
                                     zoo_entry(spec.model).family);
      spec.train_steps_cap = config.train_steps_cap;
      return spec;
    };

    // Admission control (--max-queued): resolve the home shard and shed
    // *before* any work happens -- no build started, no claims taken, not
    // counted submitted -- when the shard's engine backlog plus its
    // deferred (parsed-but-unsubmitted) slots are at the bound. Per shard:
    // a burst into one shard sheds without touching warm traffic homed on
    // the others.
    auto admit = [&](const ModelSpec& spec) -> Shard& {
      const size_t index = router_.shard_for(spec);
      Shard& home = router_.shard(index);
      if (config.max_queued > 0) {
        const size_t load = home.deferred.load(std::memory_order_relaxed) +
                            home.engine.pending();
        if (load >= config.max_queued) {
          router_.metrics_->shed[index]->inc();
          throw OverloadError("overloaded: shard " + std::to_string(index) +
                              " has " + std::to_string(load) +
                              " queued requests (bound " +
                              std::to_string(config.max_queued) +
                              "); retry later");
        }
      }
      return home;
    };

    if (cmd == "quit") {
      quit_ = true;
    } else if (cmd == "stats") {
      // Deferred like every other verb (the line flushes in request
      // order), but the snapshot is computed at flush time and is *live*:
      // it settles only this session's earlier slots -- by virtue of
      // flushing after them -- and never drains the router. Another
      // session's in-flight work shows up as engine pending counts
      // instead of stalling this response behind it.
      pending_.push_back(PendingOutput{
          /*advance=*/{}, [] { return true; },
          [this, id]() -> std::string {
            const std::vector<ShardSnapshot> shards = router_.shard_stats();
            ModelStore::Stats total;
            size_t engine_pending = 0;
            for (const ShardSnapshot& snap : shards) {
              total.hits += snap.store.hits;
              total.misses += snap.store.misses;
              total.builds += snap.store.builds;
              total.evictions += snap.store.evictions;
              total.resident += snap.store.resident;
              total.resident_bytes += snap.store.resident_bytes;
              engine_pending += snap.engine_pending;
            }
            std::ostringstream json;
            json << "{\"id\":\"" << json_escape(id)
                 << "\",\"cmd\":\"stats\",\"ok\":true"
                 << ",\"store\":{\"hits\":" << total.hits
                 << ",\"misses\":" << total.misses
                 << ",\"builds\":" << total.builds
                 << ",\"evictions\":" << total.evictions
                 << ",\"resident\":" << total.resident
                 << ",\"resident_bytes\":" << total.resident_bytes
                 << ",\"capacity\":"
                 << router_.config_.store_capacity * shards.size() << "}"
                 << ",\"engine\":{\"submitted\":" << submitted_
                 << ",\"completed\":" << completed_ << ",\"failed\":" << failed_
                 << ",\"pending\":" << engine_pending << "}"
                 << ",\"shards\":[";
            for (size_t i = 0; i < shards.size(); ++i) {
              const ShardSnapshot& snap = shards[i];
              json << (i ? "," : "") << "{\"shard\":" << i
                   << ",\"store\":{\"hits\":" << snap.store.hits
                   << ",\"misses\":" << snap.store.misses
                   << ",\"builds\":" << snap.store.builds
                   << ",\"evictions\":" << snap.store.evictions
                   << ",\"resident\":" << snap.store.resident
                   << ",\"resident_bytes\":" << snap.store.resident_bytes << "}"
                   << ",\"engine\":{\"submitted\":" << snap.engine.submitted
                   << ",\"completed\":" << snap.engine.completed
                   << ",\"failed\":" << snap.engine.failed
                   << ",\"cancelled\":" << snap.engine.cancelled
                   << ",\"pending\":" << snap.engine_pending << "}}";
            }
            json << "]}";
            return json.str();
          }});
    } else if (cmd == "insert") {
      auto ctx = std::make_shared<InsertCtx>();
      const ModelSpec spec = spec_for();
      Shard& home = admit(spec);
      ctx->engine = &home.engine;
      ctx->stamps.parse = std::chrono::steady_clock::now();
      ctx->deferred.arm(home.deferred);
      // Cold builds run on the pool behind the store's shared future; the
      // engine submission happens from this session's advance path once
      // the future resolves, so intake never stalls on zoo training and
      // no engine worker parks on a build.
      ctx->build = home.store.get_async(spec);
      ctx->id = id;
      ctx->scheme = params.get("scheme", "emmark");
      ctx->key = key_from(params);
      ctx->seed_from_id = params.get_int("seed-from-id", 0) != 0;
      ctx->codes_path = params.get("codes", "");
      ctx->record_path = params.get("record", "");
      ctx->evidence_path = params.get("evidence", "");
      ctx->owner = params.get("owner", "owner");

      // Every parse step that can throw has run; only now claim the
      // artifact paths (a malformed line must not leave stale claims
      // that would serialize the rest of the session).
      std::vector<std::string> writes;
      for (const std::string* path :
           {&ctx->codes_path, &ctx->record_path, &ctx->evidence_path}) {
        if (!path->empty()) writes.push_back(artifact_key(*path));
      }
      const uint64_t seq = ++slot_seq_;
      for (const std::string& key : writes) pending_writes_.emplace(key, seq);

      ++submitted_;
      // A writer defers behind earlier readers of its paths (they must
      // load the old bytes) and earlier writers (last-writer-wins in
      // request order).
      auto advance = [this, ctx, writes, seq] {
        if (!claimed_before(pending_writes_, writes, seq) &&
            !claimed_before(pending_reads_, writes, seq)) {
          submit_insert(ctx, /*block=*/false);
        }
      };
      advance();
      pending_.push_back(PendingOutput{
          std::move(advance),
          [ctx] {
            return !ctx->fail_error.empty() ||
                   (ctx->result != nullptr && future_ready(*ctx->result));
          },
          [this, ctx, writes, seq, id]() -> std::string {
            ClaimRelease release{pending_writes_, writes, seq};
            RequestRecord record{*router_.metrics_, kInsertVerb, ctx->stamps};
            // Blocking is the contract here: finalizers run in request
            // order, so every earlier claim on these paths has already
            // been released (its reads/writes happened before its future
            // resolved) and the gate can be bypassed.
            submit_insert(ctx, /*block=*/true);
            if (!ctx->fail_error.empty()) {
              ++failed_;
              return error_line(id, "insert", ctx->fail_error);
            }
            const WatermarkEngine::InsertResult slot = ctx->result->get();
            if (!slot.ok) {
              ++failed_;
              return error_line(id, "insert", slot.error);
            }
            if (!ctx->save_error.empty()) {
              ++failed_;
              return error_line(id, "insert", ctx->save_error);
            }
            ++completed_;
            record.ok = true;
            return "{\"id\":\"" + json_escape(id) +
                   "\",\"cmd\":\"insert\",\"ok\":true,\"scheme\":\"" +
                   json_escape(slot.record.scheme()) +
                   "\",\"total_bits\":" + std::to_string(ctx->total_bits) +
                   ",\"seed\":" + std::to_string(slot.key.seed) +
                   ctx->artifacts_json + "}";
          }});
    } else if (cmd == "extract") {
      auto ctx = std::make_shared<ExtractCtx>();
      const ModelSpec spec = spec_for();
      Shard& home = admit(spec);
      ctx->engine = &home.engine;
      ctx->stamps.parse = std::chrono::steady_clock::now();
      ctx->deferred.arm(home.deferred);
      ctx->build = home.store.get_async(spec);
      ctx->id = id;
      ctx->codes_path = params.require("codes");
      ctx->record_path = params.require("record");

      const std::vector<std::string> reads = {artifact_key(ctx->codes_path),
                                              artifact_key(ctx->record_path)};
      const uint64_t seq = ++slot_seq_;
      for (const std::string& key : reads) pending_reads_.emplace(key, seq);

      ++submitted_;
      // A reader defers only behind earlier writers of its paths; later
      // writers defer behind it (see the insert gate), so a read/write
      // pair on one path chains in request order instead of deadlocking.
      auto advance = [this, ctx, reads, seq] {
        if (!claimed_before(pending_writes_, reads, seq)) {
          submit_extract(ctx, /*block=*/false);
        }
      };
      advance();
      pending_.push_back(PendingOutput{
          std::move(advance),
          [ctx] {
            return !ctx->fail_error.empty() ||
                   (ctx->result != nullptr && future_ready(*ctx->result));
          },
          [this, ctx, reads, seq, id]() -> std::string {
            ClaimRelease release{pending_reads_, reads, seq};
            RequestRecord record{*router_.metrics_, kExtractVerb, ctx->stamps};
            submit_extract(ctx, /*block=*/true);
            if (!ctx->fail_error.empty()) {
              ++failed_;
              return error_line(id, "extract", ctx->fail_error);
            }
            const WatermarkEngine::ExtractResult slot = ctx->result->get();
            if (!slot.ok) {
              ++failed_;
              return error_line(id, "extract", slot.error);
            }
            ++completed_;
            record.ok = true;
            return "{\"id\":\"" + json_escape(id) +
                   "\",\"cmd\":\"extract\",\"ok\":true,\"scheme\":\"" +
                   json_escape(ctx->record.scheme()) +
                   "\",\"wer_pct\":" + json_double(slot.report.wer_pct()) +
                   ",\"matched_bits\":" + std::to_string(slot.report.matched_bits) +
                   ",\"total_bits\":" + std::to_string(slot.report.total_bits) +
                   ",\"strength_log10\":" +
                   json_double(slot.report.strength_log10()) + "}";
          }});
    } else if (cmd == "trace") {
      auto ctx = std::make_shared<TraceCtx>();
      const ModelSpec spec = spec_for();
      Shard& home = admit(spec);
      ctx->engine = &home.engine;
      ctx->stamps.parse = std::chrono::steady_clock::now();
      ctx->deferred.arm(home.deferred);
      ctx->build = home.store.get_async(spec);
      ctx->id = id;
      ctx->codes_path = params.require("codes");
      ctx->set_path = params.require("set");
      ctx->min_wer_pct = params.get_double("min-wer", -1.0);

      const std::vector<std::string> reads = {artifact_key(ctx->codes_path),
                                              artifact_key(ctx->set_path)};
      const uint64_t seq = ++slot_seq_;
      for (const std::string& key : reads) pending_reads_.emplace(key, seq);

      ++submitted_;
      auto advance = [this, ctx, reads, seq] {
        if (!claimed_before(pending_writes_, reads, seq)) {
          submit_trace(ctx, /*block=*/false);
        }
      };
      advance();
      pending_.push_back(PendingOutput{
          std::move(advance),
          [ctx] {
            return !ctx->fail_error.empty() ||
                   (ctx->result != nullptr && future_ready(*ctx->result));
          },
          [this, ctx, reads, seq, id]() -> std::string {
            ClaimRelease release{pending_reads_, reads, seq};
            RequestRecord record{*router_.metrics_, kTraceVerb, ctx->stamps};
            submit_trace(ctx, /*block=*/true);
            if (!ctx->fail_error.empty()) {
              ++failed_;
              return error_line(id, "trace", ctx->fail_error);
            }
            const WatermarkEngine::TraceBatchResult slot = ctx->result->get();
            if (!slot.ok) {
              ++failed_;
              return error_line(id, "trace", slot.error);
            }
            ++completed_;
            record.ok = true;
            return "{\"id\":\"" + json_escape(id) +
                   "\",\"cmd\":\"trace\",\"ok\":true,\"device\":\"" +
                   json_escape(slot.trace.device_id) + "\",\"matched\":" +
                   (slot.trace.device_id.empty() ? "false" : "true") +
                   ",\"wer_pct\":" + json_double(slot.trace.wer_pct) +
                   ",\"runner_up_wer_pct\":" +
                   json_double(slot.trace.runner_up_wer_pct) +
                   ",\"strength_log10\":" + json_double(slot.trace.strength_log10) +
                   "}";
          }});
    } else if (cmd == "verify") {
      // Arbiter-side audit: an engine verb like the rest, so the evidence
      // load, suspect copy and WER re-extraction all run on a worker.
      auto ctx = std::make_shared<VerifyCtx>();
      const ModelSpec spec = spec_for();
      Shard& home = admit(spec);
      ctx->engine = &home.engine;
      ctx->stamps.parse = std::chrono::steady_clock::now();
      ctx->deferred.arm(home.deferred);
      ctx->build = home.store.get_async(spec);
      ctx->id = id;
      ctx->codes_path = params.require("codes");
      ctx->evidence_path = params.require("evidence");
      ctx->min_wer_pct = params.get_double("min-wer", config.min_wer_pct);

      const std::vector<std::string> reads = {artifact_key(ctx->codes_path),
                                              artifact_key(ctx->evidence_path)};
      const uint64_t seq = ++slot_seq_;
      for (const std::string& key : reads) pending_reads_.emplace(key, seq);

      ++submitted_;
      auto advance = [this, ctx, reads, seq] {
        if (!claimed_before(pending_writes_, reads, seq)) {
          submit_verify(ctx, /*block=*/false);
        }
      };
      advance();
      pending_.push_back(PendingOutput{
          std::move(advance),
          [ctx] {
            return !ctx->fail_error.empty() ||
                   (ctx->result != nullptr && future_ready(*ctx->result));
          },
          [this, ctx, reads, seq, id]() -> std::string {
            ClaimRelease release{pending_reads_, reads, seq};
            RequestRecord record{*router_.metrics_, kVerifyVerb, ctx->stamps};
            submit_verify(ctx, /*block=*/true);
            if (!ctx->fail_error.empty()) {
              ++failed_;
              return error_line(id, "verify", ctx->fail_error);
            }
            const WatermarkEngine::VerifyResult slot = ctx->result->get();
            if (!slot.ok) {
              ++failed_;
              return error_line(id, "verify", slot.error);
            }
            ++completed_;
            record.ok = true;
            return "{\"id\":\"" + json_escape(id) +
                   "\",\"cmd\":\"verify\",\"ok\":true,\"verified\":" +
                   (slot.verified ? "true" : "false") + ",\"owner\":\"" +
                   json_escape(slot.owner) + "\",\"scheme\":\"" +
                   json_escape(slot.scheme) + "\",\"why\":\"" +
                   json_escape(slot.why) + "\"}";
          }});
    } else if (cmd == "metrics") {
      // Prometheus text exposition (docs/PROTOCOL.md §5): the one verb
      // whose response is multi-line, terminated by a `# EOF` line. The
      // slot flushes in request order like any other, and the snapshot is
      // live like `stats` -- computed at flush, never draining anyone.
      // Scrapes do not count into submitted_ (the stats JSON stays
      // byte-compatible whether or not anyone scrapes).
      pending_.push_back(PendingOutput{
          /*advance=*/{}, [] { return true; },
          [this]() -> std::string { return router_.metrics_text(); }});
    } else {
      throw std::invalid_argument(
          "unknown command: " + cmd +
          " (known: insert extract verify trace stats metrics quit)");
    }
  } catch (const OverloadError& e) {
    // Structured fast-fail: a normal error line plus "shed":true so
    // clients can tell overload from request failure, and the per-verb
    // failure counters move with it (the shed counter already did, in
    // admit()).
    ++failed_;
    const size_t verb = verb_index(cmd);
    router_.metrics_->requests[verb]->inc();
    router_.metrics_->failures[verb]->inc();
    const std::string json =
        "{\"id\":\"" + json_escape(id) + "\",\"cmd\":\"" + json_escape(cmd) +
        "\",\"ok\":false,\"error\":\"" + json_escape(e.what()) +
        "\",\"shed\":true}";
    pending_.push_back(PendingOutput{{}, [] { return true; },
                                     [json]() -> std::string { return json; }});
  } catch (const std::exception& e) {
    ++failed_;
    const std::string json =
        error_line(id.empty() ? "req-" + std::to_string(++auto_id_) : id, cmd,
                   e.what());
    pending_.push_back(PendingOutput{{}, [] { return true; },
                                     [json]() -> std::string { return json; }});
  }
  poll(emit);
  return !quit_;
}

}  // namespace emmark
