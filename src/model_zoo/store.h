// ModelStore: a thread-safe handle cache over the model zoo.
//
// Every serving-path command (CLI daemon, engine workloads, benches) needs
// the same expensive artifact: the owner's original quantized model plus
// its activation statistics, rebuilt deterministically from the zoo cache.
// Before this cache the CLI re-trained/re-quantized per invocation; the
// store amortizes that across a whole session:
//
//   * get() hands out a shared, immutable ModelHandle keyed by the full
//     zoo spec (model name, quantization method, train-steps cap). Handles
//     are reference-counted snapshots: eviction never invalidates a handle
//     a caller still holds.
//   * Mutating requests (watermark insertion) never touch the cached
//     model; checkout() returns a private copy-on-write deep copy to stamp.
//   * Residency is enforced with LRU eviction over the resident entries,
//     by entry count (capacity) and optionally by code-buffer byte budget
//     (max_resident_bytes) -- zoo models vary ~30x in size, so a serving
//     deployment sizes the cache in bytes, not slots.
//   * Concurrent get()s of the same spec deduplicate: one caller builds,
//     the rest wait on the same shared future (no duplicate training).
//
// Hit/miss/build/eviction counters are exposed for observability; the
// daemon reports them in its JSON stats (the acceptance check that N
// requests against one model cost exactly one build reads these).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "quant/calib.h"
#include "quant/qmodel.h"
#include "util/wake_hook.h"
#include "wm/evidence.h"

namespace emmark {

/// Everything that identifies one rebuildable original model.
struct ModelSpec {
  std::string model = "opt-125m-sim";            // zoo entry name
  QuantMethod method = QuantMethod::kAwqInt4;    // quantizer
  int64_t train_steps_cap = 0;                   // 0 = full training

  /// Canonical cache key ("name|method|capN").
  std::string key() const;
};

/// Shared immutable view of a built original. Copyable; keeps the
/// underlying artifacts alive independently of the store.
///
/// The original and its stats never change after the build, so `facts`
/// holds what every arbiter request against them would otherwise recompute,
/// computed once by the build: the digests evidence files and checks
/// (digest_model_codes, digest_stats) and the memo of placements verify
/// re-derives (see wm/evidence.h). Copies of a handle share one memo; a
/// rebuild after eviction starts a fresh one, and the old memo dies with
/// the old handle's last copy.
struct ModelHandle {
  std::shared_ptr<const QuantizedModel> original;
  std::shared_ptr<const ActivationStats> stats;
  OriginalFacts facts;

  explicit operator bool() const { return original != nullptr; }
};

struct ModelStoreConfig {
  /// Zoo checkpoint cache directory ("" = util::cache_dir()).
  std::string cache_dir;
  /// Max resident handles before LRU eviction (>= 1).
  size_t capacity = 4;
  /// Optional byte budget over the resident models' code-buffer
  /// footprints (QuantizedModel::code_bytes); 0 = entry-count cap only.
  /// When the budget is exceeded, LRU entries are evicted until under it
  /// -- except the most-recently-built entry, which stays resident even
  /// when it alone exceeds the budget (evicting it would just thrash:
  /// every get() of that spec would become a rebuild).
  uint64_t max_resident_bytes = 0;
  /// Optional idle TTL in seconds (0 = keep until LRU pressure): entries
  /// not touched for longer are evicted by sweep_idle(), which the serving
  /// loops call when next_idle_expiry() comes due. In-flight builds are
  /// never evicted.
  double idle_ttl_sec = 0;
};

class ModelStore {
 public:
  struct Stats {
    /// get() served from a resident entry -- including joining a build
    /// that another caller already started (no new build, but the joiner
    /// still waits for it).
    uint64_t hits = 0;
    /// get() that created the entry and performed the build itself.
    uint64_t misses = 0;
    uint64_t builds = 0;     // actual zoo builds performed
    uint64_t evictions = 0;  // entries dropped by LRU pressure (count or byte)
    size_t resident = 0;     // entries currently cached
    /// Code-buffer bytes of the resident, fully built entries (an entry
    /// whose build is still in flight counts 0 until it completes).
    uint64_t resident_bytes = 0;
  };

  explicit ModelStore(ModelStoreConfig config = {});

  /// Returns the shared handle for `spec`, building it on first use.
  /// Build failures propagate to every waiter and are not cached (a later
  /// get() retries).
  ModelHandle get(const ModelSpec& spec);

  /// Non-blocking get: returns the spec's shared build future immediately.
  /// On a miss the build is posted to the active ThreadPool instead of
  /// running on the calling thread, so a dispatcher (router session,
  /// server event loop) keeps taking requests while the model trains;
  /// warm specs return an already-ready future. Same key validation,
  /// dedup, eviction and stats semantics as get() -- both entry points
  /// share one entry map, so a get() issued while an async build is in
  /// flight joins it instead of rebuilding. Never call future.get() from
  /// a pool worker (the build occupies pool capacity; a worker blocking
  /// on it can deadlock a small pool) -- poll or wait from dispatcher
  /// threads only.
  std::shared_future<ModelHandle> get_async(const ModelSpec& spec);

  /// Copy-on-write snapshot for mutating requests: a private deep copy of
  /// the cached original (which itself stays pristine).
  std::unique_ptr<QuantizedModel> checkout(const ModelSpec& spec);

  Stats stats() const;

  /// Evicts entries idle longer than config.idle_ttl_sec (no-op when the
  /// TTL is 0). An entry is idle-stamped at creation, on every hit, and
  /// when its build completes; entries whose build is still in flight are
  /// never evicted, whatever their age. Meant to be driven from the
  /// serving loops at next_idle_expiry(), cheap to call when the TTL is
  /// off.
  void sweep_idle();

  /// When sweep_idle() can next evict something: the earliest last touch
  /// plus the TTL over the built entries; time_point::max() when the TTL
  /// is off or nothing built is resident.
  std::chrono::steady_clock::time_point next_idle_expiry() const;

  /// Called on the pool thread after each get_async() build has published
  /// its value or exception: a serving loop installs its wakeup here. An
  /// empty function detaches; see util/wake_hook.h for the guarantee.
  void set_build_hook(std::function<void()> hook) {
    build_hook_.set(std::move(hook));
  }

  /// Latency distributions for scraping: zoo build duration, hit-path
  /// lookup duration, and miss-to-ready duration (lookup start until the
  /// entry's build lands). Merge snapshots across shard stores.
  const obs::Histogram& build_histogram() const { return build_hist_; }
  const obs::Histogram& hit_histogram() const { return hit_hist_; }
  const obs::Histogram& miss_histogram() const { return miss_hist_; }

  /// Drops every resident entry (outstanding handles stay valid).
  void clear();

  const ModelStoreConfig& config() const { return config_; }

  ~ModelStore();

 private:
  ModelHandle build(const ModelSpec& spec) const;
  /// Shared miss/hit path for get()/get_async(): returns the entry's
  /// future; when this call created the entry, fills `run_build` with the
  /// closure that performs the build (the caller decides where it runs).
  std::shared_future<ModelHandle> lookup(const ModelSpec& spec,
                                         std::function<void()>& run_build);
  void touch(const std::string& key);   // requires mutex_ held
  void evict_lru();                     // requires mutex_ held
  void evict_excess();                  // requires mutex_ held
  /// Byte-budget pass: evicts LRU-first until under max_resident_bytes,
  /// never evicting `protect` (the entry whose build just landed).
  /// Requires mutex_ held.
  void evict_over_budget(const std::string& protect);

  struct Entry {
    std::shared_future<ModelHandle> handle;
    std::list<std::string>::iterator lru_pos;
    uint64_t id = 0;     // distinguishes re-created slots in failure cleanup
    uint64_t bytes = 0;  // code-buffer footprint; 0 until the build lands
    /// Last hit/creation/build-completion, for the idle-TTL sweep.
    std::chrono::steady_clock::time_point last_touch;
  };

  ModelStoreConfig config_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // most-recently-used first
  uint64_t next_entry_id_ = 1;
  uint64_t resident_bytes_ = 0;
  Stats stats_;
  /// Builds posted to the pool by get_async that have not finished; the
  /// destructor waits them out so a posted closure never outlives the
  /// store it captures.
  size_t async_builds_ = 0;
  std::condition_variable async_idle_cv_;
  obs::Histogram build_hist_;
  obs::Histogram hit_hist_;
  obs::Histogram miss_hist_;
  WakeHook build_hook_;
};

}  // namespace emmark
