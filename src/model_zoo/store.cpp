#include "model_zoo/store.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "model_zoo/zoo.h"
#include "util/threadpool.h"

namespace emmark {

std::string ModelSpec::key() const {
  std::string key = model;
  key += '|';
  key += to_string(method);
  if (train_steps_cap > 0) {
    key += "|cap";
    key += std::to_string(train_steps_cap);
  }
  return key;
}

ModelStore::ModelStore(ModelStoreConfig config) : config_(std::move(config)) {
  if (config_.capacity == 0) config_.capacity = 1;
}

ModelHandle ModelStore::build(const ModelSpec& spec) const {
  // A private ModelZoo per build keeps zoo state (train-steps cap, disk
  // writes) isolated between concurrently building specs -- the same
  // pattern ModelZoo::prepare_all uses. The on-disk checkpoint cache still
  // dedupes the actual training across store instances and processes.
  ModelZoo zoo(config_.cache_dir);
  zoo.set_train_steps_cap(spec.train_steps_cap);
  auto fp = zoo.model(spec.model);
  ModelHandle handle;
  handle.stats = zoo.stats(spec.model);
  handle.original =
      std::make_shared<const QuantizedModel>(*fp, *handle.stats, spec.method);
  handle.facts = OriginalFacts::of(*handle.original, *handle.stats);
  return handle;
}

ModelStore::~ModelStore() {
  // A build closure posted by get_async captures `this`; wait out any
  // still running on the pool before the members they touch go away.
  std::unique_lock<std::mutex> lock(mutex_);
  async_idle_cv_.wait(lock, [&] { return async_builds_ == 0; });
}

std::shared_future<ModelHandle> ModelStore::lookup(
    const ModelSpec& spec, std::function<void()>& run_build) {
  const auto lookup_start = std::chrono::steady_clock::now();
  // Validate the name eagerly so typos fail fast (and never occupy a slot).
  (void)zoo_entry(spec.model);
  const std::string key = spec.key();

  std::shared_future<ModelHandle> future;
  std::shared_ptr<std::promise<ModelHandle>> to_build;
  uint64_t build_id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      touch(key);
      hit_hist_.record_duration(std::chrono::steady_clock::now() -
                                lookup_start);
      return it->second.handle;
    }
    ++stats_.misses;
    ++stats_.builds;
    to_build = std::make_shared<std::promise<ModelHandle>>();
    build_id = next_entry_id_++;
    Entry entry;
    entry.handle = to_build->get_future().share();
    entry.id = build_id;
    entry.last_touch = lookup_start;
    future = entry.handle;
    lru_.push_front(key);
    entry.lru_pos = lru_.begin();
    entries_.emplace(key, std::move(entry));
    evict_excess();
  }

  // The build itself runs wherever the caller puts this closure -- inline
  // for get(), on the pool for get_async(). Either way it runs outside the
  // lock: other specs stay servable during training, and same-spec callers
  // wait on the shared future instead of duplicating the work.
  run_build = [this, spec, key, to_build, build_id, lookup_start] {
    try {
      const auto build_start = std::chrono::steady_clock::now();
      ModelHandle built = build(spec);
      const auto built_at = std::chrono::steady_clock::now();
      build_hist_.record_duration(built_at - build_start);
      miss_hist_.record_duration(built_at - lookup_start);
      {
        // Footprint is only known once the build lands; record it and run
        // the byte-budget pass before publishing, so whoever sees the
        // future ready also sees the entry in stats(). The id check skips
        // a slot that was evicted and re-created under the same key while
        // we were building.
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end() && it->second.id == build_id) {
          it->second.bytes = built.original->code_bytes();
          it->second.last_touch = built_at;
          resident_bytes_ += it->second.bytes;
          evict_over_budget(/*protect=*/key);
        }
      }
      to_build->set_value(std::move(built));
    } catch (...) {
      {
        // A failed build must not poison the slot; the next get() retries
        // (dropped before publishing, so a waiter that sees the error and
        // retries gets a fresh build). The id check keeps an unrelated
        // slot (evicted + re-created under the same key while we were
        // building) intact.
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end() && it->second.id == build_id) {
          lru_.erase(it->second.lru_pos);
          entries_.erase(it);
        }
      }
      to_build->set_exception(std::current_exception());
    }
  };
  return future;
}

ModelHandle ModelStore::get(const ModelSpec& spec) {
  std::function<void()> run_build;
  std::shared_future<ModelHandle> future = lookup(spec, run_build);
  if (run_build) run_build();
  return future.get();
}

std::shared_future<ModelHandle> ModelStore::get_async(const ModelSpec& spec) {
  std::function<void()> run_build;
  std::shared_future<ModelHandle> future = lookup(spec, run_build);
  if (run_build) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++async_builds_;
    }
    ThreadPool::active().post([this, run_build = std::move(run_build)] {
      run_build();
      build_hook_.fire();
      std::lock_guard<std::mutex> lock(mutex_);
      if (--async_builds_ == 0) async_idle_cv_.notify_all();
    });
  }
  return future;
}

std::unique_ptr<QuantizedModel> ModelStore::checkout(const ModelSpec& spec) {
  const ModelHandle handle = get(spec);
  return std::make_unique<QuantizedModel>(*handle.original);
}

ModelStore::Stats ModelStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.resident = entries_.size();
  out.resident_bytes = resident_bytes_;
  return out;
}

void ModelStore::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
  resident_bytes_ = 0;
}

void ModelStore::touch(const std::string& key) {
  auto it = entries_.find(key);
  lru_.erase(it->second.lru_pos);
  lru_.push_front(key);
  it->second.lru_pos = lru_.begin();
  it->second.last_touch = std::chrono::steady_clock::now();
}

void ModelStore::sweep_idle() {
  if (config_.idle_ttl_sec <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  const std::chrono::duration<double> ttl(config_.idle_ttl_sec);
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    Entry& entry = it->second;
    // Never evict an in-flight build: its waiters share the entry's
    // future, and the build closure still needs the slot to land its
    // footprint (same reason evict_over_budget skips bytes==0 entries).
    const bool ready = entry.handle.wait_for(std::chrono::seconds(0)) ==
                       std::future_status::ready;
    if (!ready || now - entry.last_touch <= ttl) {
      ++it;
      continue;
    }
    resident_bytes_ -= entry.bytes;
    lru_.erase(entry.lru_pos);
    it = entries_.erase(it);
    ++stats_.evictions;
  }
}

std::chrono::steady_clock::time_point ModelStore::next_idle_expiry() const {
  auto at = std::chrono::steady_clock::time_point::max();
  if (config_.idle_ttl_sec <= 0) return at;
  // Capped at ~30 years so the time_point arithmetic cannot overflow.
  const auto ttl = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(std::min(config_.idle_ttl_sec, 1e9)));
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, entry] : entries_) {
    // In-flight builds are skipped, as in sweep_idle(); their landing is
    // what re-stamps the clock (and fires the build hook).
    if (entry.handle.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      at = std::min(at, entry.last_touch + ttl);
    }
  }
  return at;
}

void ModelStore::evict_lru() {
  const std::string victim = lru_.back();
  lru_.pop_back();
  auto it = entries_.find(victim);
  resident_bytes_ -= it->second.bytes;
  entries_.erase(it);
  ++stats_.evictions;
}

void ModelStore::evict_excess() {
  while (entries_.size() > config_.capacity) evict_lru();
}

void ModelStore::evict_over_budget(const std::string& protect) {
  if (config_.max_resident_bytes == 0) return;
  while (resident_bytes_ > config_.max_resident_bytes) {
    // Walk from the LRU tail to the first evictable victim: not the
    // protected (just-built) entry, and not an in-flight build -- an
    // unfinished entry has bytes 0, so evicting it frees nothing and
    // would break same-spec build dedup for its waiters.
    auto victim = lru_.end();
    for (auto it = std::prev(lru_.end());; --it) {
      if (*it != protect && entries_.find(*it)->second.bytes > 0) {
        victim = it;
        break;
      }
      if (it == lru_.begin()) break;
    }
    if (victim == lru_.end()) break;  // nothing evictable frees bytes
    auto entry = entries_.find(*victim);
    resident_bytes_ -= entry->second.bytes;
    entries_.erase(entry);
    lru_.erase(victim);
    ++stats_.evictions;
  }
}

}  // namespace emmark
