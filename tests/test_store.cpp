// ModelStore: spec-keyed handle cache with LRU eviction (entry-count cap
// and code-buffer byte budget), copy-on-write checkouts, build dedup, and
// observability counters.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "model_zoo/store.h"
#include "util/threadpool.h"
#include "wm/emmark.h"
#include "wm/evidence.h"

namespace emmark {
namespace {

/// Shared throwaway disk cache: the first build trains (capped), later
/// builds in any test reload the checkpoint, keeping the file fast.
class StoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cache_dir_ = (std::filesystem::temp_directory_path() / "emmark_store_test").string();
    std::filesystem::remove_all(cache_dir_);
  }
  static void TearDownTestSuite() { std::filesystem::remove_all(cache_dir_); }

  static ModelSpec spec(const std::string& model = "opt-125m-sim",
                        QuantMethod method = QuantMethod::kAwqInt4) {
    ModelSpec s;
    s.model = model;
    s.method = method;
    s.train_steps_cap = 25;
    return s;
  }

  static ModelStore make_store(size_t capacity = 4,
                               uint64_t max_resident_bytes = 0) {
    ModelStoreConfig config;
    config.cache_dir = cache_dir_;
    config.capacity = capacity;
    config.max_resident_bytes = max_resident_bytes;
    return ModelStore(config);
  }

  static std::string cache_dir_;
};

std::string StoreTest::cache_dir_;

TEST_F(StoreTest, SpecKeyEncodesModelMethodAndCap) {
  EXPECT_EQ(spec().key(), "opt-125m-sim|awq-int4|cap25");
  ModelSpec full = spec();
  full.train_steps_cap = 0;
  EXPECT_EQ(full.key(), "opt-125m-sim|awq-int4");
  EXPECT_NE(spec("opt-125m-sim", QuantMethod::kRtnInt4).key(), spec().key());
}

TEST_F(StoreTest, HitMissAndBuildCounters) {
  ModelStore store = make_store();
  const ModelHandle first = store.get(spec());
  ASSERT_TRUE(first);
  EXPECT_NE(first.stats, nullptr);

  const ModelHandle second = store.get(spec());
  EXPECT_EQ(second.original.get(), first.original.get());  // shared, not rebuilt

  auto checked_out = store.checkout(spec());
  ASSERT_NE(checked_out, nullptr);

  const ModelStore::Stats stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.hits, 2u);  // second get + checkout
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.resident, 1u);
}

TEST_F(StoreTest, CheckoutIsCopyOnWrite) {
  ModelStore store = make_store();
  const ModelHandle handle = store.get(spec());
  const uint64_t pristine = digest_model_codes(*handle.original);

  auto working = store.checkout(spec());
  auto& weights = working->layer(0).weights;
  const int8_t code = weights.code_flat(0);
  weights.set_code_flat(0, static_cast<int8_t>(code == 0 ? 1 : 0));

  // The cached original (and every other handle) is untouched.
  EXPECT_EQ(digest_model_codes(*handle.original), pristine);
  EXPECT_EQ(digest_model_codes(*store.get(spec()).original), pristine);
  EXPECT_NE(digest_model_codes(*working), pristine);
}

TEST_F(StoreTest, LruEvictionKeepsTheHotEntryAndHandlesStayValid) {
  ModelStore store = make_store(/*capacity=*/1);
  const ModelHandle a = store.get(spec("opt-125m-sim"));
  const ModelHandle b = store.get(spec("opt-1.3b-sim"));  // evicts a

  ModelStore::Stats stats = store.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident, 1u);
  // The evicted handle is a reference-counted snapshot; it outlives the
  // store entry.
  EXPECT_GT(a.original->num_layers(), 0);

  // Re-requesting the evicted spec is a fresh miss (rebuilt from the disk
  // checkpoint, so cheap -- but a distinct in-memory build).
  const ModelHandle a2 = store.get(spec("opt-125m-sim"));
  EXPECT_NE(a2.original.get(), a.original.get());
  stats = store.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.builds, 3u);
  EXPECT_EQ(stats.evictions, 2u);
  (void)b;
}

TEST_F(StoreTest, UnknownModelThrowsWithoutOccupyingASlot) {
  ModelStore store = make_store();
  ModelSpec bogus = spec();
  bogus.model = "not-a-zoo-model";
  EXPECT_THROW((void)store.get(bogus), std::out_of_range);
  const ModelStore::Stats stats = store.stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.resident, 0u);
}

TEST_F(StoreTest, ConcurrentSameSpecGetsBuildOnce) {
  ModelStore store = make_store();
  constexpr size_t kThreads = 6;
  std::vector<ModelHandle> handles(kThreads);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] { handles[i] = store.get(spec()); });
  }
  for (auto& thread : threads) thread.join();

  for (size_t i = 1; i < kThreads; ++i) {
    EXPECT_EQ(handles[i].original.get(), handles[0].original.get());
  }
  const ModelStore::Stats stats = store.stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.hits + stats.misses, kThreads);
}

TEST_F(StoreTest, ResidentBytesTrackCodeFootprints) {
  ModelStore store = make_store();
  const ModelHandle a = store.get(spec("opt-125m-sim"));
  EXPECT_EQ(store.stats().resident_bytes, a.original->code_bytes());
  const ModelHandle b = store.get(spec("opt-1.3b-sim"));
  EXPECT_EQ(store.stats().resident_bytes,
            a.original->code_bytes() + b.original->code_bytes());
  store.clear();
  EXPECT_EQ(store.stats().resident_bytes, 0u);
}

TEST_F(StoreTest, ByteBudgetEvictsLruUntilUnderBudget) {
  // Learn the two footprints, then size a budget that fits either model
  // alone but not both: the second build must evict the first (LRU), even
  // though the entry-count capacity has plenty of room.
  uint64_t bytes_a = 0, bytes_b = 0;
  {
    ModelStore probe = make_store();
    bytes_a = probe.get(spec("opt-125m-sim")).original->code_bytes();
    bytes_b = probe.get(spec("opt-1.3b-sim")).original->code_bytes();
  }
  ASSERT_GT(bytes_a, 0u);
  ASSERT_GT(bytes_b, 0u);

  ModelStore store = make_store(/*capacity=*/8, bytes_a + bytes_b - 1);
  (void)store.get(spec("opt-125m-sim"));
  (void)store.get(spec("opt-1.3b-sim"));
  ModelStore::Stats stats = store.stats();
  EXPECT_EQ(stats.resident, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_bytes, bytes_b);

  // The survivor is the recently built model; re-requesting it is a hit.
  (void)store.get(spec("opt-1.3b-sim"));
  EXPECT_EQ(store.stats().hits, 1u);

  // Re-requesting the evicted spec rebuilds and pushes the other out.
  (void)store.get(spec("opt-125m-sim"));
  stats = store.stats();
  EXPECT_EQ(stats.resident, 1u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.resident_bytes, bytes_a);
}

TEST_F(StoreTest, SingleOverBudgetModelStaysResident) {
  // A budget smaller than any one model must not thrash: the sole entry
  // is protected, so repeat gets are hits, not rebuilds.
  ModelStore store = make_store(/*capacity=*/4, /*max_resident_bytes=*/1);
  (void)store.get(spec());
  (void)store.get(spec());
  const ModelStore::Stats stats = store.stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.resident, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST_F(StoreTest, ClearDropsResidencyButNotOutstandingHandles) {
  ModelStore store = make_store();
  const ModelHandle handle = store.get(spec());
  store.clear();
  EXPECT_EQ(store.stats().resident, 0u);
  EXPECT_GT(handle.original->num_layers(), 0);
  // Next get is a rebuild.
  (void)store.get(spec());
  EXPECT_EQ(store.stats().builds, 2u);
}

TEST_F(StoreTest, GetAsyncReturnsImmediatelyAndBuildsOnThePool) {
  ModelStore store = make_store();
  std::shared_future<ModelHandle> future = store.get_async(spec());
  ASSERT_TRUE(future.valid());
  const ModelHandle handle = future.get();
  ASSERT_TRUE(handle);
  ModelStore::Stats stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.builds, 1u);

  // A warm spec resolves at once, as a hit.
  std::shared_future<ModelHandle> again = store.get_async(spec());
  EXPECT_EQ(again.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(again.get().original.get(), handle.original.get());
  EXPECT_EQ(store.stats().hits, 1u);
}

TEST_F(StoreTest, BuildIsBookedBeforeItsFutureResolves) {
  // Whoever sees a build's future ready must also see the entry's
  // footprint in stats(): a serving session answers `stats`/`metrics`
  // right after a request on the fresh handle has finished.
  ModelStore store = make_store();
  uint64_t expected = 0;
  for (const char* model : {"opt-125m-sim", "opt-1.3b-sim", "opt-2.7b-sim"}) {
    const ModelHandle handle = store.get_async(spec(model)).get();
    expected += handle.original->code_bytes();
    EXPECT_EQ(store.stats().resident_bytes, expected) << model;
  }
}

TEST_F(StoreTest, GetAsyncAndGetShareOneBuild) {
  // An async build in flight (or landed) must dedupe with synchronous
  // get()s of the same spec: one entry map, one build.
  ModelStore store = make_store();
  std::shared_future<ModelHandle> future = store.get_async(spec());
  const ModelHandle via_get = store.get(spec());
  EXPECT_EQ(future.get().original.get(), via_get.original.get());
  const ModelStore::Stats stats = store.stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(StoreTest, GetAsyncValidatesModelNameEagerly) {
  ModelStore store = make_store();
  ModelSpec bogus = spec();
  bogus.model = "not-a-zoo-model";
  EXPECT_THROW((void)store.get_async(bogus), std::out_of_range);
  EXPECT_EQ(store.stats().misses, 0u);
}

TEST_F(StoreTest, SweepEvictsIdleEntriesAndHitsRefreshTheClock) {
  ModelStoreConfig config;
  config.cache_dir = cache_dir_;
  config.idle_ttl_sec = 0.05;
  ModelStore store(config);
  (void)store.get(spec());
  EXPECT_EQ(store.stats().resident, 1u);

  // Fresh entries survive a sweep; so do entries re-touched by a hit
  // after the TTL elapsed once.
  store.sweep_idle();
  EXPECT_EQ(store.stats().resident, 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  (void)store.get(spec());  // hit: resets last_touch
  store.sweep_idle();
  EXPECT_EQ(store.stats().resident, 1u);

  // Left idle past the TTL, the entry goes.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  store.sweep_idle();
  const ModelStore::Stats stats = store.stats();
  EXPECT_EQ(stats.resident, 0u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST_F(StoreTest, SweepIsANoopWithoutATtl) {
  ModelStore store = make_store();  // idle_ttl_sec = 0
  (void)store.get(spec());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  store.sweep_idle();
  EXPECT_EQ(store.stats().resident, 1u);
  EXPECT_EQ(store.stats().evictions, 0u);
}

TEST_F(StoreTest, SweepNeverEvictsAnInFlightBuild) {
  // Park the (single-threaded) pool behind a gate so a posted async build
  // cannot start: however stale the entry's clock gets, the sweep must
  // keep it -- waiters share its future, and the build closure still needs
  // the slot to land its footprint.
  ThreadPool pool(1);
  ThreadPool::ScopedOverride over(pool);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  pool.post([opened] { opened.wait(); });

  ModelStoreConfig config;
  config.cache_dir = cache_dir_;
  config.idle_ttl_sec = 0.05;
  ModelStore store(config);
  std::shared_future<ModelHandle> future = store.get_async(spec());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  store.sweep_idle();  // entry is stale but its build has not even started
  EXPECT_EQ(store.stats().resident, 1u);
  EXPECT_EQ(store.stats().evictions, 0u);

  gate.set_value();
  EXPECT_TRUE(future.get());

  // Once landed (completion re-stamps the clock), idleness counts again.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  store.sweep_idle();
  EXPECT_EQ(store.stats().resident, 0u);
  EXPECT_EQ(store.stats().evictions, 1u);
}

TEST_F(StoreTest, DestructorWaitsOutInFlightAsyncBuilds) {
  // Destroying the store right after posting a cold build must not leave
  // the pool task touching freed members; the future stays valid after
  // the store is gone (the promise outlives it via shared_ptr).
  std::shared_future<ModelHandle> future;
  {
    ModelStore store = make_store();
    future = store.get_async(spec("opt-2.7b-sim"));
  }
  EXPECT_TRUE(future.get());
}

// --- the facts a build computes once per original ---------------------------

WatermarkKey small_key() {
  WatermarkKey key;
  key.bits_per_layer = 4;
  key.candidate_ratio = 5;
  return key;
}

TEST_F(StoreTest, HandleCarriesItsOriginalsDigestsAndAnEmptyMemo) {
  ModelStore store = make_store();
  const ModelHandle handle = store.get(spec());
  EXPECT_EQ(handle.facts.original_digest, digest_model_codes(*handle.original));
  EXPECT_EQ(handle.facts.stats_digest, digest_stats(*handle.stats));
  ASSERT_NE(handle.facts.placements, nullptr);
  EXPECT_EQ(handle.facts.placements->counts().size, 0u);
  // Every get() of the resident entry shares the one memo.
  EXPECT_EQ(store.get(spec()).facts.placements, handle.facts.placements);
}

TEST_F(StoreTest, RebuiltHandleNeverSeesTheEvictedHandlesMemo) {
  ModelStore store = make_store(/*capacity=*/1);
  {
    const ModelHandle first = store.get(spec());
    (void)first.facts.placements->derive(EmMarkScheme(), *first.original, *first.stats,
                                         small_key());
    ASSERT_EQ(first.facts.placements->counts().size, 1u);
  }
  // Evicts the first build; its last handle copy is already gone, so a new
  // memo may even land at the old one's address.
  (void)store.get(spec("opt-1.3b-sim"));
  const ModelHandle rebuilt = store.get(spec());
  EXPECT_EQ(store.stats().builds, 3u);
  const PlacementMemo::Counts counts = rebuilt.facts.placements->counts();
  EXPECT_EQ(counts.size, 0u);
  EXPECT_EQ(counts.hits, 0u);
  EXPECT_EQ(counts.misses, 0u);
}

TEST_F(StoreTest, ConcurrentVerifiesOnOneHandleShareItsFacts) {
  ModelStore store = make_store();
  const ModelHandle handle = store.get(spec());
  QuantizedModel marked = *handle.original;
  const SchemeRecord record = EmMarkScheme().insert(marked, *handle.stats, small_key());
  const OwnershipEvidence evidence =
      OwnershipEvidence::create("acme", record, handle.facts, /*created_unix=*/1);

  constexpr size_t kThreads = 6;
  std::vector<char> verdicts(kThreads, 0);
  std::vector<std::string> whys(kThreads);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      verdicts[i] = evidence.verify(marked, *handle.original, *handle.stats,
                                    handle.facts, 90.0, &whys[i]);
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t i = 0; i < kThreads; ++i) {
    EXPECT_TRUE(verdicts[i]) << whys[i];
    EXPECT_EQ(whys[i], "verified");
  }
  const PlacementMemo::Counts counts = handle.facts.placements->counts();
  EXPECT_EQ(counts.size, 1u);
  EXPECT_EQ(counts.hits + counts.misses, kThreads);
  EXPECT_GE(counts.misses, 1u);
}

}  // namespace
}  // namespace emmark
