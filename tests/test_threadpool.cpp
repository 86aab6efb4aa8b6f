#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/threadpool.h"

namespace emmark {
namespace {

TEST(ThreadPool, CoversFullRangeOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleElementRunsInline) {
  ThreadPool pool(4);
  int value = 0;
  pool.parallel_for(1, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    value = 42;
  });
  EXPECT_EQ(value, 42);
}

TEST(ThreadPool, SumMatchesSerial) {
  ThreadPool pool(3);
  std::vector<int64_t> data(10000);
  std::iota(data.begin(), data.end(), 0);
  std::atomic<int64_t> total{0};
  pool.parallel_for(data.size(), [&](size_t begin, size_t end) {
    int64_t local = 0;
    for (size_t i = begin; i < end; ++i) local += data[i];
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), 10000LL * 9999 / 2);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::atomic<size_t> count{0};
    pool.parallel_for(100, [&](size_t begin, size_t end) {
      count.fetch_add(end - begin);
    });
    EXPECT_EQ(count.load(), 100u);
  }
}

TEST(ThreadPool, SharedPoolIsAlive) {
  auto& pool = ThreadPool::shared();
  EXPECT_GE(pool.size(), 1u);
  std::atomic<int> ran{0};
  pool.parallel_for(10, [&](size_t begin, size_t end) {
    ran.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, ActiveDefaultsToShared) {
  EXPECT_EQ(&ThreadPool::active(), &ThreadPool::shared());
}

TEST(ThreadPool, ScopedOverrideRedirectsAndNests) {
  ThreadPool outer(2);
  ThreadPool inner(3);
  {
    ThreadPool::ScopedOverride over_outer(outer);
    EXPECT_EQ(&ThreadPool::active(), &outer);
    {
      ThreadPool::ScopedOverride over_inner(inner);
      EXPECT_EQ(&ThreadPool::active(), &inner);
    }
    EXPECT_EQ(&ThreadPool::active(), &outer);
  }
  EXPECT_EQ(&ThreadPool::active(), &ThreadPool::shared());
}

TEST(ThreadPool, ScopedOverrideIsThreadLocal) {
  ThreadPool pool(2);
  ThreadPool::ScopedOverride over(pool);
  // Pool workers are different threads: they must not inherit the caller's
  // override (they would otherwise re-enter the pool they run on).
  std::atomic<int> saw_override{0};
  pool.parallel_for(2, [&](size_t, size_t) {
    if (&ThreadPool::active() != &ThreadPool::shared()) saw_override.fetch_add(1);
  });
  EXPECT_EQ(saw_override.load(), 0);
}

TEST(ThreadPool, ParallelForIndexCoversRange) {
  ThreadPool pool(4);
  ThreadPool::ScopedOverride over(pool);
  std::vector<std::atomic<int>> hits(257);
  parallel_for_index(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForIndexEmptyIsNoop) {
  bool called = false;
  parallel_for_index(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

// --- chunked dynamic scheduling ------------------------------------------

TEST(ThreadPool, DynamicChunksCoverOddRangesExactlyOnce) {
  // Counts that do not divide evenly by (threads * chunks-per-thread) must
  // still cover every index exactly once.
  for (size_t count : {2u, 7u, 63u, 1000u, 10007u}) {
    ThreadPool pool(7);
    std::vector<std::atomic<int>> hits(count);
    pool.parallel_for(count, [&](size_t begin, size_t end) {
      ASSERT_LE(begin, end);
      ASSERT_LE(end, count);
      for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "count " << count;
  }
}

TEST(ThreadPool, ChunkBoundariesAreDeterministic) {
  // Chunk [begin, end) ranges are a pure function of (count, pool size):
  // two runs may assign chunks to different workers, but the set of ranges
  // handed to fn must be identical. Result-determinism of every pooled
  // watermark path rests on per-index writes, which this guarantees.
  auto collect = [](ThreadPool& pool, size_t count) {
    std::set<std::pair<size_t, size_t>> ranges;
    std::mutex mutex;
    pool.parallel_for(count, [&](size_t begin, size_t end) {
      std::lock_guard<std::mutex> lock(mutex);
      ranges.emplace(begin, end);
    });
    return ranges;
  };
  ThreadPool pool(4);
  const auto first = collect(pool, 1234);
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(collect(pool, 1234), first);
  }
}

TEST(ThreadPool, SkewedWorkloadStillCoversAndBalances) {
  // A pathologically skewed cost profile (one huge unit at the front --
  // the shape of a model whose first layer dwarfs the rest) must not lose
  // or duplicate work. With dynamic chunking the remaining workers drain
  // the tail while one chews the expensive chunk.
  ThreadPool pool(4);
  constexpr size_t kCount = 400;
  std::vector<std::atomic<int>> hits(kCount);
  std::atomic<int64_t> effort{0};
  pool.parallel_for(kCount, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      // Index 0 costs ~kCount times a tail index.
      int64_t sink = 0;
      const int64_t reps = i == 0 ? 400'000 : 1'000;
      for (int64_t r = 0; r < reps; ++r) sink += r ^ static_cast<int64_t>(i);
      effort.fetch_add(sink >= 0 ? 1 : 0);
      hits[i].fetch_add(1);
    }
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(effort.load(), static_cast<int64_t>(kCount));
}

TEST(ThreadPool, PostedTasksStartInArrivalOrder) {
  // One FIFO: with the only worker held busy, tasks queued behind it run
  // in the order they were posted.
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.post([gate] { gate.wait(); });

  std::vector<int> order;  // single worker: no concurrent pushes
  std::promise<void> done;
  for (int tag = 0; tag < 8; ++tag) {
    pool.post([&, tag] {
      order.push_back(tag);
      if (tag == 7) done.set_value();
    });
  }
  release.set_value();
  done.get_future().wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ThreadPool, ParallelForIndexRethrowsSmallestIndexAtAnyPoolSize) {
  // Deterministic error behaviour: when several indices throw, the caller
  // always sees the smallest index's exception, independent of pool size.
  for (size_t pool_size : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(pool_size);
    ThreadPool::ScopedOverride over(pool);
    try {
      parallel_for_index(100, [&](size_t i) {
        if (i % 30 == 7) {  // indices 7, 37, 67, 97 throw
          throw std::runtime_error("boom at " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 7") << "pool size " << pool_size;
    }
  }
}

}  // namespace
}  // namespace emmark
