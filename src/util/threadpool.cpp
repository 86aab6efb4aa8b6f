#include "util/threadpool.h"

#include <atomic>
#include <cstdlib>
#include <exception>

#include "util/env.h"

namespace emmark {
namespace {

// Set while a thread is executing pool work; parallel_for from such a
// thread runs inline instead of enqueueing (all workers may be blocked in
// outer parallel_for waits, so queued nested chunks would never drain).
thread_local bool tl_inside_worker = false;

// Innermost ScopedOverride pool for this thread (nullptr = use shared()).
thread_local ThreadPool* tl_override_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  tl_inside_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping, and nothing left to run
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::parallel_for(size_t count,
                              const std::function<void(size_t, size_t)>& fn) {
  if (count == 0) return;
  const size_t threads = workers_.size();
  if (threads <= 1 || count < 2 || tl_inside_worker) {
    fn(0, count);
    return;
  }
  // Chunked dynamic scheduling: workers pull fixed-size chunks off a shared
  // atomic counter instead of owning one static slice each, so a skewed
  // chunk (layers vary wildly in size) cannot idle the rest of the pool.
  // Determinism: chunk boundaries depend only on (count, pool size) --
  // every index is visited exactly once, in contiguous [begin, end) ranges
  // aligned to the chunk size -- only the chunk->worker assignment varies
  // between runs, which callers never observe (they write disjoint slots).
  // kChunksPerThread > 1 trades scheduling overhead for load balance.
  constexpr size_t kChunksPerThread = 8;
  const size_t chunk_size =
      std::max<size_t>(1, count / (threads * kChunksPerThread));
  const size_t pullers = std::min(threads, (count + chunk_size - 1) / chunk_size);

  std::atomic<size_t> next{0};
  // The decrement happens under done_mutex: the waiter can only observe
  // remaining == 0 after the final worker released the lock, so the worker
  // never touches these stack-locals after the wait returns and the frame
  // is popped.
  size_t remaining = pullers;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t p = 0; p < pullers; ++p) {
      tasks_.emplace([&, chunk_size, count] {
        for (;;) {
          const size_t begin = next.fetch_add(chunk_size, std::memory_order_relaxed);
          if (begin >= count) break;
          fn(begin, std::min(begin + chunk_size, count));
        }
        std::lock_guard<std::mutex> done_lock(done_mutex);
        if (--remaining == 0) done_cv.notify_one();
      });
    }
  }
  wake_.notify_all();

  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool([] {
    const std::string env = env_or("EMMARK_THREADS", "");
    if (!env.empty()) {
      const long n = std::strtol(env.c_str(), nullptr, 10);
      if (n > 0) return static_cast<size_t>(n);
    }
    return static_cast<size_t>(0);
  }());
  return pool;
}

ThreadPool& ThreadPool::active() {
  return tl_override_pool != nullptr ? *tl_override_pool : shared();
}

ThreadPool::ScopedOverride::ScopedOverride(ThreadPool& pool)
    : previous_(tl_override_pool) {
  tl_override_pool = &pool;
}

ThreadPool::ScopedOverride::~ScopedOverride() { tl_override_pool = previous_; }

void parallel_for_work(size_t count, double item_ns,
                       const std::function<void(size_t, size_t)>& fn) {
  if (count == 0) return;
  if (static_cast<double>(count) * item_ns < kParallelMinNs) {
    fn(0, count);
    return;
  }
  ThreadPool::active().parallel_for(count, fn);
}

void parallel_for_index(size_t count, const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  std::vector<std::exception_ptr> errors(count);
  std::atomic<bool> failed{false};
  ThreadPool::active().parallel_for(count, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  });
  if (failed.load(std::memory_order_relaxed)) {
    for (auto& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }
}

}  // namespace emmark
