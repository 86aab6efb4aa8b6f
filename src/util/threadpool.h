// Small fixed-size thread pool with one FIFO task queue and a parallel_for
// helper.
//
// Training the model-zoo transformers and the per-layer watermark paths
// (scoring, derivation, extraction) are the compute-heavy parts of the
// reproduction; units of work are independent. parallel_for uses chunked
// dynamic scheduling (workers pull fixed-size chunks off an atomic
// counter), so skewed per-unit cost -- quantization layers differ by an
// order of magnitude in size -- cannot idle workers the way a static
// partition did. The pool is created once and reused (thread creation
// dominates tiny workloads otherwise).
//
// The serving stack posts whole requests here: one task per engine
// request, one per cold ModelStore build. Such a task's own parallel_for
// runs inline on its worker (nested parallel_for from a pool worker always
// does), so while serving the queue holds only request-level work, in
// arrival order. parallel_for called from outside the pool queues its
// chunk pullers behind whatever was posted before it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace emmark {

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues a fire-and-forget task at the back of the queue and returns
  /// immediately. Unlike parallel_for there is no completion wait, so
  /// posting from a pool worker is always safe; the task runs once every
  /// earlier task has started and a worker frees up (used by the async
  /// WatermarkEngine and ModelStore::get_async). Tasks must not throw -- an
  /// escaped exception would terminate the worker.
  void post(std::function<void()> task);

  /// Runs fn(begin, end) over [0, count) in dynamically-scheduled chunks
  /// and blocks until every chunk finished. Every index is covered exactly
  /// once; chunk boundaries are a pure function of (count, pool size), so
  /// callers that write per-index results observe bit-identical output at
  /// any thread count. Chunk tasks queue like any posted task. Runs inline
  /// when the pool has one thread, the range is tiny, or the caller is
  /// itself a pool worker (nested parallel_for would otherwise deadlock
  /// waiting on occupied workers).
  void parallel_for(size_t count, const std::function<void(size_t, size_t)>& fn);

  /// Process-wide shared pool (sized from EMMARK_THREADS or the hardware).
  static ThreadPool& shared();

  /// The pool parallel code should use: the innermost ScopedOverride's pool
  /// if one is active on this thread, otherwise shared().
  static ThreadPool& active();

  /// RAII override of active() for the current thread. Lets tests and
  /// benches run the same code path with explicit thread counts (e.g.
  /// proving 1-thread and 8-thread derivations are bit-identical) without
  /// touching the process-wide EMMARK_THREADS-sized pool.
  class ScopedOverride {
   public:
    explicit ScopedOverride(ThreadPool& pool);
    ~ScopedOverride();

    ScopedOverride(const ScopedOverride&) = delete;
    ScopedOverride& operator=(const ScopedOverride&) = delete;

   private:
    ThreadPool* previous_;
  };

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

/// Serial work (nanoseconds) below which a fan-out costs more than it saves.
/// On a 4-vCPU Xeon VM (AVX-512) one empty 4-thread parallel_for round trip
/// (enqueue, wake, join) has a median of 18-21 us, and splitting an element
/// loop 4 ways first beats running it inline at ~40 us of serial work. The
/// per-item costs passed at each call site are serial medians timed on the
/// same machine at the zoo's eval shapes (1024-row activations).
inline constexpr double kParallelMinNs = 50'000.0;

/// parallel_for on the active pool for `count` independent items that each
/// cost about `item_ns` nanoseconds when run serially; runs fn(0, count)
/// inline when the whole loop is cheaper than kParallelMinNs. Every item
/// must write only its own outputs, so the split -- and therefore the pool
/// size -- can never change results.
void parallel_for_work(size_t count, double item_ns,
                       const std::function<void(size_t, size_t)>& fn);

/// parallel_for over single indices on the active pool: runs fn(i) for every
/// i in [0, count), blocks until done. Exceptions thrown by fn are captured
/// per index and the one with the smallest index is rethrown on the calling
/// thread, so error behaviour is deterministic and independent of the
/// thread count (a bare throw inside a worker would std::terminate).
void parallel_for_index(size_t count, const std::function<void(size_t)>& fn);

}  // namespace emmark
