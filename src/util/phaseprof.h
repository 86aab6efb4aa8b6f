// Eval-path phase profiler: cheap wall-clock attribution for the hot
// phases of a perplexity run (GEMM, dequant, attention score/context,
// softmax+NLL, DCT), so end-to-end numbers decompose into per-op shares
// in bench_eval_path instead of being a single opaque ratio.
//
// Design constraints, in order:
//   * Zero overhead when disabled: instrumented scopes pay one relaxed
//     atomic load and a branch, no clock reads.
//   * Safe from pool workers: counters are relaxed atomics.
//   * No nesting of the SAME phase at instrumentation sites (a nested
//     scope would double-count). kDequant nests inside kGemm by design --
//     the fused dequant-GEMM packs panels from inside the GEMM driver --
//     so consumers subtract: gemm_exclusive = gemm - dequant.
//
// Attribution caveat: each counter sums wall time across whichever
// threads execute the scope, so with a multi-thread pool phases can
// overlap and their sum can exceed caller wall time. bench_eval_path pins
// the pool at one thread, where the shares are exact.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace emmark::phaseprof {

enum class Phase : int32_t {
  kGemm = 0,     // blocked GEMM drivers (includes nested kDequant time)
  kDequant,      // dequant panel packs + materializing dequantize()
  kAttention,    // RoPE + score/softmax/context loops (not the QKV/O GEMMs)
  kSoftmaxNll,   // log-softmax + per-target NLL in forward_logprobs
  kDct,          // DCT-II/III transforms (SpecMark scoring path)
  kCount,
};

const char* to_string(Phase phase);

/// Global switch; default off. One relaxed load per instrumented scope.
bool enabled();
void set_enabled(bool on);

/// Zeroes every phase counter.
void reset();

/// Accumulated wall nanoseconds attributed to `phase` since reset().
uint64_t total_ns(Phase phase);

namespace detail {
extern std::atomic<bool> g_enabled;
extern std::atomic<uint64_t> g_phase_ns[static_cast<size_t>(Phase::kCount)];
}  // namespace detail

/// RAII scope: adds the scope's wall time to its phase when profiling is
/// enabled (sampled at construction), otherwise costs a load + branch.
class ScopedTimer {
 public:
  explicit ScopedTimer(Phase phase)
      : phase_(phase),
        live_(detail::g_enabled.load(std::memory_order_relaxed)) {
    if (live_) start_ = std::chrono::steady_clock::now();
  }

  ~ScopedTimer() {
    if (!live_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
    detail::g_phase_ns[static_cast<size_t>(phase_)].fetch_add(
        static_cast<uint64_t>(ns), std::memory_order_relaxed);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Phase phase_;
  bool live_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace emmark::phaseprof
