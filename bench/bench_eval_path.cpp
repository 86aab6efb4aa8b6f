// Eval-path kernels: dispatched GEMM, fused dequant-GEMM, the table-driven
// DCT, and end-to-end quantized perplexity.
//
// Each kernel phase carries its own in-bench legacy reference -- the
// pre-rewrite naive gemm_nt, materialize-then-multiply dequantization, and
// the std::cos direct-form DCT -- so the reported speedups are measured
// against what the eval path actually cost before the vectorized kernels
// landed, not against the current scalar tier (which already uses the
// tiled drivers and cosine table). The ppl phase's reference is not a
// legacy path: it is a materialize() pass on the current kernels, so its
// ratio compares the fused quantized view with materializing the weights
// (the JSON keeps the key "legacy.ppl_ms" for it). Every kernel level is then swept with
// the pool pinned at one thread, and results are checked against the
// legacy output: GEMM and dequant must match bit-for-bit (the kernel
// contract), the DCT within round-off (same per-output sum order; only
// the cosine factors differ sub-ULP from std::cos).
//
// Beyond the per-level sweep, the perf_opt-PR phases report on the
// batched eval path: a per-op breakdown of the ppl phase (phaseprof),
// an M-sweep showing the fused dequant-GEMM's per-row cost amortizing as
// the activation batch grows, a packed-int4 vs byte-per-code twin
// comparison (identical codes/scales/decorations, so outputs must match
// bit for bit while the packed layout halves the weight-stream bytes;
// timed as the pure dequant phase and the fused dequant-GEMM), and a
// batch-1 streaming eval with and without window merging
// (PplConfig::max_tokens_per_forward).
//
// A table prints per phase, plus one machine-readable JSON line
// (scripts/bench_baseline.sh folds it into BENCH_10.json).
//
// Usage: bench_eval_path [--model <zoo-name>] [--repeats N] [--quick]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <numbers>
#include <string>
#include <vector>

#include "bench_common.h"
#include "kernels/kernels.h"
#include "quant/qtensor.h"
#include "signal/dct.h"
#include "tensor/gemm.h"
#include "util/argparse.h"
#include "util/phaseprof.h"
#include "util/rng.h"
#include "util/threadpool.h"
#include "util/timer.h"

namespace {

using namespace emmark;
using namespace emmark::bench;

/// Largest zoo entry by quantized-parameter proxy.
const ZooEntry& largest_entry() {
  const auto& entries = zoo_entries();
  const ZooEntry* best = &entries.front();
  auto weight_proxy = [](const ZooEntry& e) {
    return e.n_layers * (4 * e.d_model * e.d_model + 3 * e.d_model * e.ffn_hidden);
  };
  for (const ZooEntry& e : entries) {
    if (weight_proxy(e) > weight_proxy(*best)) best = &e;
  }
  return *best;
}

double best_of(int repeats, const std::function<double()>& run_ms) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) best = std::min(best, run_ms());
  return best;
}

/// GEMM-sized work finishes in ~0.1 ms, where timer resolution and
/// allocator jitter swamp a single call; every sample of the gemm and
/// dequant phases loops the op this many times and reports the mean, so
/// the 15% CI regression gate sees settled numbers.
constexpr int kInnerIters = 16;

// --- legacy references (pre-kernel eval path, verbatim) -----------------

/// The naive register-accumulating gemm_nt the eval path ran before the
/// tiled drivers: C[i][j] = dot(A row i, B row j), ascending p.
void legacy_gemm_nt(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
      c_row[j] = acc;
    }
  }
}

/// The element-at-a-time dequantize the eval path materialized weights
/// through before dequant_span_f32 existed.
Tensor legacy_dequantize(const QuantizedTensor& w) {
  Tensor out({w.rows(), w.cols()});
  for (int64_t r = 0; r < w.rows(); ++r) {
    float* row = out.data() + r * w.cols();
    for (int64_t c = 0; c < w.cols(); ++c) {
      row[c] = static_cast<float>(w.code(r, c)) * w.scale(r, c);
      if (w.has_input_scale()) row[c] /= w.input_scale()[static_cast<size_t>(c)];
    }
  }
  for (size_t k = 0; k < w.outlier_cols().size(); ++k) {
    const int64_t c = w.outlier_cols()[k];
    for (int64_t r = 0; r < w.rows(); ++r) {
      out.at(r, c) = w.dequantize_at(r, c);
    }
  }
  return out;
}

/// The std::cos direct-form DCT-II SpecMark shipped with before the
/// cosine table.
std::vector<double> legacy_dct2(std::span<const double> x) {
  const size_t n = x.size();
  std::vector<double> y(n, 0.0);
  if (n == 0) return y;
  const double norm0 = std::sqrt(1.0 / static_cast<double>(n));
  const double norm = std::sqrt(2.0 / static_cast<double>(n));
  for (size_t k = 0; k < n; ++k) {
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      acc += x[i] * std::cos(std::numbers::pi / static_cast<double>(n) *
                             (static_cast<double>(i) + 0.5) *
                             static_cast<double>(k));
    }
    y[k] = acc * (k == 0 ? norm0 : norm);
  }
  return y;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// An int8-STORAGE twin of an int4 tensor: same logical codes (the int4
/// grid is a subset of int8's), same scales, input scale, and outliers --
/// so dequantization is bit-identical -- but one byte per code instead of
/// two codes per byte. Timing both isolates the packed layout's effect on
/// the weight-stream bandwidth of the fused dequant-GEMM.
QuantizedTensor byte_per_code_twin(const QuantizedTensor& w) {
  QuantizedTensor t(w.rows(), w.cols(), QuantBits::kInt8, w.group_size());
  const std::vector<int8_t> codes = w.codes();
  for (int64_t i = 0; i < w.numel(); ++i) t.set_code_flat(i, codes[static_cast<size_t>(i)]);
  const int64_t gs = w.group_size() > 0 ? w.group_size() : w.cols();
  for (int64_t r = 0; r < w.rows(); ++r) {
    for (int64_t g = 0; g * gs < w.cols(); ++g) t.set_scale(r, g, w.scale(r, g * gs));
  }
  if (w.has_input_scale()) t.set_input_scale(w.input_scale());
  if (!w.outlier_cols().empty()) {
    const auto& ocols = w.outlier_cols();
    Tensor ow({w.rows(), static_cast<int64_t>(ocols.size())});
    for (int64_t r = 0; r < w.rows(); ++r) {
      for (size_t c = 0; c < ocols.size(); ++c) {
        ow.at(r, static_cast<int64_t>(c)) = w.dequantize_at(r, ocols[c]);
      }
    }
    t.set_outliers(ocols, std::move(ow));
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_eval_path",
                 "Dispatched eval-path kernels vs the pre-rewrite legacy path");
  args.add_option("model", largest_entry().name, "zoo model for dequant/ppl");
  args.add_option("repeats", "5", "timing repeats per cell (best-of)");
  args.add_flag("quick", "smaller problem sizes, single repeat");
  if (!args.parse(argc, argv)) return 2;
  const std::string model_name = args.get("model");
  const bool quick = args.get_flag("quick");
  const int repeats =
      quick ? 1 : std::max(1, static_cast<int>(args.get_int("repeats")));

  const auto& entries = zoo_entries();
  if (std::none_of(entries.begin(), entries.end(),
                   [&](const ZooEntry& e) { return e.name == model_name; })) {
    std::fprintf(stderr, "unknown zoo model: %s\navailable:", model_name.c_str());
    for (const ZooEntry& e : entries) std::fprintf(stderr, " %s", e.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  print_header("Eval-path kernels",
               "Legacy naive path vs dispatched GEMM / fused dequant / DCT");

  BenchContext ctx;
  const ZooEntry& entry = zoo_entry(model_name);
  auto fp = ctx.zoo().model(model_name);
  auto stats = ctx.zoo().stats(model_name);
  const QuantizedModel qm(*fp, *stats,
                          method_for(entry.family, QuantBits::kInt4));

  // Largest quantization layer: the dequant timing target.
  int64_t big = 0;
  for (int64_t i = 1; i < qm.num_layers(); ++i) {
    if (qm.layer(i).weights.numel() > qm.layer(big).weights.numel()) big = i;
  }
  const QuantizedTensor& w = qm.layer(big).weights;

  // GEMM shape: a token block against the model's FFN up-projection, the
  // widest matmul a forward pass runs.
  const int64_t gm = quick ? 8 : 32;
  const int64_t gk = entry.d_model;
  const int64_t gn = entry.ffn_hidden;
  Rng rng(42);
  std::vector<float> ga(static_cast<size_t>(gm * gk));
  std::vector<float> gb(static_cast<size_t>(gn * gk));  // B^T row-major
  for (float& v : ga) v = rng.next_normal_f();
  for (float& v : gb) v = rng.next_normal_f();
  std::vector<float> dq_x(static_cast<size_t>(gm * w.cols()));
  for (float& v : dq_x) v = rng.next_normal_f();

  const size_t dct_n = quick ? 512 : 2048;  // SpecMark's chunk length
  std::vector<double> dct_x(dct_n);
  for (double& v : dct_x) v = rng.next_normal();

  PplConfig ppl_config;
  ppl_config.seq_len = 32;
  const int ppl_repeats = quick ? 1 : std::min(repeats, 2);

  // --- legacy row -------------------------------------------------------
  ThreadPool pool(1);
  ThreadPool::ScopedOverride over(pool);

  std::vector<float> ref_gemm(static_cast<size_t>(gm * gn));
  const auto time_legacy_gemm = [&] {
    return best_of(repeats, [&] {
      Timer t;
      for (int it = 0; it < kInnerIters; ++it) {
        legacy_gemm_nt(ga.data(), gb.data(), ref_gemm.data(), gm, gk, gn);
      }
      return t.milliseconds() / kInnerIters;
    });
  };
  double legacy_gemm_ms = time_legacy_gemm();

  std::vector<float> ref_dequant(static_cast<size_t>(gm * w.rows()));
  const auto time_legacy_dequant = [&] {
    return best_of(repeats, [&] {
      Timer t;
      for (int it = 0; it < kInnerIters; ++it) {
        const Tensor weff = legacy_dequantize(w);
        legacy_gemm_nt(dq_x.data(), weff.data(), ref_dequant.data(), gm,
                       w.cols(), w.rows());
      }
      return t.milliseconds() / kInnerIters;
    });
  };
  double legacy_dequant_ms = time_legacy_dequant();

  std::vector<double> ref_dct;
  const auto time_legacy_dct = [&] {
    return best_of(repeats, [&] {
      Timer t;
      ref_dct = legacy_dct2(std::span<const double>(dct_x));
      return t.milliseconds();
    });
  };
  double legacy_dct_ms = time_legacy_dct();

  // The ppl reference: materialize() then perplexity(), on the current kernels.
  double ref_ppl = 0.0;
  const double materialized_ppl_ms = best_of(ppl_repeats, [&] {
    Timer t;
    auto m = qm.materialize();
    ref_ppl = perplexity(*m, ctx.test_stream(), ppl_config);
    return t.milliseconds();
  });

  // --- dispatched rows, per kernel level --------------------------------
  struct Row {
    kernels::Level level;
    double gemm_ms;
    double dequant_ms;
    double dct_ms;
    double ppl_ms;
  };
  std::vector<Row> rows;
  for (kernels::Level level : kernels::supported_levels()) {
    kernels::ScopedLevelOverride kernel(level);
    const char* label = kernels::to_string(level);
    Row row{level, 0.0, 0.0, 0.0, 0.0};

    std::vector<float> out(static_cast<size_t>(gm * gn));
    row.gemm_ms = best_of(repeats, [&] {
      Timer t;
      for (int it = 0; it < kInnerIters; ++it) {
        gemm_nt(ga.data(), gb.data(), out.data(), gm, gk, gn);
      }
      return t.milliseconds() / kInnerIters;
    });
    if (!bitwise_equal(out, ref_gemm)) {
      std::fprintf(stderr, "FATAL: gemm_nt at %s diverged from legacy\n", label);
      return 1;
    }

    std::vector<float> dq_out(static_cast<size_t>(gm * w.rows()));
    row.dequant_ms = best_of(repeats, [&] {
      Timer t;
      for (int it = 0; it < kInnerIters; ++it) {
        dequant_gemm_nt(dq_x.data(), w, dq_out.data(), gm);
      }
      return t.milliseconds() / kInnerIters;
    });
    if (!bitwise_equal(dq_out, ref_dequant)) {
      std::fprintf(stderr, "FATAL: fused dequant-GEMM at %s diverged\n", label);
      return 1;
    }

    std::vector<double> dct_out;
    row.dct_ms = best_of(repeats, [&] {
      Timer t;
      dct_out = dct2(std::span<const double>(dct_x));
      return t.milliseconds();
    });
    for (size_t i = 0; i < dct_n; ++i) {
      if (std::fabs(dct_out[i] - ref_dct[i]) > 1e-9) {
        std::fprintf(stderr, "FATAL: dct2 at %s diverged at bin %zu\n", label, i);
        return 1;
      }
    }

    // Interleave the legacy reference cells with every level's cells:
    // each gated speedup ratio divides a legacy min by a dispatched min,
    // and on shared hosts mins taken from disjoint time windows drift
    // apart (the machine is simply faster during one of them), faking
    // regressions in bench_baseline.sh --compare. Sampling legacy next to
    // every level gives both sides of the ratio the same machine states.
    legacy_gemm_ms = std::min(legacy_gemm_ms, time_legacy_gemm());
    legacy_dequant_ms = std::min(legacy_dequant_ms, time_legacy_dequant());
    legacy_dct_ms = std::min(legacy_dct_ms, time_legacy_dct());

    double ppl = 0.0;
    row.ppl_ms = best_of(ppl_repeats, [&] {
      Timer t;
      ppl = perplexity(qm, ctx.test_stream(), ppl_config);
      return t.milliseconds();
    });
    if (ppl != ref_ppl) {
      std::fprintf(stderr, "FATAL: fused perplexity at %s != materialized\n",
                   label);
      return 1;
    }
    rows.push_back(row);
  }

  // Second timing window for every micro cell, legacy and dispatched. The
  // first windows run tens of seconds apart (the per-level ppl runs sit
  // between them), and on shared hosts scheduler noise arrives in
  // multi-second bursts -- a burst inside any single window skews the
  // speedup ratios bench_baseline.sh --compare gates. min() across two
  // well-separated windows strips the burst from both sides of each
  // ratio; the legacy cells stay interleaved with each level here too.
  for (Row& row : rows) {
    kernels::ScopedLevelOverride kernel(row.level);
    legacy_gemm_ms = std::min(legacy_gemm_ms, time_legacy_gemm());
    legacy_dequant_ms = std::min(legacy_dequant_ms, time_legacy_dequant());
    legacy_dct_ms = std::min(legacy_dct_ms, time_legacy_dct());
    std::vector<float> out(static_cast<size_t>(gm * gn));
    row.gemm_ms = std::min(row.gemm_ms, best_of(repeats, [&] {
      Timer t;
      for (int it = 0; it < kInnerIters; ++it) {
        gemm_nt(ga.data(), gb.data(), out.data(), gm, gk, gn);
      }
      return t.milliseconds() / kInnerIters;
    }));
    std::vector<float> dq_out(static_cast<size_t>(gm * w.rows()));
    row.dequant_ms = std::min(row.dequant_ms, best_of(repeats, [&] {
      Timer t;
      for (int it = 0; it < kInnerIters; ++it) {
        dequant_gemm_nt(dq_x.data(), w, dq_out.data(), gm);
      }
      return t.milliseconds() / kInnerIters;
    }));
    std::vector<double> dct_out;
    row.dct_ms = std::min(row.dct_ms, best_of(repeats, [&] {
      Timer t;
      dct_out = dct2(std::span<const double>(dct_x));
      return t.milliseconds();
    }));
  }

  // --- per-op breakdown of the ppl phase (default level) ----------------
  // kDequant nests inside kGemm (the fused path packs dequantized panels
  // from inside the GEMM driver), so GEMM proper is the difference. With
  // the pool pinned at one thread the shares are exact wall attribution.
  double bd_wall_ms = 0.0;
  phaseprof::set_enabled(true);
  phaseprof::reset();
  {
    Timer t;
    perplexity(qm, ctx.test_stream(), ppl_config);
    bd_wall_ms = t.milliseconds();
  }
  phaseprof::set_enabled(false);
  auto phase_ms = [](phaseprof::Phase p) {
    return static_cast<double>(phaseprof::total_ns(p)) * 1e-6;
  };
  const double bd_gemm_ms = phase_ms(phaseprof::Phase::kGemm);
  const double bd_dequant_ms = phase_ms(phaseprof::Phase::kDequant);
  const double bd_gemm_excl_ms = bd_gemm_ms - bd_dequant_ms;
  const double bd_attn_ms = phase_ms(phaseprof::Phase::kAttention);
  const double bd_nll_ms = phase_ms(phaseprof::Phase::kSoftmaxNll);
  const double bd_other_ms =
      std::max(0.0, bd_wall_ms - bd_gemm_ms - bd_attn_ms - bd_nll_ms);

  // --- M-sweep: fused dequant-GEMM per-row cost vs batch height ---------
  // The batched eval path exists to raise M: every K-panel unpack/dequant
  // is paid once per panel and amortized over M activation rows.
  const std::vector<int64_t> m_sweep_ms_values = quick
      ? std::vector<int64_t>{1, 8, 32}
      : std::vector<int64_t>{1, 8, 32, 256};
  struct MSweepRow { int64_t m; double ms; };
  std::vector<MSweepRow> m_sweep;
  {
    const int64_t max_m = m_sweep_ms_values.back();
    std::vector<float> sweep_x(static_cast<size_t>(max_m * w.cols()));
    for (float& v : sweep_x) v = rng.next_normal_f();
    std::vector<float> sweep_out(static_cast<size_t>(max_m * w.rows()));
    for (const int64_t m : m_sweep_ms_values) {
      const int iters = m >= 256 ? 2 : kInnerIters;
      const double ms = best_of(repeats, [&] {
        Timer t;
        for (int it = 0; it < iters; ++it) {
          dequant_gemm_nt(sweep_x.data(), w, sweep_out.data(), m);
        }
        return t.milliseconds() / iters;
      });
      m_sweep.push_back({m, ms});
    }
  }

  // --- packed int4 vs byte-per-code twin --------------------------------
  // The zoo layers are KB-sized and live in L1, where the packed layout's
  // halved weight stream cannot show up; the twin comparison instead runs
  // at a production-like weight size where the fused dequant-GEMM streams
  // the codes from memory every call. Identical codes/scales/input scale
  // by construction, so the outputs must still match bit for bit.
  const int64_t pk_rows = quick ? 1024 : 4096;
  const int64_t pk_cols = quick ? 4096 : 8192;
  QuantizedTensor w_big(pk_rows, pk_cols, QuantBits::kInt4, 128);
  {
    Rng prng(7);
    for (int64_t i = 0; i < w_big.numel(); ++i) {
      w_big.set_code_flat(
          i, static_cast<int8_t>(static_cast<int64_t>(prng.next_u64() % 15) - 7));
    }
    for (int64_t r = 0; r < pk_rows; ++r) {
      for (int64_t g = 0; g * 128 < pk_cols; ++g) {
        w_big.set_scale(r, g, 0.005f + 0.05f * prng.next_float());
      }
    }
    std::vector<float> in_scale(static_cast<size_t>(pk_cols));
    for (float& s : in_scale) s = 0.5f + prng.next_float();
    w_big.set_input_scale(std::move(in_scale));
  }
  const QuantizedTensor w_byte = byte_per_code_twin(w_big);
  const int64_t pk_m = 8;
  std::vector<float> pk_x(static_cast<size_t>(pk_m * pk_cols));
  for (float& v : pk_x) v = rng.next_normal_f();
  std::vector<float> packed_out(static_cast<size_t>(pk_m * pk_rows));
  std::vector<float> byte_out(static_cast<size_t>(pk_m * pk_rows));
  const int pk_iters = quick ? 1 : 2;
  // Dequant phase: stream every row through dequant_row_span into a reused
  // row buffer -- the panel packers' exact building block, and the phase
  // where the storage layout is the only variable (the packed side moves
  // half the code bytes and decodes nibbles in registers). Fused phase:
  // the full dequant_gemm_nt, where the shared f32 panel traffic and GEMM
  // flops dominate and the layouts are expected to land near parity.
  // Packed/byte timings interleave inside each best-of repeat so a noisy
  // neighbor can't bias one side of the ratio.
  double dq_packed_ms = 1e300, dq_byte_ms = 1e300;
  double fused_packed_ms = 1e300, fused_byte_ms = 1e300;
  std::vector<float> dq_row_packed(static_cast<size_t>(pk_cols));
  std::vector<float> dq_row_byte(static_cast<size_t>(pk_cols));
  for (int rep = 0; rep < std::max(repeats, 3); ++rep) {
    {
      Timer t;
      for (int64_t r = 0; r < pk_rows; ++r) {
        w_big.dequant_row_span(r, 0, pk_cols, dq_row_packed.data());
      }
      dq_packed_ms = std::min(dq_packed_ms, t.milliseconds());
    }
    {
      Timer t;
      for (int64_t r = 0; r < pk_rows; ++r) {
        w_byte.dequant_row_span(r, 0, pk_cols, dq_row_byte.data());
      }
      dq_byte_ms = std::min(dq_byte_ms, t.milliseconds());
    }
    {
      Timer t;
      for (int it = 0; it < pk_iters; ++it) {
        dequant_gemm_nt(pk_x.data(), w_big, packed_out.data(), pk_m);
      }
      fused_packed_ms = std::min(fused_packed_ms, t.milliseconds() / pk_iters);
    }
    {
      Timer t;
      for (int it = 0; it < pk_iters; ++it) {
        dequant_gemm_nt(pk_x.data(), w_byte, byte_out.data(), pk_m);
      }
      fused_byte_ms = std::min(fused_byte_ms, t.milliseconds() / pk_iters);
    }
  }
  if (!bitwise_equal(dq_row_packed, dq_row_byte)) {
    std::fprintf(stderr,
                 "FATAL: packed int4 dequant diverged from byte-per-code twin\n");
    return 1;
  }
  if (!bitwise_equal(packed_out, byte_out)) {
    std::fprintf(stderr, "FATAL: packed int4 diverged from byte-per-code twin\n");
    return 1;
  }

  // --- batched vs per-window eval ---------------------------------------
  // The serving-side quality-check shape: a caller streaming one window at
  // a time (batch_size = 1, M = seq_len rows per forward). Same fused
  // path, same windows, same tokens: the only difference is whether
  // consecutive windows merge into one (batch * seq) x K forward (this
  // PR's batched eval, default max_tokens_per_forward) or run one forward
  // per window (the pre-batching behavior, max_tokens_per_forward = 0), so
  // the ratio isolates the panel-pack amortization the merge buys.
  PplConfig stream_config = ppl_config;
  stream_config.batch_size = 1;
  PplConfig per_window_config = stream_config;
  per_window_config.max_tokens_per_forward = 0;
  double ppl_check = 0.0;
  const double per_window_ppl_ms = best_of(ppl_repeats, [&] {
    Timer t;
    ppl_check = perplexity(qm, ctx.test_stream(), per_window_config);
    return t.milliseconds();
  });
  double batched_ppl = 0.0;
  const double batched_ppl_ms = best_of(ppl_repeats, [&] {
    Timer t;
    batched_ppl = perplexity(qm, ctx.test_stream(), stream_config);
    return t.milliseconds();
  });
  if (batched_ppl != ppl_check) {
    std::fprintf(stderr, "FATAL: batched eval changed perplexity\n");
    return 1;
  }

  TablePrinter table({"path", "gemm ms", "dequant ms", "dct ms", "ppl ms",
                      "gemm x", "dequant x", "dct x", "ppl x"});
  table.add_row({"legacy; ppl: materialize()",
                 TablePrinter::fmt(legacy_gemm_ms, 3),
                 TablePrinter::fmt(legacy_dequant_ms, 3),
                 TablePrinter::fmt(legacy_dct_ms, 3),
                 TablePrinter::fmt(materialized_ppl_ms, 1), "1.00", "1.00", "1.00",
                 "1.00"});
  for (const Row& row : rows) {
    table.add_row({kernels::to_string(row.level),
                   TablePrinter::fmt(row.gemm_ms, 3),
                   TablePrinter::fmt(row.dequant_ms, 3),
                   TablePrinter::fmt(row.dct_ms, 3),
                   TablePrinter::fmt(row.ppl_ms, 1),
                   TablePrinter::fmt(legacy_gemm_ms / row.gemm_ms, 2),
                   TablePrinter::fmt(legacy_dequant_ms / row.dequant_ms, 2),
                   TablePrinter::fmt(legacy_dct_ms / row.dct_ms, 2),
                   TablePrinter::fmt(materialized_ppl_ms / row.ppl_ms, 2)});
  }
  table.print();
  std::printf("(gemm: %lld x %lld x %lld nt; dequant: fused vs materialize, "
              "layer %s; dct: n = %zu; ppl: fused view vs a materialize() "
              "pass, both on the current kernels; 1 pool thread; active "
              "default = %s)\n",
              static_cast<long long>(gm), static_cast<long long>(gk),
              static_cast<long long>(gn), qm.layer(big).name.c_str(), dct_n,
              kernels::to_string(kernels::default_level()));

  std::printf("\nppl per-op breakdown (default level, %.1f ms wall):\n",
              bd_wall_ms);
  TablePrinter bd_table({"op", "ms", "share"});
  auto share = [&](double ms) {
    return TablePrinter::fmt(bd_wall_ms > 0.0 ? 100.0 * ms / bd_wall_ms : 0.0, 1) + "%";
  };
  bd_table.add_row({"gemm (excl dequant)", TablePrinter::fmt(bd_gemm_excl_ms, 1),
                    share(bd_gemm_excl_ms)});
  bd_table.add_row({"dequant panel pack", TablePrinter::fmt(bd_dequant_ms, 1),
                    share(bd_dequant_ms)});
  bd_table.add_row({"attention", TablePrinter::fmt(bd_attn_ms, 1), share(bd_attn_ms)});
  bd_table.add_row({"softmax+nll", TablePrinter::fmt(bd_nll_ms, 1), share(bd_nll_ms)});
  bd_table.add_row({"other", TablePrinter::fmt(bd_other_ms, 1), share(bd_other_ms)});
  bd_table.print();

  std::printf("\nfused dequant-GEMM M-sweep (default level; per-row cost "
              "amortizes the per-panel dequant):\n");
  TablePrinter m_table({"M", "ms", "us/row"});
  for (const MSweepRow& r : m_sweep) {
    m_table.add_row({std::to_string(r.m), TablePrinter::fmt(r.ms, 3),
                     TablePrinter::fmt(1000.0 * r.ms / static_cast<double>(r.m), 2)});
  }
  m_table.print();

  std::printf("\npacked int4 vs byte-per-code twin (%lld x %lld synthetic "
              "weight, fused M = %lld, bit-identical outputs):\n",
              static_cast<long long>(pk_rows), static_cast<long long>(pk_cols),
              static_cast<long long>(pk_m));
  TablePrinter p_table(
      {"phase", "byte ms", "packed ms", "speedup", "packed/byte bytes"});
  p_table.add_row({"dequant (row spans)", TablePrinter::fmt(dq_byte_ms, 3),
                   TablePrinter::fmt(dq_packed_ms, 3),
                   TablePrinter::fmt(dq_byte_ms / dq_packed_ms, 2),
                   std::to_string(w_big.storage_bytes()) + "/" +
                       std::to_string(w_byte.storage_bytes())});
  p_table.add_row({"fused dequant-GEMM", TablePrinter::fmt(fused_byte_ms, 3),
                   TablePrinter::fmt(fused_packed_ms, 3),
                   TablePrinter::fmt(fused_byte_ms / fused_packed_ms, 2), ""});
  p_table.print();
  std::printf("(dequant streams codes at half the bytes; the fused phase is "
              "GEMM-flop-bound, so parity there means the packed decode is "
              "free)\n");

  std::printf("\nbatched eval (default level, fused path, batch-1 streaming "
              "windows): per-window %.1f ms, merged %.1f ms (%.2fx, cap %lld "
              "tokens/forward)\n",
              per_window_ppl_ms, batched_ppl_ms,
              per_window_ppl_ms / batched_ppl_ms,
              static_cast<long long>(stream_config.max_tokens_per_forward));

  std::printf("\nJSON: {\"bench\":\"eval_path\",\"model\":\"%s\",\"repeats\":%d,"
              "\"quick\":%s,\"kernel_default\":\"%s\","
              "\"gemm_shape\":[%lld,%lld,%lld],\"dct_n\":%zu,"
              "\"legacy\":{\"gemm_ms\":%.4f,\"dequant_ms\":%.4f,"
              "\"dct_ms\":%.4f,\"ppl_ms\":%.2f},\"kernels\":[",
              model_name.c_str(), repeats, quick ? "true" : "false",
              kernels::to_string(kernels::default_level()),
              static_cast<long long>(gm), static_cast<long long>(gk),
              static_cast<long long>(gn), dct_n, legacy_gemm_ms,
              legacy_dequant_ms, legacy_dct_ms, materialized_ppl_ms);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::printf("%s{\"kernel\":\"%s\",\"gemm_ms\":%.4f,\"dequant_ms\":%.4f,"
                "\"dct_ms\":%.4f,\"ppl_ms\":%.2f,\"gemm_speedup\":%.3f,"
                "\"dequant_speedup\":%.3f,\"dct_speedup\":%.3f,"
                "\"ppl_speedup\":%.3f}",
                i ? "," : "", kernels::to_string(row.level), row.gemm_ms,
                row.dequant_ms, row.dct_ms, row.ppl_ms,
                legacy_gemm_ms / row.gemm_ms,
                legacy_dequant_ms / row.dequant_ms, legacy_dct_ms / row.dct_ms,
                materialized_ppl_ms / row.ppl_ms);
  }
  std::printf("],\"ppl_phases\":{\"wall_ms\":%.2f,\"gemm_excl_ms\":%.2f,"
              "\"dequant_ms\":%.2f,\"attention_ms\":%.2f,\"softmax_nll_ms\":%.2f,"
              "\"other_ms\":%.2f},\"m_sweep\":[",
              bd_wall_ms, bd_gemm_excl_ms, bd_dequant_ms, bd_attn_ms, bd_nll_ms,
              bd_other_ms);
  for (size_t i = 0; i < m_sweep.size(); ++i) {
    std::printf("%s{\"m\":%lld,\"dequant_gemm_ms\":%.4f,\"us_per_row\":%.3f}",
                i ? "," : "", static_cast<long long>(m_sweep[i].m), m_sweep[i].ms,
                1000.0 * m_sweep[i].ms / static_cast<double>(m_sweep[i].m));
  }
  std::printf("],\"packed_int4\":{\"packed_ms\":%.4f,\"byte_ms\":%.4f,"
              "\"speedup\":%.3f,\"fused_packed_ms\":%.4f,\"fused_byte_ms\":%.4f,"
              "\"fused_speedup\":%.3f,\"packed_bytes\":%zu,\"byte_bytes\":%zu},"
              "\"batched_eval\":{\"per_window_ms\":%.2f,\"merged_ms\":%.2f,"
              "\"speedup\":%.3f,\"max_tokens_per_forward\":%lld}}\n",
              dq_packed_ms, dq_byte_ms, dq_byte_ms / dq_packed_ms,
              fused_packed_ms, fused_byte_ms, fused_byte_ms / fused_packed_ms,
              w_big.storage_bytes(), w_byte.storage_bytes(), per_window_ppl_ms,
              batched_ppl_ms, per_window_ppl_ms / batched_ppl_ms,
              static_cast<long long>(stream_config.max_tokens_per_forward));
  return 0;
}
