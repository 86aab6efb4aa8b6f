// Runtime-dispatched SIMD kernels for the watermark and eval hot loops.
//
// EmMark's derivation cost is dominated by two inner loops: the Eq. 2-4
// scoring sweep over every int8 code (score_row) and the Eq. 6
// delta-compare at extraction (count_matches). On top of them sit the
// threshold scans (collect_le_*) that power the two-pass candidate
// selection in src/kernels/select.h, and the eval-path microkernels:
// gemm_tile_f32 (up to kGemmTileRows rows of x against one K-panel, the
// register-blocked tile every GEMM layout in src/tensor/gemm.cpp and the
// attention score / context loops reduce to; its vector levels are one
// template, src/kernels/gemm_tile.h), dequant_span_f32 and
// dequant_packed_span_f32 (int8 / packed-int4 codes x group scale -> fp32,
// feeding both QuantizedTensor::dequantize and the fused dequant-GEMM),
// axpy_f64 (the DCT-II/III accumulate in src/signal/dct.cpp), and the
// three ops built on the repo's own exp (src/kernels/exp_lanes.h):
// exp_span_f32 (softmax_inplace, log_softmax and the LM head's softmax
// backward), swiglu_f32 (the SwiGLU activation) and
// causal_softmax_cols_f32 (attention's key-major causal softmax). Each op
// exists at up to five dispatch levels -- scalar, SSE2, AVX2, NEON,
// AVX-512 -- selected once per process by CPUID-style detection and
// forceable via EMMARK_KERNEL (scalar|sse2|avx2|neon|avx512, resolved
// through util/env).
//
// The contract every level must honour: **bit-identical results**. The
// scalar implementation is the semantic reference; a vector level may only
// reorder independent elements, never reassociate floating-point math (all
// FP here is single IEEE div/mul/add per element, which vector units round
// identically to scalar). tests/test_kernels.cpp enforces this across
// every level the host supports -- placement invariance across hardware is
// an ownership-proof requirement, not just a nicety.
//
// The exp is the repo's own rather than libm's for the same reason. glibc
// picks its expf implementation per CPU when the library loads, and two of
// them (with and without FMA) return results one ULP apart for some
// inputs, so every SwiGLU activation, and through training every zoo
// checkpoint, would depend on the host's libm. exp_lanes.h builds exp from
// IEEE mul/add steps and int32 bit operations only, one template for every
// level (the scalar table runs it one lane wide), within 1 ULP of the
// correctly rounded result. exp_f32 below is that lane function for one
// float, for the training-only SiLU derivative code.
//
// count_matches shares the scalar routine on the levels without a gather
// (SSE2, NEON); it stays in the dispatch table because AVX2 and AVX-512
// gather. The Eq. 5 stamp is one plain function (stamp() below), not a
// table op: it is a sparse read-modify-write, and an adversarial record's
// duplicate locations make a vector scatter unsafe at every level.
//
// Adding an ISA: see docs/ARCHITECTURE.md, "Kernel dispatch".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace emmark::kernels {

enum class Level : int32_t {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kNeon = 3,
  kAvx512 = 4,
};

const char* to_string(Level level);

/// Parses an EMMARK_KERNEL value ("scalar"|"sse2"|"avx2"|"neon"|"avx512");
/// throws std::invalid_argument on anything else.
Level parse_level(const std::string& name);

/// Levels this binary can execute on this CPU, ascending; always contains
/// kScalar. A level is supported when its TU was compiled with the ISA
/// enabled AND the running CPU reports the feature.
std::vector<Level> supported_levels();
bool level_supported(Level level);

/// The process default: EMMARK_KERNEL if set (std::runtime_error at first
/// use when the forced level is unsupported here), otherwise the best
/// supported level. Resolved once and cached.
Level default_level();

/// The level kernel callers should use: the innermost ScopedLevelOverride
/// if one is active, otherwise default_level().
Level active_level();

/// Most rows of x one gemm_tile_f32 call accumulates.
inline constexpr int64_t kGemmTileRows = 4;

// --- packed-int4 nibble codec ------------------------------------------------
//
// QuantBits::kInt4 tensors store two codes per byte: the EVEN column in the
// low nibble, the ODD column in the high nibble, row stride (cols + 1) / 2
// bytes (an odd-cols row leaves its final high nibble zero). These three
// helpers are the single definition of that layout; QuantizedTensor and the
// per-ISA dequant_packed_span_f32 kernels both build on them. The int4 grid
// is [-7, 7], so the 4-bit two's-complement nibble round-trips every legal
// code exactly.

/// Low-nibble (even column) code of a packed byte, sign-extended from 4 bits.
inline int8_t int4_unpack_lo(uint8_t byte) {
  return static_cast<int8_t>(static_cast<int8_t>(static_cast<uint8_t>(byte << 4)) >> 4);
}

/// High-nibble (odd column) code of a packed byte, sign-extended from 4 bits.
inline int8_t int4_unpack_hi(uint8_t byte) {
  return static_cast<int8_t>(static_cast<int8_t>(byte) >> 4);
}

/// Packs two int4-grid codes into one byte (lo = even column, hi = odd).
inline uint8_t int4_pack(int8_t lo, int8_t hi) {
  return static_cast<uint8_t>((static_cast<uint8_t>(lo) & 0x0F) |
                              (static_cast<uint8_t>(hi) << 4));
}

/// Bytes one packed int4 row occupies: two codes per byte, odd tail padded.
inline int64_t int4_row_bytes(int64_t cols) { return (cols + 1) / 2; }

/// Per-call context for the Eq. 2-4 scoring sweep over one row.
struct ScoreArgs {
  const int8_t* codes = nullptr;    // row slice of the contiguous code buffer
  int64_t n = 0;                    // columns in the row
  /// Per-column additive term, precomputed once per layer: beta * S_r[c]
  /// for insertable channels, +inf for excluded ones (FP outlier columns,
  /// Eq. 4 infinite-saliency channels), 0.0 when beta == 0.
  const double* colterm = nullptr;
  double alpha = 0.0;               // Eq. 2 magnitude coefficient
  int32_t qmax = 127;               // saturation bound: |code| >= qmax excluded
  double* out = nullptr;            // scores row slice, fully overwritten
};

/// One dispatch level's implementations. All function pointers are
/// non-null at every level.
struct Ops {
  const char* name;

  /// Eq. 2-4 for one row: out[i] = A(codes[i]) + colterm[i], where
  /// A(c) = +inf when |c| >= qmax or c == 0 (saturated / zero codes are
  /// never watermarkable), alpha / |c| when alpha != 0, else 0.0.
  /// Exclusions thus become ordinary +inf arithmetic: no branches, and a
  /// score is +inf exactly when the weight is uninsertable.
  void (*score_row)(const ScoreArgs& args);

  /// Eq. 6 delta-compare: number of j in [0, n) with
  /// suspect[loc[j]] - original[loc[j]] == bits[j], computed in int32 (an
  /// adversarial record may carry any int8 bit value, so mod-256 tricks
  /// would miscount). Caller has validated 0 <= loc[j] < numel; `numel`
  /// is passed so gather levels can bounds-guard their wide loads.
  int64_t (*count_matches)(const int8_t* suspect, const int8_t* original,
                           const int64_t* locations, const int8_t* bits,
                           size_t n, int64_t numel);

  /// Threshold scan: appends (in ascending order) every index i with
  /// v[i] <= threshold to `out` (caller-sized to n) and returns the
  /// count. +inf entries pass only a +inf threshold.
  size_t (*collect_le_f64)(const double* v, size_t n, double threshold,
                           int64_t* out);

  /// Threshold scan over int8 magnitudes: appends every index i with
  /// |codes[i]| <= threshold (int32 abs, so |-128| == 128) and returns
  /// the count.
  size_t (*collect_le_abs8)(const int8_t* codes, size_t n, int32_t threshold,
                            int64_t* out);

  /// DCT-II/III accumulate over cosine-table rows (src/signal/dct.cpp):
  /// dst[j] += a * src[j] for j in [0, n). Each dst[j] is an independent
  /// accumulator, so vector widths only change how many outputs advance
  /// per instruction, never the per-output summation order. One IEEE mul
  /// and one IEEE add per element -- implementations must not fuse them
  /// (FMA rounds once where mul+add rounds twice, breaking bit-identity).
  void (*axpy_f64)(double* dst, const double* src, double a, int64_t n);

  /// Dequantize one group-aligned span of int8 codes:
  ///   out[t] = float(codes[t]) * scale            (input_scale == nullptr)
  ///   out[t] = float(codes[t]) * scale / input_scale[t]   (otherwise)
  /// Mirrors QuantizedTensor::dequantize() exactly (mul then true IEEE
  /// divide, never a reciprocal-multiply) so the fused dequant-GEMM path
  /// is bit-identical to materialize-then-multiply.
  void (*dequant_span_f32)(const int8_t* codes, float scale,
                           const float* input_scale, float* out, int64_t n);

  /// GEMM tile microkernel: for r in [0, mr), j in [0, jb)
  ///   dst[r * dst_stride + j] += sum over p in [0, pb) ascending of
  ///       x[r * x_row_stride + p * x_stride] * panel[p * panel_stride + j]
  /// with 0 <= mr <= kGemmTileRows. Every panel row loaded feeds all mr
  /// rows. Each output is its own accumulator: loaded once, advanced in
  /// strict ascending-p order, stored once, so every level produces the
  /// scalar reference's bits. Same FMA prohibition as axpy_f64: one IEEE
  /// mul and one IEEE add per term.
  void (*gemm_tile_f32)(float* dst, int64_t dst_stride, const float* panel,
                        int64_t panel_stride, const float* x,
                        int64_t x_row_stride, int64_t x_stride, int64_t mr,
                        int64_t pb, int64_t jb);

  /// Dequantize one group-aligned span of a PACKED int4 row (two codes per
  /// byte, layout per the nibble codec above). `packed_row` is the start of
  /// the row's packed bytes; `col0` is the absolute column of out[0]
  /// (needed for nibble parity); `input_scale`, when non-null, is already
  /// offset to col0. Produces exactly dequant_span_f32 applied to the
  /// unpacked codes: the x86 levels decode nibbles in registers and run
  /// the same int8 -> int32 -> float -> mul(/div) element sequence as
  /// their dequant_span_f32; NEON stores each 16-code block to a 16-byte
  /// stack buffer and reuses its dequant_span_f32. Either way fused packed
  /// panels stay bit-identical to materialize-then-multiply.
  void (*dequant_packed_span_f32)(const uint8_t* packed_row, int64_t col0,
                                  float scale, const float* input_scale,
                                  float* out, int64_t n);

  /// out[i] = exp(x[i] - shift) for i in [0, n), one subtract and the
  /// repo's exp per element (exp_lanes.h). `out` may equal `x`.
  void (*exp_span_f32)(const float* x, float shift, float* out, int64_t n);

  /// SwiGLU activation: h[i] = g[i] / (1 + exp(-g[i])) * u[i], the divide
  /// before the multiply (silu(g) * u with silu from tensor/ops.h).
  void (*swiglu_f32)(const float* g, const float* u, float* h, int64_t n);

  /// Causal softmax over the columns of one n x n key-major score block,
  /// block[t2 * n + t1] = score of query t1 against key t2. For each query
  /// t1, entries t2 <= t1 become softmax_inplace of scale * block[t2, t1]
  /// over t2 = 0..t1, bit for bit (scale each, max, exp(x - max), sum in
  /// ascending t2, one reciprocal, multiply), and entries t2 > t1 become
  /// exact +0 whatever they held.
  void (*causal_softmax_cols_f32)(float* block, int64_t n, float scale);
};

/// Table for `level`; throws std::runtime_error when the level is not
/// supported on this host/binary.
const Ops& ops_for(Level level);

/// Table for active_level().
const Ops& active_ops();

/// exp(x) for one float: the lane function every exp op above runs (0 below
/// -103.97208, +inf above 88.722832, NaN unchanged, exp(0) == 1 exactly).
float exp_f32(float x);

/// Eq. 5 stamp: codes[loc[j]] += bits[j], in j order. The caller
/// guarantees the sums stay inside the quantization grid (derivation never
/// selects a saturated weight), which is what lets this write through the
/// raw buffer instead of per-element bound-checked setters.
void stamp(int8_t* codes, const int64_t* locations, const int8_t* bits, size_t n);

/// RAII override of active_level() for tests and benches: runs every
/// supported level through the exact production call sites without
/// touching the EMMARK_KERNEL selection. Process-wide (not thread-local)
/// because kernel dispatch is consulted on pool worker threads, which a
/// thread-local override would never reach; nest freely on one thread,
/// but do not hold overrides on two threads at once. Throws if `level`
/// is unsupported.
class ScopedLevelOverride {
 public:
  explicit ScopedLevelOverride(Level level);
  ~ScopedLevelOverride();

  ScopedLevelOverride(const ScopedLevelOverride&) = delete;
  ScopedLevelOverride& operator=(const ScopedLevelOverride&) = delete;

 private:
  int32_t previous_;
};

}  // namespace emmark::kernels
