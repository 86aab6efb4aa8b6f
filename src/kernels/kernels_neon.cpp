// NEON dispatch level (AArch64). Two double lanes per iteration via the
// AArch64 float64x2 ops (vdivq_f64 requires AArch64 -- 32-bit NEON has no
// double-precision divide, so the level is gated on __aarch64__). Byte
// scans run 16 wide. count_matches shares the scalar routine: NEON has no
// gather.
#include "kernels/exp_lanes.h"
#include "kernels/gemm_tile.h"
#include "kernels/isa_tables.h"
#include "kernels/kernels.h"
#include "kernels/scalar_impl.h"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <limits>

namespace emmark::kernels {
namespace {

// gemm_tile_f32's ladder: 32 q registers hold a 4-row x 4-vector block
// (16 accumulators, 4 panel vectors and a broadcast). The exp ops
// (exp_lanes.h) run 4 lanes.
typedef float F32x4 __attribute__((vector_size(16)));

void score_row_neon(const ScoreArgs& a) {
  const float64x2_t inf_v = vdupq_n_f64(std::numeric_limits<double>::infinity());
  const float64x2_t qmax_v = vdupq_n_f64(static_cast<double>(a.qmax));
  const float64x2_t zero_v = vdupq_n_f64(0.0);
  const float64x2_t alpha_v = vdupq_n_f64(a.alpha);
  const bool has_alpha = a.alpha != 0.0;

  int64_t i = 0;
  for (; i + 2 <= a.n; i += 2) {
    const float64x2_t x = {static_cast<double>(a.codes[i]),
                           static_cast<double>(a.codes[i + 1])};
    const float64x2_t ax = vabsq_f64(x);
    const uint64x2_t excluded =
        vorrq_u64(vcgeq_f64(ax, qmax_v), vceqq_f64(ax, zero_v));
    const float64x2_t quot = has_alpha ? vdivq_f64(alpha_v, ax) : zero_v;
    const float64x2_t term = vbslq_f64(excluded, inf_v, quot);
    vst1q_f64(a.out + i, vaddq_f64(term, vld1q_f64(a.colterm + i)));
  }
  detail::score_row_tail(a, i);
}

size_t collect_le_f64_neon(const double* v, size_t n, double threshold,
                           int64_t* out) {
  const float64x2_t t = vdupq_n_f64(threshold);
  size_t count = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t le = vcleq_f64(vld1q_f64(v + i), t);
    if (vgetq_lane_u64(le, 0) != 0) out[count++] = static_cast<int64_t>(i);
    if (vgetq_lane_u64(le, 1) != 0) out[count++] = static_cast<int64_t>(i + 1);
  }
  if (i < n && v[i] <= threshold) out[count++] = static_cast<int64_t>(i);
  return count;
}

size_t collect_le_abs8_neon(const int8_t* codes, size_t n, int32_t threshold,
                            int64_t* out) {
  size_t count = 0;
  size_t i = 0;
  if (threshold >= 0) {
    const bool take_all = threshold >= 128;
    const int8_t t8 = static_cast<int8_t>(threshold > 127 ? 127 : threshold);
    const int8x16_t hi = vdupq_n_s8(t8);
    const int8x16_t lo = vdupq_n_s8(static_cast<int8_t>(-t8));
    for (; i + 16 <= n; i += 16) {
      const int8x16_t c = vld1q_s8(codes + i);
      uint8x16_t keep;
      if (take_all) {
        keep = vdupq_n_u8(0xff);
      } else {
        keep = vandq_u8(vcleq_s8(c, hi), vcgeq_s8(c, lo));
      }
      uint8_t lanes[16];
      vst1q_u8(lanes, keep);
      for (unsigned lane = 0; lane < 16; ++lane) {
        if (lanes[lane] != 0) out[count++] = static_cast<int64_t>(i + lane);
      }
    }
  }
  return detail::collect_le_abs8_tail(codes, i, n, threshold, out, count);
}

void axpy_f64_neon(double* dst, const double* src, double a, int64_t n) {
  // vmulq + vaddq, never vfmaq: FMA's single rounding would diverge from
  // the scalar reference's two roundings.
  const float64x2_t av = vdupq_n_f64(a);
  int64_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const float64x2_t prod = vmulq_f64(av, vld1q_f64(src + j));
    vst1q_f64(dst + j, vaddq_f64(vld1q_f64(dst + j), prod));
  }
  for (; j < n; ++j) dst[j] += a * src[j];
}

void dequant_span_f32_neon(const int8_t* codes, float scale,
                           const float* input_scale, float* out, int64_t n) {
  const float32x4_t scale_v = vdupq_n_f32(scale);
  int64_t t = 0;
  for (; t + 8 <= n; t += 8) {
    const int8x8_t c8 = vld1_s8(codes + t);
    const int16x8_t c16 = vmovl_s8(c8);
    const int32x4_t lo32 = vmovl_s16(vget_low_s16(c16));
    const int32x4_t hi32 = vmovl_s16(vget_high_s16(c16));
    float32x4_t lo = vmulq_f32(vcvtq_f32_s32(lo32), scale_v);
    float32x4_t hi = vmulq_f32(vcvtq_f32_s32(hi32), scale_v);
    if (input_scale != nullptr) {
      lo = vdivq_f32(lo, vld1q_f32(input_scale + t));
      hi = vdivq_f32(hi, vld1q_f32(input_scale + t + 4));
    }
    vst1q_f32(out + t, lo);
    vst1q_f32(out + t + 4, hi);
  }
  detail::dequant_span_f32_scalar(codes + t, scale,
                                  input_scale ? input_scale + t : nullptr,
                                  out + t, n - t);
}

void dequant_packed_span_f32_neon(const uint8_t* packed_row, int64_t col0,
                                  float scale, const float* input_scale,
                                  float* out, int64_t n) {
  int64_t t = 0;
  if (n > 0 && (col0 & 1) != 0) {
    // Peel the leading odd column so the main loop always starts on a byte
    // boundary (even column = low nibble).
    detail::dequant_packed_span_f32_scalar(packed_row, col0, scale, input_scale,
                                           out, 1);
    t = 1;
  }
  const uint8x8_t nib_mask = vdup_n_u8(0x0F);
  const int8x16_t bias = vdupq_n_s8(8);
  alignas(16) int8_t buf[16];
  for (; t + 16 <= n; t += 16) {
    // 8 packed bytes -> 16 codes: split nibbles, zip even (low-nibble) and
    // odd (high-nibble) codes back into column order, then sign-extend
    // 4 -> 8 bits via (x ^ 8) - 8.
    const uint8x8_t bytes = vld1_u8(packed_row + ((col0 + t) >> 1));
    const uint8x8_t lo = vand_u8(bytes, nib_mask);
    const uint8x8_t hi = vshr_n_u8(bytes, 4);
    const uint8x8x2_t zipped = vzip_u8(lo, hi);
    const int8x16_t inter =
        vreinterpretq_s8_u8(vcombine_u8(zipped.val[0], zipped.val[1]));
    const int8x16_t codes = vsubq_s8(veorq_s8(inter, bias), bias);
    vst1q_s8(buf, codes);
    // Reuse this level's unpacked FP loop => bit-identical dequant.
    dequant_span_f32_neon(buf, scale, input_scale ? input_scale + t : nullptr,
                          out + t, 16);
  }
  if (t < n) {
    detail::dequant_packed_span_f32_scalar(
        packed_row, col0 + t, scale, input_scale ? input_scale + t : nullptr,
        out + t, n - t);
  }
}

const Ops kNeonOps = {
    "neon",
    score_row_neon,
    detail::count_matches_scalar,  // no gather on NEON
    collect_le_f64_neon,
    collect_le_abs8_neon,
    axpy_f64_neon,
    dequant_span_f32_neon,
    detail::gemm_tile<4, F32x4>,
    dequant_packed_span_f32_neon,
    detail::exp_span<F32x4>,
    detail::swiglu<F32x4>,
    detail::causal_softmax_cols<F32x4>,
};

}  // namespace

namespace detail {
const Ops* neon_table() { return &kNeonOps; }
}  // namespace detail

}  // namespace emmark::kernels

#else  // !AArch64 NEON

namespace emmark::kernels::detail {
const Ops* neon_table() { return nullptr; }
}  // namespace emmark::kernels::detail

#endif
