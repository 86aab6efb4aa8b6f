// AVX2 dispatch level. Compiled with -mavx2 only when the toolchain
// supports it (CMake sets per-source ISA flags); otherwise this TU
// contributes a null table and the dispatcher never offers the level.
//
// Bit-identity with the scalar reference holds because every FP element
// is produced by the same single IEEE-754 operations (convert, divide,
// add) the scalar path performs -- vector lanes round identically -- and
// the exclusion masks select the same literal +inf. Integer paths are
// exact by construction.
#include "kernels/exp_lanes.h"
#include "kernels/gemm_tile.h"
#include "kernels/isa_tables.h"
#include "kernels/kernels.h"
#include "kernels/scalar_impl.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>
#include <limits>

namespace emmark::kernels {
namespace {

// gemm_tile_f32's ladder: 16 ymm registers hold a 4-row x 2-vector block
// of F32x8 (8 accumulators, 2 panel vectors and a broadcast); 3 or 4
// vectors per row spill accumulators to the stack. The exp ops
// (exp_lanes.h) run 8 lanes, then 4.
typedef float F32x8 __attribute__((vector_size(32)));
typedef float F32x4 __attribute__((vector_size(16)));

void score_row_avx2(const ScoreArgs& a) {
  const __m256d inf_v = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d qmax_v = _mm256_set1_pd(static_cast<double>(a.qmax));
  const __m256d zero_v = _mm256_setzero_pd();
  const __m256d alpha_v = _mm256_set1_pd(a.alpha);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const bool has_alpha = a.alpha != 0.0;

  int64_t i = 0;
  for (; i + 4 <= a.n; i += 4) {
    // 4 int8 codes -> int32 -> double (both conversions exact).
    int32_t packed;
    std::memcpy(&packed, a.codes + i, sizeof(packed));
    const __m128i codes32 = _mm_cvtepi8_epi32(_mm_cvtsi32_si128(packed));
    const __m256d x = _mm256_cvtepi32_pd(codes32);
    const __m256d ax = _mm256_andnot_pd(sign_mask, x);
    // Excluded lanes: |c| >= qmax (saturated) or |c| == 0 (zero code).
    const __m256d excluded =
        _mm256_or_pd(_mm256_cmp_pd(ax, qmax_v, _CMP_GE_OQ),
                     _mm256_cmp_pd(ax, zero_v, _CMP_EQ_OQ));
    // alpha / |c| for live lanes; the div's garbage on excluded lanes
    // (inf from /0) is blended away before it can reach the output.
    const __m256d quot = has_alpha ? _mm256_div_pd(alpha_v, ax) : zero_v;
    const __m256d term = _mm256_blendv_pd(quot, inf_v, excluded);
    const __m256d sum = _mm256_add_pd(term, _mm256_loadu_pd(a.colterm + i));
    _mm256_storeu_pd(a.out + i, sum);
  }
  detail::score_row_tail(a, i);
}

int64_t count_matches_avx2(const int8_t* suspect, const int8_t* original,
                           const int64_t* locations, const int8_t* bits,
                           size_t n, int64_t numel) {
  // 32-bit gathers read 4 bytes starting at each location, so a group is
  // vector-eligible only when every lane satisfies loc <= numel - 4; the
  // trailing locations of a layer (and any group straddling them) fall
  // back to the scalar compare. Deltas and bits are compared in int32 --
  // sign-extended from the gathered low byte -- because an adversarial
  // record may carry any int8 "bit", and a mod-256 compare would miscount
  // wrapped deltas as matches.
  int64_t matched = 0;
  const __m256i limit = _mm256_set1_epi64x(numel - 4);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i loc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(locations + j));
    if (_mm256_movemask_epi8(_mm256_cmpgt_epi64(loc, limit)) != 0) {
      matched += detail::count_matches_scalar(suspect, original, locations + j,
                                              bits + j, 4, numel);
      continue;
    }
    const __m128i s32 = _mm256_i64gather_epi32(
        reinterpret_cast<const int*>(suspect), loc, 1);
    const __m128i o32 = _mm256_i64gather_epi32(
        reinterpret_cast<const int*>(original), loc, 1);
    // Sign-extend the low byte of each 32-bit lane.
    const __m128i s = _mm_srai_epi32(_mm_slli_epi32(s32, 24), 24);
    const __m128i o = _mm_srai_epi32(_mm_slli_epi32(o32, 24), 24);
    int32_t packed_bits;
    std::memcpy(&packed_bits, bits + j, sizeof(packed_bits));
    const __m128i b = _mm_cvtepi8_epi32(_mm_cvtsi32_si128(packed_bits));
    const __m128i eq = _mm_cmpeq_epi32(_mm_sub_epi32(s, o), b);
    matched += __builtin_popcount(
        static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(eq))));
  }
  if (j < n) {
    matched += detail::count_matches_scalar(suspect, original, locations + j,
                                            bits + j, n - j, numel);
  }
  return matched;
}

size_t collect_le_f64_avx2(const double* v, size_t n, double threshold,
                           int64_t* out) {
  const __m256d t = _mm256_set1_pd(threshold);
  size_t count = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Ordered <=: +inf passes only a +inf threshold, exactly like scalar.
    unsigned mask = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(_mm256_loadu_pd(v + i), t, _CMP_LE_OQ)));
    while (mask != 0) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(mask));
      out[count++] = static_cast<int64_t>(i + lane);
      mask &= mask - 1;
    }
  }
  return detail::collect_le_f64_tail(v, i, n, threshold, out, count);
}

size_t collect_le_abs8_avx2(const int8_t* codes, size_t n, int32_t threshold,
                            int64_t* out) {
  size_t count = 0;
  size_t i = 0;
  if (threshold >= 0) {
    // |c| <= T in the signed byte domain: -T8 <= c <= T8 with T8 capped at
    // 127. A threshold >= 128 admits every byte (including -128, whose
    // int32 magnitude is 128), matching the scalar int32 compare.
    const bool take_all = threshold >= 128;
    const int8_t t8 = static_cast<int8_t>(threshold > 127 ? 127 : threshold);
    const __m256i hi = _mm256_set1_epi8(t8);
    const __m256i lo = _mm256_set1_epi8(static_cast<int8_t>(-t8));
    for (; i + 32 <= n; i += 32) {
      const __m256i c =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i));
      unsigned mask;
      if (take_all) {
        mask = 0xffffffffu;
      } else {
        const __m256i over = _mm256_cmpgt_epi8(c, hi);
        const __m256i under = _mm256_cmpgt_epi8(lo, c);
        mask = ~static_cast<unsigned>(
            _mm256_movemask_epi8(_mm256_or_si256(over, under)));
      }
      while (mask != 0) {
        const unsigned lane = static_cast<unsigned>(__builtin_ctz(mask));
        out[count++] = static_cast<int64_t>(i + lane);
        mask &= mask - 1;
      }
    }
  }
  return detail::collect_le_abs8_tail(codes, i, n, threshold, out, count);
}

void axpy_f64_avx2(double* dst, const double* src, double a, int64_t n) {
  // Explicit mul + add (not _mm256_fmadd_pd): FMA's single rounding would
  // diverge from the scalar reference's two roundings.
  const __m256d av = _mm256_set1_pd(a);
  int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d prod = _mm256_mul_pd(av, _mm256_loadu_pd(src + j));
    _mm256_storeu_pd(dst + j, _mm256_add_pd(_mm256_loadu_pd(dst + j), prod));
  }
  for (; j < n; ++j) dst[j] += a * src[j];
}

void dequant_span_f32_avx2(const int8_t* codes, float scale,
                           const float* input_scale, float* out, int64_t n) {
  const __m256 scale_v = _mm256_set1_ps(scale);
  int64_t t = 0;
  for (; t + 8 <= n; t += 8) {
    // 8 int8 codes -> int32 -> float (exact conversions), then the same
    // mul(/div) sequence as the scalar reference.
    const __m128i packed =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + t));
    const __m256i c32 = _mm256_cvtepi8_epi32(packed);
    __m256 v = _mm256_mul_ps(_mm256_cvtepi32_ps(c32), scale_v);
    if (input_scale != nullptr) {
      v = _mm256_div_ps(v, _mm256_loadu_ps(input_scale + t));
    }
    _mm256_storeu_ps(out + t, v);
  }
  detail::dequant_span_f32_scalar(codes + t, scale,
                                  input_scale ? input_scale + t : nullptr,
                                  out + t, n - t);
}

void dequant_packed_span_f32_avx2(const uint8_t* packed_row, int64_t col0,
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
  const __m256i nib_mask16 = _mm256_set1_epi16(0x000F);
  const __m256i bias = _mm256_set1_epi8(8);
  const __m256 scale_v = _mm256_set1_ps(scale);
  for (; t + 32 <= n; t += 32) {
    // 16 packed bytes -> 32 codes: widen each byte to a 16-bit lane, take
    // low nibble (even column) into the lane's low byte and high nibble
    // (odd column) into its high byte -- little-endian 16-bit lanes land
    // the codes back in column order -- then sign-extend 4 -> 8 bits via
    // (x ^ 8) - 8.
    const __m128i bytes = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(packed_row + ((col0 + t) >> 1)));
    const __m256i wide = _mm256_cvtepu8_epi16(bytes);
    const __m256i lo = _mm256_and_si256(wide, nib_mask16);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(wide, 4), nib_mask16);
    const __m256i inter = _mm256_or_si256(lo, _mm256_slli_epi16(hi, 8));
    const __m256i codes =
        _mm256_sub_epi8(_mm256_xor_si256(inter, bias), bias);
    // The codes stay in the register: each 8-code chunk runs the exact
    // int8 -> int32 -> float -> mul(/div) element sequence of
    // dequant_span_f32_avx2 (conversions are exact, the FP ops are
    // per-element), so skipping the int8 scratch round trip changes no
    // bits -- it only halves the L1 traffic of the decode.
    const __m128i lane0 = _mm256_castsi256_si128(codes);
    const __m128i lane1 = _mm256_extracti128_si256(codes, 1);
    const __m128i chunks[4] = {lane0, _mm_srli_si128(lane0, 8), lane1,
                               _mm_srli_si128(lane1, 8)};
    for (int q = 0; q < 4; ++q) {
      const __m256i c32 = _mm256_cvtepi8_epi32(chunks[q]);
      __m256 v = _mm256_mul_ps(_mm256_cvtepi32_ps(c32), scale_v);
      if (input_scale != nullptr) {
        v = _mm256_div_ps(v, _mm256_loadu_ps(input_scale + t + 8 * q));
      }
      _mm256_storeu_ps(out + t + 8 * q, v);
    }
  }
  const __m128i nib_mask8 = _mm_set1_epi8(0x0F);
  const __m128i bias8 = _mm_set1_epi8(8);
  for (; t + 16 <= n; t += 16) {
    // 8 packed bytes -> 16 codes, the step a 16-column scale group (AWQ)
    // takes: split nibbles, interleave them back into column order,
    // sign-extend 4 -> 8 bits, then the same int8 -> int32 -> float ->
    // mul(/div) sequence as the 32-code loop above, 8 codes at a time.
    const __m128i bytes = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(packed_row + ((col0 + t) >> 1)));
    const __m128i lo = _mm_and_si128(bytes, nib_mask8);
    const __m128i hi = _mm_and_si128(_mm_srli_epi16(bytes, 4), nib_mask8);
    const __m128i codes = _mm_sub_epi8(
        _mm_xor_si128(_mm_unpacklo_epi8(lo, hi), bias8), bias8);
    const __m128i chunks[2] = {codes, _mm_srli_si128(codes, 8)};
    for (int q = 0; q < 2; ++q) {
      __m256 v = _mm256_mul_ps(
          _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(chunks[q])), scale_v);
      if (input_scale != nullptr) {
        v = _mm256_div_ps(v, _mm256_loadu_ps(input_scale + t + 8 * q));
      }
      _mm256_storeu_ps(out + t + 8 * q, v);
    }
  }
  if (t < n) {
    detail::dequant_packed_span_f32_scalar(
        packed_row, col0 + t, scale, input_scale ? input_scale + t : nullptr,
        out + t, n - t);
  }
}

const Ops kAvx2Ops = {
    "avx2",
    score_row_avx2,
    count_matches_avx2,
    collect_le_f64_avx2,
    collect_le_abs8_avx2,
    axpy_f64_avx2,
    dequant_span_f32_avx2,
    detail::gemm_tile<2, F32x8, F32x4>,
    dequant_packed_span_f32_avx2,
    detail::exp_span<F32x8, F32x4>,
    detail::swiglu<F32x8, F32x4>,
    detail::causal_softmax_cols<F32x8, F32x4>,
};

}  // namespace

namespace detail {
const Ops* avx2_table() { return &kAvx2Ops; }
}  // namespace detail

}  // namespace emmark::kernels

#else  // !defined(__AVX2__)

namespace emmark::kernels::detail {
const Ops* avx2_table() { return nullptr; }
}  // namespace emmark::kernels::detail

#endif
