// AVX-512 dispatch level. Compiled with -mavx512f -mavx512bw -mavx512vl
// only when the toolchain supports all three (CMake sets per-source ISA
// flags); otherwise this TU contributes a null table and the dispatcher
// never offers the level. Runtime gating in kernels.cpp additionally
// requires the CPU to report avx512f+bw+vl.
//
// What each extension buys: F gives the 8-wide double lanes, predicate
// masks, and 8-lane int64 gathers; BW gives 64-wide byte compares for the
// magnitude scan; VL lets the 256-bit halves of mixed-width ops use mask
// registers too. The TU is compiled with the repo-wide -ffp-contract=off,
// and all FP ops below are explicit mul/add/div intrinsics or vector-
// extension operators -- never FMA -- so every lane performs exactly the
// scalar reference's IEEE operations and bit-identity holds.
#include "kernels/exp_lanes.h"
#include "kernels/gemm_tile.h"
#include "kernels/isa_tables.h"
#include "kernels/kernels.h"
#include "kernels/scalar_impl.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include <immintrin.h>

#include <cstring>
#include <limits>

namespace emmark::kernels {
namespace {

// gemm_tile_f32's ladder: 32 zmm registers hold a 4-row x 4-vector block
// of F32x16 (16 accumulators, 4 panel vectors and a broadcast); the
// narrower types cover the columns a 16-lane vector leaves over. The exp
// ops (exp_lanes.h) step down the same ladder: 16 lanes, then 8, then 4.
typedef float F32x16 __attribute__((vector_size(64)));
typedef float F32x8 __attribute__((vector_size(32)));
typedef float F32x4 __attribute__((vector_size(16)));

void score_row_avx512(const ScoreArgs& a) {
  const __m512d inf_v = _mm512_set1_pd(std::numeric_limits<double>::infinity());
  const __m512d qmax_v = _mm512_set1_pd(static_cast<double>(a.qmax));
  const __m512d zero_v = _mm512_setzero_pd();
  const __m512d alpha_v = _mm512_set1_pd(a.alpha);
  const bool has_alpha = a.alpha != 0.0;

  int64_t i = 0;
  for (; i + 8 <= a.n; i += 8) {
    // 8 int8 codes -> int32 -> double (both conversions exact).
    const __m128i packed =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a.codes + i));
    const __m256i codes32 = _mm256_cvtepi8_epi32(packed);
    const __m512d x = _mm512_cvtepi32_pd(codes32);
    const __m512d ax = _mm512_abs_pd(x);
    // Excluded lanes become a predicate mask instead of a blend vector.
    const __mmask8 excluded =
        _mm512_cmp_pd_mask(ax, qmax_v, _CMP_GE_OQ) |
        _mm512_cmp_pd_mask(ax, zero_v, _CMP_EQ_OQ);
    const __m512d quot = has_alpha ? _mm512_div_pd(alpha_v, ax) : zero_v;
    const __m512d term = _mm512_mask_blend_pd(excluded, quot, inf_v);
    const __m512d sum = _mm512_add_pd(term, _mm512_loadu_pd(a.colterm + i));
    _mm512_storeu_pd(a.out + i, sum);
  }
  detail::score_row_tail(a, i);
}

int64_t count_matches_avx512(const int8_t* suspect, const int8_t* original,
                             const int64_t* locations, const int8_t* bits,
                             size_t n, int64_t numel) {
  // Same scheme as the AVX2 gather, twice as wide: 32-bit gathers read 4
  // bytes at each location, so a group is vector-eligible only when every
  // lane satisfies loc <= numel - 4; groups touching the buffer tail fall
  // back to the scalar compare. Deltas compare in int32 (sign-extended
  // low byte) for the same adversarial-record reason as every other level.
  int64_t matched = 0;
  const __m512i limit = _mm512_set1_epi64(numel - 4);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i loc =
        _mm512_loadu_si512(reinterpret_cast<const void*>(locations + j));
    if (_mm512_cmpgt_epi64_mask(loc, limit) != 0) {
      matched += detail::count_matches_scalar(suspect, original, locations + j,
                                              bits + j, 8, numel);
      continue;
    }
    const __m256i s32 = _mm512_i64gather_epi32(loc, suspect, 1);
    const __m256i o32 = _mm512_i64gather_epi32(loc, original, 1);
    const __m256i s = _mm256_srai_epi32(_mm256_slli_epi32(s32, 24), 24);
    const __m256i o = _mm256_srai_epi32(_mm256_slli_epi32(o32, 24), 24);
    const __m128i packed_bits =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(bits + j));
    const __m256i b = _mm256_cvtepi8_epi32(packed_bits);
    const __mmask8 eq =
        _mm256_cmpeq_epi32_mask(_mm256_sub_epi32(s, o), b);
    matched += __builtin_popcount(static_cast<unsigned>(eq));
  }
  if (j < n) {
    matched += detail::count_matches_scalar(suspect, original, locations + j,
                                            bits + j, n - j, numel);
  }
  return matched;
}

size_t collect_le_f64_avx512(const double* v, size_t n, double threshold,
                             int64_t* out) {
  const __m512d t = _mm512_set1_pd(threshold);
  size_t count = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Ordered <=: +inf passes only a +inf threshold, exactly like scalar.
    unsigned mask = static_cast<unsigned>(
        _mm512_cmp_pd_mask(_mm512_loadu_pd(v + i), t, _CMP_LE_OQ));
    while (mask != 0) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(mask));
      out[count++] = static_cast<int64_t>(i + lane);
      mask &= mask - 1;
    }
  }
  return detail::collect_le_f64_tail(v, i, n, threshold, out, count);
}

size_t collect_le_abs8_avx512(const int8_t* codes, size_t n, int32_t threshold,
                              int64_t* out) {
  size_t count = 0;
  size_t i = 0;
  if (threshold >= 0) {
    // |c| <= T in the signed byte domain: -T8 <= c <= T8 with T8 capped at
    // 127; threshold >= 128 admits every byte (including -128), matching
    // the scalar int32 compare. 64 bytes per iteration via AVX512BW.
    const bool take_all = threshold >= 128;
    const int8_t t8 = static_cast<int8_t>(threshold > 127 ? 127 : threshold);
    const __m512i hi = _mm512_set1_epi8(t8);
    const __m512i lo = _mm512_set1_epi8(static_cast<int8_t>(-t8));
    for (; i + 64 <= n; i += 64) {
      const __m512i c =
          _mm512_loadu_si512(reinterpret_cast<const void*>(codes + i));
      unsigned long long mask;
      if (take_all) {
        mask = ~0ull;
      } else {
        mask = _mm512_cmple_epi8_mask(c, hi) & _mm512_cmple_epi8_mask(lo, c);
      }
      while (mask != 0) {
        const unsigned lane = static_cast<unsigned>(__builtin_ctzll(mask));
        out[count++] = static_cast<int64_t>(i + lane);
        mask &= mask - 1;
      }
    }
  }
  return detail::collect_le_abs8_tail(codes, i, n, threshold, out, count);
}

void axpy_f64_avx512(double* dst, const double* src, double a, int64_t n) {
  // Explicit mul + add, never _mm512_fmadd_pd: FMA's single rounding
  // would diverge from the scalar reference's two roundings.
  const __m512d av = _mm512_set1_pd(a);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512d prod = _mm512_mul_pd(av, _mm512_loadu_pd(src + j));
    _mm512_storeu_pd(dst + j, _mm512_add_pd(_mm512_loadu_pd(dst + j), prod));
  }
  for (; j < n; ++j) dst[j] += a * src[j];
}

void dequant_span_f32_avx512(const int8_t* codes, float scale,
                             const float* input_scale, float* out, int64_t n) {
  const __m512 scale_v = _mm512_set1_ps(scale);
  int64_t t = 0;
  for (; t + 16 <= n; t += 16) {
    // 16 int8 codes -> int32 -> float (exact conversions), then the same
    // mul(/div) sequence as the scalar reference.
    const __m128i packed =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + t));
    const __m512i c32 = _mm512_cvtepi8_epi32(packed);
    __m512 v = _mm512_mul_ps(_mm512_cvtepi32_ps(c32), scale_v);
    if (input_scale != nullptr) {
      v = _mm512_div_ps(v, _mm512_loadu_ps(input_scale + t));
    }
    _mm512_storeu_ps(out + t, v);
  }
  detail::dequant_span_f32_scalar(codes + t, scale,
                                  input_scale ? input_scale + t : nullptr,
                                  out + t, n - t);
}

void dequant_packed_span_f32_avx512(const uint8_t* packed_row, int64_t col0,
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
  const __m512i nib_mask16 = _mm512_set1_epi16(0x000F);
  const __m512i bias = _mm512_set1_epi8(8);
  const __m512 scale_v = _mm512_set1_ps(scale);
  for (; t + 64 <= n; t += 64) {
    // 32 packed bytes -> 64 codes: widen each byte to a 16-bit lane, take
    // low nibble (even column) into the lane's low byte and high nibble
    // (odd column) into its high byte -- little-endian 16-bit lanes land
    // the codes back in column order -- then sign-extend 4 -> 8 bits via
    // (x ^ 8) - 8.
    const __m256i bytes = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(packed_row + ((col0 + t) >> 1)));
    const __m512i wide = _mm512_cvtepu8_epi16(bytes);
    const __m512i lo = _mm512_and_si512(wide, nib_mask16);
    const __m512i hi =
        _mm512_and_si512(_mm512_srli_epi16(wide, 4), nib_mask16);
    const __m512i inter = _mm512_or_si512(lo, _mm512_slli_epi16(hi, 8));
    const __m512i codes =
        _mm512_sub_epi8(_mm512_xor_si512(inter, bias), bias);
    // The codes stay in the register: each 16-code lane block runs the
    // exact int8 -> int32 -> float -> mul(/div) element sequence of
    // dequant_span_f32_avx512 (conversions are exact, the FP ops are
    // per-element), so skipping the int8 scratch round trip changes no
    // bits -- it only halves the L1 traffic of the decode.
    for (int q = 0; q < 4; ++q) {
      __m128i c8;
      switch (q) {
        case 0: c8 = _mm512_extracti32x4_epi32(codes, 0); break;
        case 1: c8 = _mm512_extracti32x4_epi32(codes, 1); break;
        case 2: c8 = _mm512_extracti32x4_epi32(codes, 2); break;
        default: c8 = _mm512_extracti32x4_epi32(codes, 3); break;
      }
      const __m512i c32 = _mm512_cvtepi8_epi32(c8);
      __m512 v = _mm512_mul_ps(_mm512_cvtepi32_ps(c32), scale_v);
      if (input_scale != nullptr) {
        v = _mm512_div_ps(v, _mm512_loadu_ps(input_scale + t + 16 * q));
      }
      _mm512_storeu_ps(out + t + 16 * q, v);
    }
  }
  const __m128i nib_mask8 = _mm_set1_epi8(0x0F);
  const __m128i bias8 = _mm_set1_epi8(8);
  for (; t + 16 <= n; t += 16) {
    // 8 packed bytes -> 16 codes, the step a 16-column scale group (AWQ)
    // takes: split nibbles, interleave them back into column order,
    // sign-extend 4 -> 8 bits, then the same int8 -> int32 -> float ->
    // mul(/div) sequence as the 64-code loop above.
    const __m128i bytes = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(packed_row + ((col0 + t) >> 1)));
    const __m128i lo = _mm_and_si128(bytes, nib_mask8);
    const __m128i hi = _mm_and_si128(_mm_srli_epi16(bytes, 4), nib_mask8);
    const __m128i codes = _mm_sub_epi8(
        _mm_xor_si128(_mm_unpacklo_epi8(lo, hi), bias8), bias8);
    __m512 v = _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(codes)),
                             scale_v);
    if (input_scale != nullptr) {
      v = _mm512_div_ps(v, _mm512_loadu_ps(input_scale + t));
    }
    _mm512_storeu_ps(out + t, v);
  }
  if (t < n) {
    detail::dequant_packed_span_f32_scalar(
        packed_row, col0 + t, scale, input_scale ? input_scale + t : nullptr,
        out + t, n - t);
  }
}

const Ops kAvx512Ops = {
    "avx512",
    score_row_avx512,
    count_matches_avx512,
    collect_le_f64_avx512,
    collect_le_abs8_avx512,
    axpy_f64_avx512,
    dequant_span_f32_avx512,
    detail::gemm_tile<4, F32x16, F32x8, F32x4>,
    dequant_packed_span_f32_avx512,
    detail::exp_span<F32x16, F32x8, F32x4>,
    detail::swiglu<F32x16, F32x8, F32x4>,
    detail::causal_softmax_cols<F32x16, F32x8, F32x4>,
};

}  // namespace

namespace detail {
const Ops* avx512_table() { return &kAvx512Ops; }
}  // namespace detail

}  // namespace emmark::kernels

#else  // !(__AVX512F__ && __AVX512BW__ && __AVX512VL__)

namespace emmark::kernels::detail {
const Ops* avx512_table() { return nullptr; }
}  // namespace emmark::kernels::detail

#endif
