// SSE2 dispatch level: the x86 floor (every x86-64 CPU has it), so the
// fallback lane on hosts without AVX2 still gets vector divides and
// compares. Two double lanes per iteration; the int8 -> double widening is
// scalar (no pmovsx below SSE4.1) but the divide/compare/blend -- the
// expensive part -- is vector. count_matches shares the scalar routine:
// SSE2 has no gather.
#include "kernels/exp_lanes.h"
#include "kernels/gemm_tile.h"
#include "kernels/isa_tables.h"
#include "kernels/kernels.h"
#include "kernels/scalar_impl.h"

#if defined(__SSE2__)

#include <emmintrin.h>

#include <cstring>
#include <limits>

namespace emmark::kernels {
namespace {

// gemm_tile_f32's ladder: a 4-row x 4-vector block spills a few of its 16
// accumulators out of the 16 xmm registers, but an SSE2 broadcast is a
// load plus a shuffle, and feeding each one to four vectors instead of two
// measured ~8% faster than the spill-free 2-vector block (Xeon VM, one
// thread, the ppl layer's GEMMs). The exp ops (exp_lanes.h) run 4 lanes.
typedef float F32x4 __attribute__((vector_size(16)));

void score_row_sse2(const ScoreArgs& a) {
  const __m128d inf_v = _mm_set1_pd(std::numeric_limits<double>::infinity());
  const __m128d qmax_v = _mm_set1_pd(static_cast<double>(a.qmax));
  const __m128d zero_v = _mm_setzero_pd();
  const __m128d alpha_v = _mm_set1_pd(a.alpha);
  const __m128d sign_mask = _mm_set1_pd(-0.0);
  const bool has_alpha = a.alpha != 0.0;

  int64_t i = 0;
  for (; i + 2 <= a.n; i += 2) {
    const __m128d x = _mm_set_pd(static_cast<double>(a.codes[i + 1]),
                                 static_cast<double>(a.codes[i]));
    const __m128d ax = _mm_andnot_pd(sign_mask, x);
    const __m128d excluded =
        _mm_or_pd(_mm_cmpge_pd(ax, qmax_v), _mm_cmpeq_pd(ax, zero_v));
    const __m128d quot = has_alpha ? _mm_div_pd(alpha_v, ax) : zero_v;
    // blendv is SSE4.1; and/andnot/or is the SSE2 spelling.
    const __m128d term =
        _mm_or_pd(_mm_and_pd(excluded, inf_v), _mm_andnot_pd(excluded, quot));
    _mm_storeu_pd(a.out + i, _mm_add_pd(term, _mm_loadu_pd(a.colterm + i)));
  }
  detail::score_row_tail(a, i);
}

size_t collect_le_f64_sse2(const double* v, size_t n, double threshold,
                           int64_t* out) {
  const __m128d t = _mm_set1_pd(threshold);
  size_t count = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    unsigned mask = static_cast<unsigned>(
        _mm_movemask_pd(_mm_cmple_pd(_mm_loadu_pd(v + i), t)));
    if (mask & 1u) out[count++] = static_cast<int64_t>(i);
    if (mask & 2u) out[count++] = static_cast<int64_t>(i + 1);
  }
  if (i < n && v[i] <= threshold) out[count++] = static_cast<int64_t>(i);
  return count;
}

size_t collect_le_abs8_sse2(const int8_t* codes, size_t n, int32_t threshold,
                            int64_t* out) {
  size_t count = 0;
  size_t i = 0;
  if (threshold >= 0) {
    const bool take_all = threshold >= 128;
    const int8_t t8 = static_cast<int8_t>(threshold > 127 ? 127 : threshold);
    const __m128i hi = _mm_set1_epi8(t8);
    const __m128i lo = _mm_set1_epi8(static_cast<int8_t>(-t8));
    for (; i + 16 <= n; i += 16) {
      const __m128i c =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i));
      unsigned mask;
      if (take_all) {
        mask = 0xffffu;
      } else {
        const __m128i over = _mm_cmpgt_epi8(c, hi);
        const __m128i under = _mm_cmpgt_epi8(lo, c);
        mask = 0xffffu & ~static_cast<unsigned>(
                             _mm_movemask_epi8(_mm_or_si128(over, under)));
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

void axpy_f64_sse2(double* dst, const double* src, double a, int64_t n) {
  const __m128d av = _mm_set1_pd(a);
  int64_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const __m128d prod = _mm_mul_pd(av, _mm_loadu_pd(src + j));
    _mm_storeu_pd(dst + j, _mm_add_pd(_mm_loadu_pd(dst + j), prod));
  }
  for (; j < n; ++j) dst[j] += a * src[j];
}

void dequant_span_f32_sse2(const int8_t* codes, float scale,
                           const float* input_scale, float* out, int64_t n) {
  // 4 int8 codes -> int32 (unpack + shift sign-extension; pmovsx is
  // SSE4.1) -> float, then the same mul(/div) the scalar reference does.
  const __m128 scale_v = _mm_set1_ps(scale);
  int64_t t = 0;
  for (; t + 4 <= n; t += 4) {
    int32_t packed;
    std::memcpy(&packed, codes + t, sizeof(packed));
    __m128i c32 = _mm_unpacklo_epi8(_mm_cvtsi32_si128(packed), _mm_setzero_si128());
    c32 = _mm_unpacklo_epi16(c32, _mm_setzero_si128());
    c32 = _mm_srai_epi32(_mm_slli_epi32(c32, 24), 24);
    __m128 v = _mm_mul_ps(_mm_cvtepi32_ps(c32), scale_v);
    if (input_scale != nullptr) {
      v = _mm_div_ps(v, _mm_loadu_ps(input_scale + t));
    }
    _mm_storeu_ps(out + t, v);
  }
  detail::dequant_span_f32_scalar(codes + t, scale,
                                  input_scale ? input_scale + t : nullptr,
                                  out + t, n - t);
}

void dequant_packed_span_f32_sse2(const uint8_t* packed_row, int64_t col0,
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
  const __m128i nib_mask = _mm_set1_epi8(0x0F);
  const __m128i bias = _mm_set1_epi8(8);
  const __m128 scale_v = _mm_set1_ps(scale);
  for (; t + 16 <= n; t += 16) {
    // 8 packed bytes -> 16 codes: split nibbles, interleave back into
    // column order, sign-extend 4 -> 8 bits via (x ^ 8) - 8.
    const __m128i bytes = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(packed_row + ((col0 + t) >> 1)));
    const __m128i lo = _mm_and_si128(bytes, nib_mask);
    const __m128i hi = _mm_and_si128(_mm_srli_epi16(bytes, 4), nib_mask);
    const __m128i inter = _mm_unpacklo_epi8(lo, hi);
    const __m128i codes = _mm_sub_epi8(_mm_xor_si128(inter, bias), bias);
    // The codes stay in the register: each 4-code chunk is zero-widened
    // to 32-bit lanes, sign-extended with the same slli/srai-24 trick as
    // dequant_span_f32_sse2, then runs its exact int32 -> float ->
    // mul(/div) element sequence (conversions are exact, the FP ops are
    // per-element), so skipping the int8 scratch round trip changes no
    // bits -- it only halves the L1 traffic of the decode.
    const __m128i zero = _mm_setzero_si128();
    const __m128i w_lo = _mm_unpacklo_epi8(codes, zero);
    const __m128i w_hi = _mm_unpackhi_epi8(codes, zero);
    const __m128i chunks[4] = {
        _mm_unpacklo_epi16(w_lo, zero), _mm_unpackhi_epi16(w_lo, zero),
        _mm_unpacklo_epi16(w_hi, zero), _mm_unpackhi_epi16(w_hi, zero)};
    for (int q = 0; q < 4; ++q) {
      const __m128i c32 = _mm_srai_epi32(_mm_slli_epi32(chunks[q], 24), 24);
      __m128 v = _mm_mul_ps(_mm_cvtepi32_ps(c32), scale_v);
      if (input_scale != nullptr) {
        v = _mm_div_ps(v, _mm_loadu_ps(input_scale + t + 4 * q));
      }
      _mm_storeu_ps(out + t + 4 * q, v);
    }
  }
  if (t < n) {
    detail::dequant_packed_span_f32_scalar(
        packed_row, col0 + t, scale, input_scale ? input_scale + t : nullptr,
        out + t, n - t);
  }
}

const Ops kSse2Ops = {
    "sse2",
    score_row_sse2,
    detail::count_matches_scalar,  // no gather below AVX2
    collect_le_f64_sse2,
    collect_le_abs8_sse2,
    axpy_f64_sse2,
    dequant_span_f32_sse2,
    detail::gemm_tile<4, F32x4>,
    dequant_packed_span_f32_sse2,
    detail::exp_span<F32x4>,
    detail::swiglu<F32x4>,
    detail::causal_softmax_cols<F32x4>,
};

}  // namespace

namespace detail {
const Ops* sse2_table() { return &kSse2Ops; }
}  // namespace detail

}  // namespace emmark::kernels

#else  // !defined(__SSE2__)

namespace emmark::kernels::detail {
const Ops* sse2_table() { return nullptr; }
}  // namespace emmark::kernels::detail

#endif
