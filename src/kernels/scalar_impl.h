// Scalar reference implementations of every kernel op but the exp family,
// whose reference is exp_lanes.h instantiated one lane wide (kernels.cpp).
//
// These are the semantic definition the vector levels must match bit for
// bit. They live in a header (inline) so each ISA translation unit can
// fall back to them for ops its instruction set cannot accelerate --
// sub-gather-width sparse loads (count_matches on SSE2/NEON) and vector
// tails -- without cross-TU plumbing. Keep them
// branch-light but straightforward: clarity here is what makes the
// bit-identity contract auditable.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>

#include "kernels/kernels.h"

namespace emmark::kernels::detail {

inline void score_row_scalar(const ScoreArgs& a) {
  const double inf = std::numeric_limits<double>::infinity();
  const double qmax_d = static_cast<double>(a.qmax);
  for (int64_t i = 0; i < a.n; ++i) {
    const double x = std::fabs(static_cast<double>(a.codes[i]));
    // Saturated (|c| >= qmax) and zero codes are structurally excluded
    // (paper Section 4.1): their magnitude term is +inf, which survives
    // the add below no matter what the channel term is.
    double term;
    if (x >= qmax_d || x == 0.0) {
      term = inf;
    } else if (a.alpha != 0.0) {
      term = a.alpha / x;  // Eq. 3 with |b| = 1
    } else {
      term = 0.0;
    }
    a.out[i] = term + a.colterm[i];
  }
}

inline int64_t count_matches_scalar(const int8_t* suspect, const int8_t* original,
                                    const int64_t* locations, const int8_t* bits,
                                    size_t n, int64_t /*numel*/) {
  int64_t matched = 0;
  for (size_t j = 0; j < n; ++j) {
    const int64_t flat = locations[j];
    const int32_t delta = static_cast<int32_t>(suspect[flat]) -
                          static_cast<int32_t>(original[flat]);
    matched += delta == static_cast<int32_t>(bits[j]) ? 1 : 0;
  }
  return matched;
}

inline size_t collect_le_f64_scalar(const double* v, size_t n, double threshold,
                                    int64_t* out) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] <= threshold) out[count++] = static_cast<int64_t>(i);
  }
  return count;
}

inline size_t collect_le_abs8_scalar(const int8_t* codes, size_t n,
                                     int32_t threshold, int64_t* out) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (std::abs(static_cast<int32_t>(codes[i])) <= threshold) {
      out[count++] = static_cast<int64_t>(i);
    }
  }
  return count;
}

// The eval-path microkernels below are the semantic reference for the
// blocked GEMM / dequant / DCT paths. Each dst element is an independent
// accumulator, so the vector levels differ only in how many outputs they
// advance per instruction. The whole repo builds with -ffp-contract=off,
// which keeps these loops honest: the compiler may auto-vectorize them
// (same per-element IEEE ops) but may not fuse mul+add into FMA.

inline void axpy_f64_scalar(double* dst, const double* src, double a,
                            int64_t n) {
  for (int64_t j = 0; j < n; ++j) dst[j] += a * src[j];
}

inline void dequant_span_f32_scalar(const int8_t* codes, float scale,
                                    const float* input_scale, float* out,
                                    int64_t n) {
  if (input_scale == nullptr) {
    for (int64_t t = 0; t < n; ++t) {
      out[t] = static_cast<float>(codes[t]) * scale;
    }
  } else {
    for (int64_t t = 0; t < n; ++t) {
      out[t] = static_cast<float>(codes[t]) * scale / input_scale[t];
    }
  }
}

inline void gemm_tile_f32_scalar(float* dst, int64_t dst_stride,
                                 const float* panel, int64_t panel_stride,
                                 const float* x, int64_t x_row_stride,
                                 int64_t x_stride, int64_t mr, int64_t pb,
                                 int64_t jb) {
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t j = 0; j < jb; ++j) {
      // Register accumulator, ascending p: the per-output IEEE add order
      // every vector level reproduces lane by lane.
      float acc = dst[r * dst_stride + j];
      for (int64_t p = 0; p < pb; ++p) {
        acc += x[r * x_row_stride + p * x_stride] * panel[p * panel_stride + j];
      }
      dst[r * dst_stride + j] = acc;
    }
  }
}

inline void dequant_packed_span_f32_scalar(const uint8_t* packed_row,
                                           int64_t col0, float scale,
                                           const float* input_scale, float* out,
                                           int64_t n) {
  for (int64_t t = 0; t < n; ++t) {
    const int64_t col = col0 + t;
    const uint8_t byte = packed_row[col >> 1];
    const int8_t code =
        (col & 1) ? int4_unpack_hi(byte) : int4_unpack_lo(byte);
    if (input_scale == nullptr) {
      out[t] = static_cast<float>(code) * scale;
    } else {
      out[t] = static_cast<float>(code) * scale / input_scale[t];
    }
  }
}

// --- vector-tail helpers -----------------------------------------------------
//
// Every SIMD level finishes its main loop at some element `i` and hands the
// remainder to the scalar reference. These wrappers do the re-slicing and
// the index rebasing (the scalar collectors emit slice-relative indices)
// in one place so the per-ISA TUs stay pure vector code.

/// Scores elements [i, args.n) of a row with the scalar reference.
inline void score_row_tail(const ScoreArgs& args, int64_t i) {
  if (i >= args.n) return;
  ScoreArgs tail = args;
  tail.codes = args.codes + i;
  tail.colterm = args.colterm + i;
  tail.out = args.out + i;
  tail.n = args.n - i;
  score_row_scalar(tail);
}

/// Scalar collect over v[i, n) appended to out[count), indices rebased to
/// the full array; returns the new total count.
inline size_t collect_le_f64_tail(const double* v, size_t i, size_t n,
                                  double threshold, int64_t* out, size_t count) {
  const size_t tail = collect_le_f64_scalar(v + i, n - i, threshold, out + count);
  for (size_t k = 0; k < tail; ++k) out[count + k] += static_cast<int64_t>(i);
  return count + tail;
}

/// Scalar collect over codes[i, n) appended to out[count), indices rebased
/// to the full array; returns the new total count.
inline size_t collect_le_abs8_tail(const int8_t* codes, size_t i, size_t n,
                                   int32_t threshold, int64_t* out,
                                   size_t count) {
  const size_t tail =
      collect_le_abs8_scalar(codes + i, n - i, threshold, out + count);
  for (size_t k = 0; k < tail; ++k) out[count + k] += static_cast<int64_t>(i);
  return count + tail;
}

}  // namespace emmark::kernels::detail
