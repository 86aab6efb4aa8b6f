// The repo's own single-precision exp, and the table ops built on it,
// written once for every dispatch level.
//
// Like gemm_tile.h, each ISA TU instantiates these templates with its own
// GCC vector-extension types, widest first (AVX-512: 16, 8 and 4 lanes;
// AVX2: 8 and 4; SSE2 and NEON: 4), and the scalar table instantiates them
// with no vector type at all. Every op then finishes on a one-lane vector,
// F32x1, so the scalar table and every vector tail run the very same lane
// code as the widest block.
//
// Bits: exp_lanes is a fixed sequence of IEEE float adds, subtracts,
// multiplies and compares and int32 adds and shifts, each one operation
// per lane (the repo builds with -ffp-contract=off, so no multiply and add
// fuse). Every lane therefore rounds identically at every width, and the
// ops below only choose how many independent outputs one step advances:
// sums run per output in ascending order, never across lanes. Unlike
// libm's expf, whose implementation glibc picks per CPU at load time, the
// result cannot depend on the host.
//
// The lane function:
//   1. Clamp x to kExpHi from above; NaN and x below kExpLo become 0,
//      since step 6 replaces their results anyway (computing exp(kExpLo)
//      instead would form a subnormal, which costs a microcode assist on
//      x86). The integer steps below only ever see in-range values.
//   2. n = round(x * log2(e)) by adding 1.5 * 2^23: the sum's low mantissa
//      bits are n, read back by subtracting the constant's bit pattern.
//   3. Cody-Waite reduction r = x - n * ln2 with ln2 split into a short
//      head (exact product) and a tail.
//   4. Cephes' degree-5 expf polynomial: y = p(r) * r^2 + r + 1.
//   5. y * 2^n in two halves, 2^(n >> 1) then 2^(n - (n >> 1)), so both
//      factors are normal and a subnormal result rounds once.
//   6. Below kExpLo the result is +0, above kExpHi +inf, and a NaN input
//      comes back unchanged.
// Over all 2^32 inputs the result is within 1 ULP of exp computed in
// double and rounded to float, and exp(0) is exactly 1.
//
// Linkage: everything here is in an unnamed namespace, so each TU compiles
// its own copy under its own -m flags (see gemm_tile.h). Vectors never
// cross a call boundary: lanes move through memcpy and references.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>

namespace emmark::kernels::detail {
namespace {

typedef float F32x1 __attribute__((vector_size(4)));

/// Smallest float whose exp rounds to a nonzero float (exp = 2^-149).
constexpr float kExpLo = -103.972076416015625f;
/// Largest float whose exp rounds to a finite float.
constexpr float kExpHi = 88.72283172607421875f;

/// The int32 lane vector that comparisons on V return (-1 true, 0 false).
template <typename V>
using MaskOf = decltype(V{} < V{});

template <typename V>
inline constexpr int64_t kLanesOf = static_cast<int64_t>(sizeof(V) / sizeof(float));

template <typename V>
[[gnu::always_inline]] inline void load_lanes(V& v, const float* p) {
  std::memcpy(&v, p, sizeof(V));
}

template <typename V>
[[gnu::always_inline]] inline void store_lanes(float* p, const V& v) {
  std::memcpy(p, &v, sizeof(V));
}

/// x = exp(x), lane by lane (steps in the file comment).
template <typename V>
[[gnu::always_inline]] inline void exp_lanes(V& x) {
  using M = MaskOf<V>;
  constexpr float kLog2e = 1.44269504088896341f;
  constexpr float kShift = 12582912.0f;  // 1.5 * 2^23
  constexpr int32_t kShiftBits = 0x4B400000;  // kShift's bit pattern
  constexpr float kLn2Hi = 0.693359375f;  // 9 significant bits
  constexpr float kLn2Lo = -2.12194440e-4f;

  const M is_nan = x != x;
  const M below = x < kExpLo;
  const M above = x > kExpHi;
  V c = x >= kExpLo ? x : 0.0f;
  c = c <= kExpHi ? c : kExpHi;

  const V shifted = c * kLog2e + kShift;
  M n{};
  std::memcpy(&n, &shifted, sizeof(V));
  n -= kShiftBits;
  const V fn = shifted - kShift;

  V r = c - fn * kLn2Hi;
  r = r - fn * kLn2Lo;
  const V z = r * r;
  V p = 1.9875691500e-4f * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  V y = p * z + r + 1.0f;

  const M n1 = n >> 1;
  const M e1 = (n1 + 127) << 23;
  const M e2 = (n - n1 + 127) << 23;
  V s1{}, s2{};
  std::memcpy(&s1, &e1, sizeof(V));
  std::memcpy(&s2, &e2, sizeof(V));
  y = y * s1 * s2;

  y = below ? 0.0f : y;
  y = above ? std::numeric_limits<float>::infinity() : y;
  x = is_nan ? x : y;
}

/// Calls body(std::type_identity<V>{}, i) for blocks of lanes(V)
/// elements covering [0, n): as many blocks of the first type as fit,
/// then of each next type, then one-lane blocks.
template <typename... Vs, typename Body>
[[gnu::always_inline]] inline void for_lane_blocks(int64_t n, Body&& body) {
  int64_t i = 0;
  auto rung = [&](auto tag) {
    constexpr int64_t kWidth = kLanesOf<typename decltype(tag)::type>;
    for (; i + kWidth <= n; i += kWidth) body(tag, i);
  };
  (rung(std::type_identity<Vs>{}), ...);
  rung(std::type_identity<F32x1>{});
}

/// The Ops::exp_span_f32 entry point: out[i] = exp(x[i] - shift).
template <typename... Vs>
void exp_span(const float* x, float shift, float* out, int64_t n) {
  for_lane_blocks<Vs...>(n, [&](auto tag, int64_t i) {
    using V = typename decltype(tag)::type;
    V v{};
    load_lanes(v, x + i);
    v -= shift;
    exp_lanes(v);
    store_lanes(out + i, v);
  });
}

/// The Ops::swiglu_f32 entry point: h[i] = g[i] / (1 + exp(-g[i])) * u[i].
template <typename... Vs>
void swiglu(const float* g, const float* u, float* h, int64_t n) {
  for_lane_blocks<Vs...>(n, [&](auto tag, int64_t i) {
    using V = typename decltype(tag)::type;
    V gv{}, uv{};
    load_lanes(gv, g + i);
    load_lanes(uv, u + i);
    V e = -gv;
    exp_lanes(e);
    store_lanes(h + i, gv / (1.0f + e) * uv);
  });
}

/// The Ops::causal_softmax_cols_f32 entry point. Lanes are queries
/// (columns t1); each walks its keys t2 = 0..t1 in ascending order exactly
/// as softmax_inplace walks a row: scale, max, exp(x - max), ascending
/// sum, one reciprocal, multiply. Keys past a lane's own query are masked
/// out of the max and become exact zeros, as is every row below the
/// column block's last query.
template <typename... Vs>
void causal_softmax_cols(float* block, int64_t n, float scale) {
  for_lane_blocks<Vs...>(n, [&](auto tag, int64_t c) {
    using V = typename decltype(tag)::type;
    using M = MaskOf<V>;
    constexpr int64_t kWidth = kLanesOf<V>;
    M query{};
    for (int64_t l = 0; l < kWidth; ++l) query[l] = static_cast<int32_t>(c + l);
    const int64_t rows = c + kWidth;  // keys any lane of the block can see
    V hi = V{} - std::numeric_limits<float>::infinity();
    for (int64_t t2 = 0; t2 < rows; ++t2) {
      V x{};
      load_lanes(x, block + t2 * n + c);
      x *= scale;
      hi = (query >= static_cast<int32_t>(t2)) & (x > hi) ? x : hi;
    }
    V total = V{};
    for (int64_t t2 = 0; t2 < rows; ++t2) {
      float* row = block + t2 * n + c;
      V e{};
      load_lanes(e, row);
      e = e * scale - hi;
      exp_lanes(e);
      e = query >= static_cast<int32_t>(t2) ? e : 0.0f;
      total += e;
      store_lanes(row, e);
    }
    const V inv = 1.0f / total;
    for (int64_t t2 = 0; t2 < rows; ++t2) {
      float* row = block + t2 * n + c;
      V p{};
      load_lanes(p, row);
      store_lanes(row, p * inv);
    }
    for (int64_t t2 = rows; t2 < n; ++t2) {
      std::memset(block + t2 * n + c, 0, sizeof(V));
    }
  });
}

}  // namespace
}  // namespace emmark::kernels::detail
