// The gemm_tile_f32 microkernel, written once for every vector level.
//
// Each vector TU instantiates gemm_tile<kMaxVecs, V, narrower Vs...> with
// its own GCC vector-extension types and the widest block its registers
// hold: a kRows x kVecs block keeps kRows * kVecs accumulators, kVecs
// panel vectors and one broadcast live across the K loop. Columns the
// widest block does not cover fall down a ladder: half as many vectors
// down to one, then one vector of each narrower type, then one lane
// (plain float) at a time.
//
// Bits: every output keeps its own accumulator, loaded from dst once,
// advanced by one IEEE mul and one IEEE add per p in ascending p order
// (the repo builds with -ffp-contract=off, so the two never fuse), and
// stored once -- gemm_tile_f32_scalar's per-output sequence. Lanes hold
// neighbouring outputs, never partial sums of one output, so no width or
// block shape can reassociate a sum.
//
// Linkage: everything here is in an unnamed namespace, so each TU compiles
// its own copy under its own -m flags. An inline template with external
// linkage would be one COMDAT symbol the linker may take from any TU, e.g.
// hand the SSE2 table an AVX-512 body. Vector values never cross a call
// boundary (the block is always inlined and moves data with memcpy).
#pragma once

#include <cstdint>
#include <cstring>

namespace emmark::kernels::detail {
namespace {

/// One gemm_tile_f32 call's operands, less mr and jb.
struct TileOperands {
  float* dst;
  int64_t dst_stride;
  const float* panel;
  int64_t panel_stride;
  const float* x;
  int64_t x_row_stride;
  int64_t x_stride;
  int64_t pb;
};

/// Rows [0, kRows) x columns [j, j + kVecs * lanes(V)) of the tile.
template <typename V, int kRows, int kVecs>
[[gnu::always_inline]] inline void tile_block(const TileOperands& t, int64_t j) {
  constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(float));
  V acc[kRows][kVecs];
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) {
      std::memcpy(&acc[r][v], t.dst + r * t.dst_stride + j + v * kLanes, sizeof(V));
    }
  }
  for (int64_t p = 0; p < t.pb; ++p) {
    V w[kVecs];
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) {
      std::memcpy(&w[v], t.panel + p * t.panel_stride + j + v * kLanes, sizeof(V));
    }
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) {
      const float xr = t.x[r * t.x_row_stride + p * t.x_stride];
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) acc[r][v] += xr * w[v];
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) {
      std::memcpy(t.dst + r * t.dst_stride + j + v * kLanes, &acc[r][v], sizeof(V));
    }
  }
}

/// Covers columns from j with kVecs-vector blocks of V while they fit,
/// then with half as many, down to one, then hands the rest to the next
/// (narrower) type of the ladder.
template <int kRows, int kVecs, typename V, typename... Narrower>
[[gnu::always_inline]] inline void tile_sweep(const TileOperands& t, int64_t j,
                                              int64_t jb) {
  constexpr int64_t kWidth = kVecs * static_cast<int64_t>(sizeof(V) / sizeof(float));
  for (; j + kWidth <= jb; j += kWidth) tile_block<V, kRows, kVecs>(t, j);
  if constexpr (kVecs > 1) {
    tile_sweep<kRows, kVecs / 2, V, Narrower...>(t, j, jb);
  } else if constexpr (sizeof...(Narrower) > 0) {
    tile_sweep<kRows, 1, Narrower...>(t, j, jb);
  }
}

/// The Ops::gemm_tile_f32 entry point of one vector level. Its ladder:
/// blocks of up to kMaxVecs vectors of Vs[0], then one vector of each
/// narrower type in Vs, then one float at a time.
template <int kMaxVecs, typename... Vs>
void gemm_tile(float* dst, int64_t dst_stride, const float* panel,
               int64_t panel_stride, const float* x, int64_t x_row_stride,
               int64_t x_stride, int64_t mr, int64_t pb, int64_t jb) {
  const TileOperands t{dst, dst_stride, panel, panel_stride,
                       x,   x_row_stride, x_stride, pb};
  switch (mr) {
    case 1: return tile_sweep<1, kMaxVecs, Vs..., float>(t, 0, jb);
    case 2: return tile_sweep<2, kMaxVecs, Vs..., float>(t, 0, jb);
    case 3: return tile_sweep<3, kMaxVecs, Vs..., float>(t, 0, jb);
    case 4: return tile_sweep<4, kMaxVecs, Vs..., float>(t, 0, jb);
    default: return;
  }
}

}  // namespace
}  // namespace emmark::kernels::detail
