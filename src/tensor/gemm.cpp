#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "kernels/kernels.h"
#include "util/phaseprof.h"
#include "util/threadpool.h"

namespace emmark {
namespace {

// Tile extents. kKc bounds the K-slice so a B tile (kKc x kNc floats for
// the nn/tn layouts) and a packed panel (kKc x kGemmPanelN) stay cache
// resident across the row sweep; kKc doubles as the kGemmPanelK contract
// with PanelPackers. Tiling never changes results: per output element the
// p sum still runs strictly ascending across tiles.
constexpr int64_t kKc = kGemmPanelK;
constexpr int64_t kNc = 256;
constexpr int64_t kTile = kernels::kGemmTileRows;

/// Runs fn over row blocks of [0, m), on the active pool when the matmul
/// is big enough to amortize chunk scheduling (~0.03 ns per multiply-add
/// on the AVX-512 tile kernel, k * n per row; 0.026-0.034 serial medians
/// across the zoo's layer shapes at 1024 rows on a 4-vCPU Xeon VM).
/// Blocks are whole kGemmTileRows-row tiles, so only the tile at m can
/// run short. Each row is owned by exactly one block, so the thread count
/// cannot change results.
void rows_parallel(int64_t m, int64_t k, int64_t n,
                   const std::function<void(int64_t, int64_t)>& fn) {
  const double tile_ns = 0.03 * static_cast<double>(kTile) *
                         static_cast<double>(k) * static_cast<double>(n);
  parallel_for_work(static_cast<size_t>((m + kTile - 1) / kTile), tile_ns,
                    [&fn, m](size_t begin, size_t end) {
                      fn(static_cast<int64_t>(begin) * kTile,
                         std::min(m, static_cast<int64_t>(end) * kTile));
                    });
}

/// Clears rows [i0, i1) of C(M, n) unless accumulating. Called by each row
/// block, so the clear runs on the pool and leaves its rows cache-hot.
void clear_rows(float* c, int64_t i0, int64_t i1, int64_t n, bool accumulate) {
  if (!accumulate && i1 > i0 && n > 0) {
    std::memset(c + i0 * n, 0, static_cast<size_t>((i1 - i0) * n) * sizeof(float));
  }
}

}  // namespace

void gemm_nn(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate) {
  const kernels::Ops& ops = kernels::active_ops();
  phaseprof::ScopedTimer timer(phaseprof::Phase::kGemm);
  rows_parallel(m, k, n, [&](int64_t i0, int64_t i1) {
    clear_rows(c, i0, i1, n, accumulate);
    for (int64_t p0 = 0; p0 < k; p0 += kKc) {
      const int64_t p1 = std::min(k, p0 + kKc);
      for (int64_t j0 = 0; j0 < n; j0 += kNc) {
        const int64_t jb = std::min(kNc, n - j0);
        for (int64_t i = i0; i < i1; i += kTile) {
          // One tile call per (row tile, K-panel, N-tile): the C tile lives
          // in registers across the whole K-slice, with the same
          // ascending-p IEEE add order per output.
          ops.gemm_tile_f32(c + i * n + j0, n, b + p0 * n + j0, n,
                            a + i * k + p0, k, 1, std::min(kTile, i1 - i),
                            p1 - p0, jb);
        }
      }
    }
  });
}

void gemm_nt(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate) {
  // B rows become panel columns by copy-transpose; after that the layout
  // is identical to nn and the same tile sweep applies.
  gemm_nt_packed(a, c, m, k, n, accumulate,
                 [b, k](int64_t p0, int64_t pb, int64_t j0, int64_t jb,
                        float* panel) {
                   for (int64_t j = 0; j < jb; ++j) {
                     const float* b_row = b + (j0 + j) * k + p0;
                     // Pull the next B row toward L1 while transposing this
                     // one (b_row + k == same K-slice of row j + 1).
                     if (j + 1 < jb) __builtin_prefetch(b_row + k);
                     for (int64_t p = 0; p < pb; ++p) {
                       panel[p * jb + j] = b_row[p];
                     }
                   }
                 });
}

void gemm_tn(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate) {
  const kernels::Ops& ops = kernels::active_ops();
  phaseprof::ScopedTimer timer(phaseprof::Phase::kGemm);
  rows_parallel(m, k, n, [&](int64_t i0, int64_t i1) {
    clear_rows(c, i0, i1, n, accumulate);
    for (int64_t p0 = 0; p0 < k; p0 += kKc) {
      const int64_t p1 = std::min(k, p0 + kKc);
      for (int64_t j0 = 0; j0 < n; j0 += kNc) {
        const int64_t jb = std::min(kNc, n - j0);
        for (int64_t i = i0; i < i1; i += kTile) {
          // A^T walks column i of A with stride m (its next row, i + 1, is
          // the adjacent float); the tile takes both strides directly, so
          // no transpose copy is needed here.
          ops.gemm_tile_f32(c + i * n + j0, n, b + p0 * n + j0, n,
                            a + p0 * m + i, 1, m, std::min(kTile, i1 - i),
                            p1 - p0, jb);
        }
      }
    }
  });
}

void gemm_nt_packed(const float* x, float* y, int64_t m, int64_t k, int64_t n,
                    bool accumulate, const PanelPacker& pack) {
  if (k == 0) clear_rows(y, 0, m, n, accumulate);
  if (m == 0 || n == 0 || k == 0) return;
  const kernels::Ops& ops = kernels::active_ops();
  phaseprof::ScopedTimer timer(phaseprof::Phase::kGemm);
  // One K-slice of packed panels, the tile at column j0 starting at
  // j0 * pb: every weight is packed exactly once per call, on the calling
  // thread, then read by every row block -- so a quantized weight is
  // dequantized once per forward whatever the pool size. A window-parallel
  // perplexity pass calls this from each share's worker, where the row
  // blocks run inline too: that worker packs its own panels, once per
  // forward of its share, and no thread waits on another's pack.
  const auto panels = std::make_unique_for_overwrite<float[]>(
      static_cast<size_t>(std::min(kKc, k) * n));
  for (int64_t p0 = 0; p0 < k; p0 += kKc) {
    const int64_t pb = std::min(kKc, k - p0);
    for (int64_t j0 = 0; j0 < n; j0 += kGemmPanelN) {
      pack(p0, pb, j0, std::min(kGemmPanelN, n - j0), panels.get() + j0 * pb);
    }
    rows_parallel(m, pb, n, [&](int64_t i0, int64_t i1) {
      if (p0 == 0) clear_rows(y, i0, i1, n, accumulate);
      for (int64_t j0 = 0; j0 < n; j0 += kGemmPanelN) {
        const int64_t jb = std::min(kGemmPanelN, n - j0);
        const float* panel = panels.get() + j0 * pb;
        for (int64_t i = i0; i < i1; i += kTile) {
          ops.gemm_tile_f32(y + i * n + j0, n, panel, jb, x + i * k + p0, k, 1,
                            std::min(kTile, i1 - i), pb, jb);
        }
      }
    });
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2) throw TensorError("matmul: rank-2 tensors required");
  if (a.dim(1) != b.dim(0)) {
    throw TensorError("matmul: inner dimensions differ: " + a.shape_string() +
                      " x " + b.shape_string());
  }
  Tensor out({a.dim(0), b.dim(1)});
  gemm_nn(a.data(), b.data(), out.data(), a.dim(0), a.dim(1), b.dim(1));
  return out;
}

}  // namespace emmark
