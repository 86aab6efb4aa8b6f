// Single-precision GEMM kernels for the transformer substrate.
//
// Three layouts cover every matmul in forward and backward passes:
//   gemm_nn: C += A(M,K)   * B(K,N)
//   gemm_nt: C += A(M,K)   * B(N,K)^T   (linear forward with row-major W)
//   gemm_tn: C += A(K,M)^T * B(K,N)     (weight gradients)
//
// All three are cache-tiled drivers over the dispatched gemm_tile_f32
// microkernel (src/kernels): per (4-row tile, K-panel, N-tile) the outputs
// are loaded into registers once, accumulated in strictly ascending p
// order, and stored once, and every panel row loaded feeds all four rows.
// Each output is an independent accumulator with the same summation order
// at every SIMD level, so results are bit-identical to the scalar
// reference. Blocks of whole row tiles fan out to the active ThreadPool
// above the tile loops (row ownership is exclusive, so thread count cannot
// change results either).
#pragma once

#include <cstdint>
#include <functional>

#include "tensor/tensor.h"

namespace emmark {

/// Upper bound on the K-extent (`pb`) of one packed panel handed to a
/// PanelPacker; packers may size per-row scratch buffers to it.
inline constexpr int64_t kGemmPanelK = 256;

/// Upper bound on the N-extent (`jb`) of one packed panel.
inline constexpr int64_t kGemmPanelN = 128;

/// C(M,N) += A(M,K) * B(K,N). `accumulate=false` clears C first.
void gemm_nn(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate = false);

/// C(M,N) += A(M,K) * B(N,K)^T.
void gemm_nt(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate = false);

/// C(M,N) += A(K,M)^T * B(K,N).
void gemm_tn(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate = false);

/// Fills one K-major panel for gemm_nt_packed: panel[p * jb + j] must
/// receive B^T[p0 + p][j0 + j] (== B[j0 + j][p0 + p]) for p in [0, pb),
/// j in [0, jb), with pb <= kGemmPanelK and jb <= kGemmPanelN. The packer
/// is where the B operand's storage format is abstracted away: plain
/// gemm_nt packs by copy-transpose, the quantizer's fused path dequantizes
/// codes straight into the panel (see dequant_gemm_nt in quant/qtensor.h).
using PanelPacker =
    std::function<void(int64_t p0, int64_t pb, int64_t j0, int64_t jb,
                       float* panel)>;

/// Shared driver behind gemm_nt and the fused dequantize-GEMM:
/// Y(M,N) += X(M,K) * W(N,K)^T where W is only reachable through `pack`.
/// Pack-once contract: each (K-slice, N-tile) panel is packed exactly once
/// per call -- ceil(k / kGemmPanelK) * ceil(n / kGemmPanelN) packer calls
/// at any pool size (none when m == 0), all on the calling thread -- into a
/// buffer every row block then reads. Per output element the K sum runs strictly ascending, so
/// results are bit-identical to the naive nt loop regardless of tiling,
/// SIMD level, or thread count.
void gemm_nt_packed(const float* x, float* y, int64_t m, int64_t k, int64_t n,
                    bool accumulate, const PanelPacker& pack);

/// out = a(M,K) * b(K,N) with shape checks; convenience for tests.
Tensor matmul(const Tensor& a, const Tensor& b);

}  // namespace emmark
