#include "nn/attention.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "kernels/kernels.h"
#include "util/phaseprof.h"
#include "util/threadpool.h"

namespace emmark {

MultiHeadAttention::MultiHeadAttention(const std::string& name, int64_t d_model,
                                       int64_t n_heads, bool use_rope,
                                       int64_t max_seq, bool bias, Rng& rng)
    : d_model_(d_model),
      n_heads_(n_heads),
      head_dim_(d_model / n_heads),
      wq_(name + ".q_proj", d_model, d_model, bias, rng),
      wk_(name + ".k_proj", d_model, d_model, bias, rng),
      wv_(name + ".v_proj", d_model, d_model, bias, rng),
      wo_(name + ".o_proj", d_model, d_model, bias, rng) {
  if (d_model % n_heads != 0) {
    throw TensorError("attention: d_model must be divisible by n_heads");
  }
  if (use_rope) rope_.emplace(head_dim_, max_seq);
}

void MultiHeadAttention::forward(const Tensor& x, int64_t batch, int64_t seq,
                                 Tensor& y, Cache& cache) {
  cache.batch = batch;
  cache.seq = seq;
  wq_.forward(x, cache.q);
  wk_.forward(x, cache.k);
  wv_.forward(x, cache.v);

  {
    phaseprof::ScopedTimer timer(phaseprof::Phase::kAttention);
    cache.probs.resize({batch * n_heads_, seq, seq});
    cache.ctx.resize({batch * seq, d_model_});
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
    const kernels::Ops& ops = kernels::active_ops();
    const auto head_len = static_cast<size_t>(head_dim_);
    constexpr int64_t kTile = kernels::kGemmTileRows;

    // One task per (batch, head) pair; a pair reads and writes only its own
    // head slices of q/k/v/ctx and its own probs block, so pairs run in any
    // order on any thread with unchanged bits. Per pair, key-major:
    //   1. rotate the head's q/k rows (RoPE) and pack Q^T as a
    //      [head_dim, seq] panel;
    //   2. scores S^T = K Q^T into the pair's probs block, pt[t2 * seq + t1],
    //      one gemm_tile call per 4 keys over the queries t1 >= the tile's
    //      first key; each score accumulates over d ascending from an exact
    //      0 (the block is cleared first);
    //   3. one causal_softmax_cols_f32 call: the scale multiply and each
    //      query's softmax over keys t2 <= t1, lanes = queries; every
    //      t2 > t1 entry becomes +0;
    //   4. context in 4-query tiles: gemm_tile reads P^T through its x
    //      strides (row stride 1, p stride seq) against the head's V rows
    //      in place, over keys [0, last query of the tile].
    // The FP sequence of each output is that of the naive per-row loop,
    // including the per-row softmax. The extra keys a 4-query context tile
    // adds past a query's causal edge carry P = +0, and a sum that starts
    // at +0 never becomes -0, so adding +0 or -0 changes no bit.
    auto pairs = [&](size_t begin, size_t end) {
      std::vector<float> qt(static_cast<size_t>(head_dim_ * seq));
      for (size_t bh = begin; bh < end; ++bh) {
        const int64_t b = static_cast<int64_t>(bh) / n_heads_;
        const int64_t h = static_cast<int64_t>(bh) % n_heads_;
        const int64_t head0 = b * seq * d_model_ + h * head_dim_;  // row t = 0
        float* q = cache.q.data() + head0;
        float* k = cache.k.data() + head0;
        const float* v = cache.v.data() + head0;
        float* ctx = cache.ctx.data() + head0;
        float* pt = cache.probs.data() + static_cast<int64_t>(bh) * seq * seq;
        for (int64_t t = 0; t < seq; ++t) {
          float* q_row = q + t * d_model_;
          if (rope_) {
            rope_->rotate({q_row, head_len}, t);
            rope_->rotate({k + t * d_model_, head_len}, t);
          }
          for (int64_t d = 0; d < head_dim_; ++d) qt[d * seq + t] = q_row[d];
          std::fill(ctx + t * d_model_, ctx + t * d_model_ + head_dim_, 0.0f);
        }
        std::fill(pt, pt + seq * seq, 0.0f);
        for (int64_t t2 = 0; t2 < seq; t2 += kTile) {
          ops.gemm_tile_f32(pt + t2 * seq + t2, seq, qt.data() + t2, seq,
                            k + t2 * d_model_, d_model_, 1,
                            std::min(kTile, seq - t2), head_dim_, seq - t2);
        }
        ops.causal_softmax_cols_f32(pt, seq, scale);
        for (int64_t t1 = 0; t1 < seq; t1 += kTile) {
          const int64_t mr = std::min(kTile, seq - t1);
          ops.gemm_tile_f32(ctx + t1 * d_model_, d_model_, v, d_model_, pt + t1,
                            1, seq, mr, t1 + mr, head_dim_);
        }
      }
    };
    // ~5 ns per causal score at head_dim 16 and seq 32 on AVX-512 (8 on
    // AVX2 and SSE2, 29 scalar): RoPE, the Q^T pack, score and context
    // tiles and the column softmax.
    const double pair_ns = 0.5 * static_cast<double>(seq * seq) * 5.0;
    parallel_for_work(static_cast<size_t>(batch * n_heads_), pair_ns, pairs);
  }
  wo_.forward(cache.ctx, y);
}

void MultiHeadAttention::backward(const Tensor& dy, Tensor& dx,
                                  const Cache& cache) {
  Tensor dctx;
  wo_.backward(dy, dctx);
  const int64_t batch = cache.batch, seq = cache.seq;

  Tensor dq({batch * seq, d_model_});
  Tensor dk({batch * seq, d_model_});
  Tensor dv({batch * seq, d_model_});
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  std::vector<float> dp(static_cast<size_t>(seq), 0.0f);

  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t h = 0; h < n_heads_; ++h) {
      // probs is key-major: P[t1][t2] = pt[t2 * seq + t1].
      const float* pt = cache.probs.data() + (b * n_heads_ + h) * seq * seq;
      for (int64_t t1 = 0; t1 < seq; ++t1) {
        const float* dctx_row =
            dctx.data() + (b * seq + t1) * d_model_ + h * head_dim_;

        // dP[t2] = <dctx, v_t2>; dv_t2 += P[t2] * dctx
        for (int64_t t2 = 0; t2 <= t1; ++t2) {
          const float* v_row = cache.v.data() + (b * seq + t2) * d_model_ + h * head_dim_;
          float* dv_row = dv.data() + (b * seq + t2) * d_model_ + h * head_dim_;
          float acc = 0.0f;
          const float p = pt[t2 * seq + t1];
          for (int64_t d = 0; d < head_dim_; ++d) {
            acc += dctx_row[d] * v_row[d];
            dv_row[d] += p * dctx_row[d];
          }
          dp[static_cast<size_t>(t2)] = acc;
        }
        // softmax backward: dS = P o (dP - sum(dP o P))
        float dot = 0.0f;
        for (int64_t t2 = 0; t2 <= t1; ++t2) {
          dot += dp[static_cast<size_t>(t2)] * pt[t2 * seq + t1];
        }
        float* dq_row = dq.data() + (b * seq + t1) * d_model_ + h * head_dim_;
        const float* q_row = cache.q.data() + (b * seq + t1) * d_model_ + h * head_dim_;
        for (int64_t t2 = 0; t2 <= t1; ++t2) {
          const float ds = pt[t2 * seq + t1] * (dp[static_cast<size_t>(t2)] - dot) * scale;
          const float* k_row = cache.k.data() + (b * seq + t2) * d_model_ + h * head_dim_;
          float* dk_row = dk.data() + (b * seq + t2) * d_model_ + h * head_dim_;
          for (int64_t d = 0; d < head_dim_; ++d) {
            dq_row[d] += ds * k_row[d];
            dk_row[d] += ds * q_row[d];
          }
        }
      }
    }
  }

  if (rope_) {
    // Rotation is orthogonal, so the gradient maps back via the inverse
    // rotation at the same position.
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t t = 0; t < seq; ++t) {
        float* dq_row = dq.data() + (b * seq + t) * d_model_;
        float* dk_row = dk.data() + (b * seq + t) * d_model_;
        for (int64_t h = 0; h < n_heads_; ++h) {
          rope_->rotate_inverse({dq_row + h * head_dim_, static_cast<size_t>(head_dim_)}, t);
          rope_->rotate_inverse({dk_row + h * head_dim_, static_cast<size_t>(head_dim_)}, t);
        }
      }
    }
  }

  Tensor dx_q, dx_k, dx_v;
  wq_.backward(dq, dx_q);
  wk_.backward(dk, dx_k);
  wv_.backward(dv, dx_v);
  dx = std::move(dx_q);
  dx.add_(dx_k);
  dx.add_(dx_v);
}

std::vector<Parameter*> MultiHeadAttention::parameters() {
  std::vector<Parameter*> out;
  for (Linear* l : linears()) {
    for (Parameter* p : l->parameters()) out.push_back(p);
  }
  return out;
}

}  // namespace emmark
