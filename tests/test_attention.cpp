// Attention: causality, RoPE behaviour, and shape plumbing.
#include <gtest/gtest.h>

#include <cmath>

#include "kernels/kernels.h"
#include "nn/attention.h"
#include "nn/rope.h"
#include "tensor/ops.h"
#include "util/threadpool.h"

namespace emmark {
namespace {

TEST(Rope, PositionZeroIsIdentity) {
  Rope rope(8, 16);
  std::vector<float> v{1, 2, 3, 4, 5, 6, 7, 8};
  const auto original = v;
  rope.rotate(v, 0);
  for (size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(v[i], original[i], 1e-6f);
}

TEST(Rope, RotationPreservesNorm) {
  Rope rope(8, 16);
  std::vector<float> v{1, -2, 3, 0.5f, -1, 2, 0, 4};
  double before = 0.0;
  for (float x : v) before += x * x;
  rope.rotate(v, 7);
  double after = 0.0;
  for (float x : v) after += x * x;
  EXPECT_NEAR(before, after, 1e-4);
}

TEST(Rope, InverseUndoesRotation) {
  Rope rope(16, 32);
  Rng rng(1);
  std::vector<float> v(16);
  for (auto& x : v) x = rng.next_normal_f();
  const auto original = v;
  rope.rotate(v, 13);
  rope.rotate_inverse(v, 13);
  for (size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(v[i], original[i], 1e-5f);
}

TEST(Rope, RelativePositionProperty) {
  // <R_m q, R_n k> depends only on (m - n): shift both positions equally
  // and the dot product is unchanged.
  Rope rope(8, 64);
  Rng rng(2);
  std::vector<float> q(8), k(8);
  for (auto& x : q) x = rng.next_normal_f();
  for (auto& x : k) x = rng.next_normal_f();

  auto rotated_dot = [&](int64_t pos_q, int64_t pos_k) {
    auto qq = q;
    auto kk = k;
    rope.rotate(qq, pos_q);
    rope.rotate(kk, pos_k);
    double dot = 0.0;
    for (size_t i = 0; i < qq.size(); ++i) dot += static_cast<double>(qq[i]) * kk[i];
    return dot;
  };
  EXPECT_NEAR(rotated_dot(5, 2), rotated_dot(25, 22), 1e-4);
  EXPECT_NEAR(rotated_dot(10, 10), rotated_dot(3, 3), 1e-4);
}

TEST(Rope, RejectsOddHeadDim) {
  EXPECT_THROW(Rope(7, 16), std::invalid_argument);
}

TEST(Rope, RejectsOutOfRangePosition) {
  Rope rope(8, 4);
  std::vector<float> v(8, 1.0f);
  EXPECT_THROW(rope.rotate(v, 4), std::out_of_range);
}

TEST(Attention, OutputShapeMatchesInput) {
  Rng rng(3);
  MultiHeadAttention attn("attn", 16, 4, /*use_rope=*/false, 8, /*bias=*/true, rng);
  Tensor x({2 * 6, 16});
  for (float& v : x.flat()) v = rng.next_normal_f();
  Tensor y;
  attn.forward(x, 2, 6, y);
  EXPECT_EQ(y.dim(0), 12);
  EXPECT_EQ(y.dim(1), 16);
}

TEST(Attention, CausalityFuturePerturbationDoesNotLeakBackwards) {
  Rng rng(4);
  MultiHeadAttention attn("attn", 16, 2, false, 8, false, rng);
  Tensor x({1 * 5, 16});
  for (float& v : x.flat()) v = rng.next_normal_f();
  Tensor y1;
  attn.forward(x, 1, 5, y1);

  // Perturb the last time step only.
  Tensor x2 = x;
  for (int64_t d = 0; d < 16; ++d) x2.at(4, d) += 1.0f;
  Tensor y2;
  attn.forward(x2, 1, 5, y2);

  for (int64_t t = 0; t < 4; ++t) {
    for (int64_t d = 0; d < 16; ++d) {
      EXPECT_NEAR(y1.at(t, d), y2.at(t, d), 1e-6f) << "t=" << t;
    }
  }
  // The perturbed step itself must change.
  float diff = 0.0f;
  for (int64_t d = 0; d < 16; ++d) diff += std::fabs(y1.at(4, d) - y2.at(4, d));
  EXPECT_GT(diff, 1e-3f);
}

TEST(Attention, BatchRowsAreIndependent) {
  Rng rng(5);
  MultiHeadAttention attn("attn", 8, 2, false, 8, false, rng);
  Tensor x({2 * 3, 8});
  for (float& v : x.flat()) v = rng.next_normal_f();
  Tensor y_base;
  attn.forward(x, 2, 3, y_base);

  // Change batch row 1; batch row 0's outputs must be identical.
  Tensor x2 = x;
  for (int64_t t = 3; t < 6; ++t) {
    for (int64_t d = 0; d < 8; ++d) x2.at(t, d) += 0.5f;
  }
  Tensor y2;
  attn.forward(x2, 2, 3, y2);
  for (int64_t t = 0; t < 3; ++t) {
    for (int64_t d = 0; d < 8; ++d) EXPECT_EQ(y_base.at(t, d), y2.at(t, d));
  }
}

TEST(Attention, BackwardGradCheckOnInput) {
  Rng rng(6);
  MultiHeadAttention attn("attn", 8, 2, /*use_rope=*/true, 8, false, rng);
  Tensor x({1 * 4, 8});
  for (float& v : x.flat()) v = rng.next_normal_f(0.0f, 0.5f);

  Tensor dy({4, 8});
  for (float& v : dy.flat()) v = rng.next_normal_f();

  Tensor y;
  attn.forward(x, 1, 4, y);
  Tensor dx;
  attn.backward(dy, dx);

  auto loss = [&](const Tensor& input) {
    MultiHeadAttention fresh("attn", 8, 2, true, 8, false, rng);
    // Use the same weights as `attn` by copying parameters.
    auto src = attn.parameters();
    auto dst = fresh.parameters();
    for (size_t i = 0; i < src.size(); ++i) dst[i]->value = src[i]->value;
    Tensor out;
    fresh.forward(input, 1, 4, out);
    double total = 0.0;
    for (int64_t i = 0; i < out.numel(); ++i) {
      total += static_cast<double>(out.flat()[i]) * dy.flat()[i];
    }
    return total;
  };

  const float h = 1e-2f;
  Rng pick(7);
  for (int trial = 0; trial < 12; ++trial) {
    const int64_t idx =
        static_cast<int64_t>(pick.next_below(static_cast<uint64_t>(x.numel())));
    Tensor xp = x;
    xp.flat()[idx] += h;
    Tensor xm = x;
    xm.flat()[idx] -= h;
    const double numeric = (loss(xp) - loss(xm)) / (2.0 * h);
    EXPECT_NEAR(dx.flat()[idx], numeric, 5e-2) << "idx=" << idx;
  }
}

TEST(Attention, RequiresDivisibleHeads) {
  Rng rng(8);
  EXPECT_THROW(MultiHeadAttention("a", 10, 3, false, 8, false, rng), TensorError);
}

/// The attention forward as the naive per-row loops: same projections and
/// RoPE, scores accumulated over ascending d from 0 then scaled, one
/// softmax_inplace per query row, context accumulated over ascending t2.
Tensor naive_attention_forward(MultiHeadAttention& attn, const Tensor& x,
                               int64_t n_heads, bool use_rope, int64_t max_seq,
                               int64_t batch, int64_t seq) {
  const int64_t d_model = x.dim(1);
  const int64_t head_dim = d_model / n_heads;
  std::vector<Linear*> ls = attn.linears();
  Tensor q, k, v;
  ls[0]->forward(x, q);
  ls[1]->forward(x, k);
  ls[2]->forward(x, v);
  if (use_rope) {
    Rope rope(head_dim, max_seq);
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t t = 0; t < seq; ++t) {
        float* q_row = q.data() + (b * seq + t) * d_model;
        float* k_row = k.data() + (b * seq + t) * d_model;
        for (int64_t h = 0; h < n_heads; ++h) {
          rope.rotate({q_row + h * head_dim, static_cast<size_t>(head_dim)}, t);
          rope.rotate({k_row + h * head_dim, static_cast<size_t>(head_dim)}, t);
        }
      }
    }
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  Tensor ctx({batch * seq, d_model});
  std::vector<float> p(static_cast<size_t>(seq));
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t h = 0; h < n_heads; ++h) {
      for (int64_t t1 = 0; t1 < seq; ++t1) {
        const float* q_row = q.data() + (b * seq + t1) * d_model + h * head_dim;
        for (int64_t t2 = 0; t2 <= t1; ++t2) {
          const float* k_row = k.data() + (b * seq + t2) * d_model + h * head_dim;
          float acc = 0.0f;
          for (int64_t d = 0; d < head_dim; ++d) acc += q_row[d] * k_row[d];
          p[static_cast<size_t>(t2)] = acc * scale;
        }
        softmax_inplace({p.data(), static_cast<size_t>(t1 + 1)});
        float* c_row = ctx.data() + (b * seq + t1) * d_model + h * head_dim;
        for (int64_t t2 = 0; t2 <= t1; ++t2) {
          const float* v_row = v.data() + (b * seq + t2) * d_model + h * head_dim;
          for (int64_t d = 0; d < head_dim; ++d) {
            c_row[d] += p[static_cast<size_t>(t2)] * v_row[d];
          }
        }
      }
    }
  }
  Tensor y;
  ls[3]->forward(ctx, y);
  return y;
}

TEST(Attention, PanelSweepMatchesNaiveReferenceBitwise) {
  // The forward runs each (batch, head) pair key-major: K Q^T score tiles,
  // one causal column softmax, 4-query context tiles over P^T. At the ppl
  // shape (d_model 96, 6 heads of 16) it must reproduce the naive per-row
  // loops bit for bit at every kernel level and pool size, at sequence
  // lengths that hit every vector ladder rung and the 31-token last window.
  const int64_t d_model = 96, n_heads = 6, batch = 2, max_seq = 48;
  ThreadPool pool1(1), pool4(4);
  for (const bool use_rope : {false, true}) {
    Rng rng(9);
    MultiHeadAttention attn("attn", d_model, n_heads, use_rope, max_seq,
                            /*bias=*/true, rng);
    for (const int64_t seq : {1, 5, 17, 31, 32, 48}) {
      Tensor x({batch * seq, d_model});
      for (float& v : x.flat()) v = rng.next_normal_f();
      // One level for the reference: the projections' GEMMs must match the
      // ones inside forward, so pin scalar for both sides of that comparison.
      Tensor reference;
      {
        kernels::ScopedLevelOverride kernel(kernels::Level::kScalar);
        reference = naive_attention_forward(attn, x, n_heads, use_rope, max_seq,
                                            batch, seq);
      }
      for (kernels::Level level : kernels::supported_levels()) {
        kernels::ScopedLevelOverride kernel(level);
        for (ThreadPool* pool : {&pool1, &pool4}) {
          ThreadPool::ScopedOverride over(*pool);
          Tensor y;
          attn.forward(x, batch, seq, y);
          ASSERT_EQ(std::vector<float>(y.flat().begin(), y.flat().end()),
                    std::vector<float>(reference.flat().begin(),
                                       reference.flat().end()))
              << kernels::to_string(level) << " seq=" << seq
              << " rope=" << use_rope << " threads=" << pool->size();
        }
      }
    }
  }
}

}  // namespace
}  // namespace emmark
