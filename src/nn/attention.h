// Causal multi-head self-attention with a full backward pass.
//
// Activations flow as rank-2 tensors [B*T, D]; batch and sequence sizes are
// passed explicitly so the four projection Linears stay plain GEMMs. RoPE
// (LLaMA-style family) is applied to q/k after projection. The forward
// runs its (batch, head) pairs in parallel on large inputs, each pair
// key-major: scores K Q^T, one causal column softmax, then the context.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "nn/linear.h"
#include "nn/rope.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace emmark {

class MultiHeadAttention {
 public:
  /// Activations of one forward; backward() reads all but `ctx`.
  struct Cache {
    int64_t batch = 0, seq = 0;
    Tensor q, k, v;  // [B*T, D], q/k post-RoPE
    /// [B*H, T, T] attention probabilities, key-major: block bh holds
    /// P[t1][t2] (query t1, key t2) at [bh][t2][t1], and +0 where t2 > t1.
    Tensor probs;
    Tensor ctx;      // [B*T, D]
  };

  MultiHeadAttention(const std::string& name, int64_t d_model, int64_t n_heads,
                     bool use_rope, int64_t max_seq, bool bias, Rng& rng);

  /// x, y: [B*T, d_model].
  void forward(const Tensor& x, int64_t batch, int64_t seq, Tensor& y) {
    forward(x, batch, seq, y, cache_);
  }
  void backward(const Tensor& dy, Tensor& dx) { backward(dy, dx, cache_); }
  /// Same, with the activations in caller-owned storage (see
  /// TransformerBlock::Cache).
  void forward(const Tensor& x, int64_t batch, int64_t seq, Tensor& y,
               Cache& cache);
  void backward(const Tensor& dy, Tensor& dx, const Cache& cache);

  std::vector<Parameter*> parameters();
  /// The four projection layers, in (q, k, v, o) order -- the paper's
  /// "quantization layers" within an attention block.
  std::vector<Linear*> linears() { return {&wq_, &wk_, &wv_, &wo_}; }

 private:
  int64_t d_model_;
  int64_t n_heads_;
  int64_t head_dim_;
  std::optional<Rope> rope_;
  Linear wq_, wk_, wv_, wo_;
  Cache cache_;
};

}  // namespace emmark
