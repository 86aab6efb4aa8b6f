// Feed-forward blocks: ReLU MLP (OPT-style) and SwiGLU (LLaMA-style).
#pragma once

#include <string>
#include <vector>

#include "nn/linear.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace emmark {

enum class FfnKind { kRelu, kSwiGlu };

class FeedForward {
 public:
  /// Activations of one forward; backward() reads `up` and `gate`.
  struct Cache {
    Tensor up;    // pre-activation (ReLU) or up-branch value (SwiGLU)
    Tensor gate;  // SwiGLU gate pre-activation
    Tensor h;     // post-activation hidden
  };

  FeedForward(const std::string& name, FfnKind kind, int64_t d_model,
              int64_t hidden, bool bias, Rng& rng);

  void forward(const Tensor& x, Tensor& y) { forward(x, y, cache_); }
  void backward(const Tensor& dy, Tensor& dx) { backward(dy, dx, cache_); }
  /// Same, with the activations in caller-owned storage (see
  /// TransformerBlock::Cache). The activation runs element-parallel on
  /// large inputs.
  void forward(const Tensor& x, Tensor& y, Cache& cache);
  void backward(const Tensor& dy, Tensor& dx, const Cache& cache);

  std::vector<Parameter*> parameters();
  /// Quantizable projections: (up, down) for ReLU; (gate, up, down) for SwiGLU.
  std::vector<Linear*> linears();

  FfnKind kind() const { return kind_; }

 private:
  FfnKind kind_;
  int64_t d_model_;
  int64_t hidden_;
  Linear up_;
  Linear down_;
  Linear gate_;  // SwiGLU only (constructed for both kinds, unused for ReLU)
  bool has_gate_;
  Cache cache_;
};

}  // namespace emmark
