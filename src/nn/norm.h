// LayerNorm (OPT-style blocks) and RMSNorm (LLaMA-style blocks), both with
// full backward passes.
//
// Each norm keeps what backward() reads in a Cache. The two-argument
// forward/backward use the layer's own; TransformerLM passes caches it
// owns (one set per block, or one shared set in an eval-only view).
#pragma once

#include <string>

#include "nn/param.h"
#include "tensor/tensor.h"

namespace emmark {

/// y = (x - mean) / sqrt(var + eps) * gamma + beta, per row.
class LayerNorm {
 public:
  struct Cache {
    Tensor norm;  // normalized x, [M, dim]
    Tensor rstd;  // [M]
  };

  LayerNorm(std::string name, int64_t dim, float eps = 1e-5f);

  void forward(const Tensor& x, Tensor& y) { forward(x, y, cache_); }
  void backward(const Tensor& dy, Tensor& dx) { backward(dy, dx, cache_); }
  /// Rows are independent and run in parallel on large inputs.
  void forward(const Tensor& x, Tensor& y, Cache& cache) const;
  void backward(const Tensor& dy, Tensor& dx, const Cache& cache);

  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }

 private:
  std::string name_;
  int64_t dim_;
  float eps_;
  Parameter gamma_;  // [dim]
  Parameter beta_;   // [dim]
  Cache cache_;
};

/// y = x / rms(x) * gamma, per row (no centering, no bias).
class RmsNorm {
 public:
  struct Cache {
    Tensor x;     // [M, dim]
    Tensor rrms;  // [M]
  };

  RmsNorm(std::string name, int64_t dim, float eps = 1e-5f);

  void forward(const Tensor& x, Tensor& y) { forward(x, y, cache_); }
  void backward(const Tensor& dy, Tensor& dx) { backward(dy, dx, cache_); }
  /// Rows are independent and run in parallel on large inputs.
  void forward(const Tensor& x, Tensor& y, Cache& cache) const;
  void backward(const Tensor& dy, Tensor& dx, const Cache& cache);

  Parameter& gamma() { return gamma_; }

 private:
  std::string name_;
  int64_t dim_;
  float eps_;
  Parameter gamma_;  // [dim]
  Cache cache_;
};

}  // namespace emmark
