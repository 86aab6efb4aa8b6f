#include "nn/linear.h"

#include "quant/qtensor.h"
#include "tensor/gemm.h"

namespace emmark {

Linear::Linear(std::string name, int64_t in_features, int64_t out_features,
               bool bias, Rng& rng)
    : name_(std::move(name)),
      in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias) {
  Tensor w({out_features, in_features});
  for (float& v : w.flat()) v = rng.next_normal_f(0.0f, 0.02f);
  w_ = Parameter(name_ + ".weight", std::move(w));
  if (has_bias_) b_ = Parameter(name_ + ".bias", Tensor({out_features}));
}

void Linear::forward(const Tensor& x, Tensor& y) {
  if (x.rank() != 2 || x.dim(1) != in_features_) {
    throw TensorError("Linear " + name_ + ": bad input shape " + x.shape_string());
  }
  const int64_t m = x.dim(0);
  // The input cache only feeds backward() and calibration, both of which
  // run on FP models; fused quantized-weight views are eval-only (backward
  // throws below), so skipping the deep copy there trims a per-layer
  // O(batch * in_features) memcpy off the batched eval path.
  if (qweight_ == nullptr) cached_x_.x = x;
  y.resize({m, out_features_});  // both GEMM paths overwrite it in full
  if (qweight_ != nullptr) {
    dequant_gemm_nt(x.data(), *qweight_, y.data(), m);
  } else {
    gemm_nt(x.data(), w_.value.data(), y.data(), m, in_features_, out_features_);
  }
  if (has_bias_) {
    const float* b = b_.value.data();
    for (int64_t i = 0; i < m; ++i) {
      float* row = y.data() + i * out_features_;
      for (int64_t j = 0; j < out_features_; ++j) row[j] += b[j];
    }
  }
  if (lora_) lora_->forward(x, y);
}

void Linear::backward(const Tensor& dy, Tensor& dx) {
  if (qweight_ != nullptr) {
    throw TensorError("Linear " + name_ +
                      ": backward through a fused quantized-weight view");
  }
  const int64_t m = dy.dim(0);
  dx = Tensor({m, in_features_});
  gemm_nn(dy.data(), w_.value.data(), dx.data(), m, out_features_, in_features_);
  if (!frozen_) {
    // dW += dy^T x
    gemm_tn(dy.data(), cached_x_.x.data(), w_.grad.data(), out_features_, m,
            in_features_, /*accumulate=*/true);
    if (has_bias_) {
      float* db = b_.grad.data();
      for (int64_t i = 0; i < m; ++i) {
        const float* row = dy.data() + i * out_features_;
        for (int64_t j = 0; j < out_features_; ++j) db[j] += row[j];
      }
    }
  }
  if (lora_) lora_->backward(dy, dx);
}

std::vector<Parameter*> Linear::parameters() {
  std::vector<Parameter*> out;
  if (!frozen_) {
    out.push_back(&w_);
    if (has_bias_) out.push_back(&b_);
  }
  if (lora_) {
    out.push_back(&lora_->a());
    out.push_back(&lora_->b());
  }
  return out;
}

void Linear::set_quantized_weight(const QuantizedTensor* q) {
  if (q != nullptr &&
      (q->rows() != out_features_ || q->cols() != in_features_)) {
    throw TensorError("Linear " + name_ + ": quantized weight shape mismatch");
  }
  qweight_ = q;
}

void Linear::attach_lora(int64_t rank, float alpha, uint64_t seed) {
  lora_.emplace(name_, in_features_, out_features_, rank, alpha, seed);
}

}  // namespace emmark
