// Fully-connected layer with cached-input backward pass.
//
// Weights are stored row-major [out_features, in_features] -- the same
// layout the quantization stack (quant/) and the watermark (wm/) operate
// on, so a "quantization layer" in the paper maps 1:1 to one Linear here.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "nn/lora.h"
#include "nn/param.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace emmark {

class QuantizedTensor;

class Linear {
 public:
  /// Initializes W ~ N(0, 0.02) (GPT-style) and b = 0 when `bias` is set.
  Linear(std::string name, int64_t in_features, int64_t out_features, bool bias,
         Rng& rng);

  /// Copies every member -- parameters, LoRA adapter, fused-weight
  /// binding -- except the forward input cache. No RNG draws.
  Linear(const Linear& other) = default;
  Linear& operator=(const Linear&) = delete;

  /// y[M, out] = x[M, in] W^T (+ b) (+ LoRA path if attached). y's storage
  /// is reused when large enough.
  void forward(const Tensor& x, Tensor& y);

  /// dx[M, in] from dy[M, out]; accumulates dW/db unless the layer is
  /// frozen. Must follow a forward() on the same input.
  void backward(const Tensor& dy, Tensor& dx);

  /// Trainable parameters: base W/b when not frozen, plus LoRA A/B.
  std::vector<Parameter*> parameters();

  /// Attach a LoRA adapter (replaces any existing one).
  void attach_lora(int64_t rank, float alpha, uint64_t seed);
  bool has_lora() const { return lora_.has_value(); }
  LoraAdapter* lora() { return lora_ ? &*lora_ : nullptr; }

  /// Frozen layers skip base-weight gradient accumulation (QLoRA-style).
  void set_frozen(bool frozen) { frozen_ = frozen; }
  bool frozen() const { return frozen_; }

  /// Evaluation-only fused-dequant mode: subsequent forwards stream `q`'s
  /// int8 codes through dequant_gemm_nt instead of reading W, skipping the
  /// full-tensor dequantize() temporary (bit-identical output -- see
  /// quant/qtensor.h). The layer does not own `q`; the caller keeps it
  /// alive (QuantizedModel::materialize_view). backward() throws in this
  /// mode. Pass nullptr to restore the plain weight path.
  void set_quantized_weight(const QuantizedTensor* q);
  bool has_quantized_weight() const { return qweight_ != nullptr; }

  /// Input of the most recent forward() -- used by activation calibration
  /// (quant/calib.h) to gather per-channel statistics without hooks.
  const Tensor& last_input() const { return cached_x_.x; }

  const std::string& name() const { return name_; }
  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }
  Parameter& weight() { return w_; }
  const Parameter& weight() const { return w_; }
  bool has_bias() const { return has_bias_; }
  Parameter& bias() { return b_; }

 private:
  /// The forward input backward() reads; a copied layer starts without
  /// one, so copies never duplicate activations.
  struct InputCache {
    Tensor x;
    InputCache() = default;
    InputCache(const InputCache&) {}
    InputCache& operator=(const InputCache&) = delete;
  };

  std::string name_;
  int64_t in_features_;
  int64_t out_features_;
  bool has_bias_;
  bool frozen_ = false;
  Parameter w_;  // [out, in]
  Parameter b_;  // [out]
  const QuantizedTensor* qweight_ = nullptr;  // unowned; eval-only fused path
  InputCache cached_x_;
  std::optional<LoraAdapter> lora_;
};

}  // namespace emmark
