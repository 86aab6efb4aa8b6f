// QuantizedModel: an embedded (compressed + quantized) LLM.
//
// Holds one QuantizedTensor per "quantization layer" (every attention/FFN
// projection plus the LM head) together with the FP parts of the network
// (embeddings, norms, biases); the base keeps no FP copy of a quantized
// weight. materialize() produces a fake-quant FP model -- dequantized
// effective weights substituted into a clone of the base -- which is how
// perplexity / zero-shot quality of the embedded model is measured
// throughout the reproduction.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/transformer.h"
#include "quant/awq.h"
#include "quant/calib.h"
#include "quant/gptq.h"
#include "quant/llmint8.h"
#include "quant/qtensor.h"
#include "quant/rtn.h"
#include "quant/smoothquant.h"

namespace emmark {

enum class QuantMethod {
  kRtnInt8,
  kSmoothQuantInt8,  // paper: OPT family INT8
  kLlmInt8,          // paper: LLaMA-2 family INT8
  kRtnInt4,
  kAwqInt4,          // paper: all INT4 models
  kGptqInt4,         // paper: Table 4 integrity comparator
};

const char* to_string(QuantMethod method);
QuantBits bits_of(QuantMethod method);

struct QuantOptions {
  RtnConfig rtn_int8{QuantBits::kInt8, 0};
  RtnConfig rtn_int4{QuantBits::kInt4, 16};
  SmoothQuantConfig smooth{};
  LlmInt8Config llmint8{};
  AwqConfig awq{};
  GptqConfig gptq{};
};

struct QuantizedLayer {
  std::string name;
  QuantizedTensor weights;
};

class QuantizedModel {
 public:
  /// Quantizes every quantizable linear of `fp_model` with `method`.
  /// `stats` must come from the same (full-precision) model.
  QuantizedModel(const TransformerLM& fp_model, const ActivationStats& stats,
                 QuantMethod method, const QuantOptions& options = {});

  /// Deep copy (watermark insertion operates on a copy).
  QuantizedModel(const QuantizedModel& other);
  QuantizedModel& operator=(const QuantizedModel& other);
  QuantizedModel(QuantizedModel&&) noexcept = default;
  QuantizedModel& operator=(QuantizedModel&&) noexcept = default;

  int64_t num_layers() const { return static_cast<int64_t>(layers_.size()); }
  QuantizedLayer& layer(int64_t i) { return layers_[static_cast<size_t>(i)]; }
  const QuantizedLayer& layer(int64_t i) const { return layers_[static_cast<size_t>(i)]; }
  const QuantizedLayer& find_layer(const std::string& name) const;

  QuantMethod method() const { return method_; }
  QuantBits bits() const { return bits_of(method_); }
  const ModelConfig& config() const { return base_->config(); }

  /// Total number of quantized weight elements.
  int64_t quantized_param_count() const;

  /// Bytes held by the integer code buffers across every layer: the
  /// model's dominant resident footprint, and the unit ModelStore's
  /// byte-budget eviction accounts in (zoo models vary ~30x in size, so an
  /// entry-count cap alone mis-sizes the cache).
  uint64_t code_bytes() const;

  /// Fake-quant evaluation model: clone of the FP base with each linear's
  /// weight replaced by the dequantized effective weight.
  std::unique_ptr<TransformerLM> materialize() const;

  /// Fused-eval twin of materialize(): a clone whose linears stream this
  /// model's codes through the fused dequant-GEMM and hold no weight
  /// tensors -- no O(rows * cols) FP copies or temporaries, same forwards
  /// bit for bit (see quant/qtensor.h). The view borrows the codes: it is
  /// valid only while this QuantizedModel is alive and its layers are not
  /// resized. backward() through the view throws, so its blocks share one
  /// set of activation buffers (see TransformerLM).
  std::unique_ptr<TransformerLM> materialize_view() const;

  /// Codes snapshot: just the integer codes of every layer. Watermarking
  /// only flips codes (scales/outliers/base weights are untouched), so a
  /// snapshot applied onto a freshly re-quantized original reconstructs the
  /// deployed model exactly -- the artifact emmark_cli ships between its
  /// insert and extract/verify/trace runs.
  void save_codes(const std::string& path) const;
  /// Overwrites this model's codes from a snapshot; throws SerializeError
  /// when layer names or shapes do not line up.
  void load_codes(const std::string& path);

 private:
  QuantMethod method_;
  std::vector<QuantizedLayer> layers_;
  std::unique_ptr<TransformerLM> base_;
};

}  // namespace emmark
