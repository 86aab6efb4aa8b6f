#include "quant/qmodel.h"

#include <stdexcept>

#include "util/threadpool.h"

namespace emmark {

const char* to_string(QuantMethod method) {
  switch (method) {
    case QuantMethod::kRtnInt8: return "rtn-int8";
    case QuantMethod::kSmoothQuantInt8: return "smoothquant-int8";
    case QuantMethod::kLlmInt8: return "llm.int8";
    case QuantMethod::kRtnInt4: return "rtn-int4";
    case QuantMethod::kAwqInt4: return "awq-int4";
    case QuantMethod::kGptqInt4: return "gptq-int4";
  }
  return "?";
}

QuantBits bits_of(QuantMethod method) {
  switch (method) {
    case QuantMethod::kRtnInt8:
    case QuantMethod::kSmoothQuantInt8:
    case QuantMethod::kLlmInt8:
      return QuantBits::kInt8;
    case QuantMethod::kRtnInt4:
    case QuantMethod::kAwqInt4:
    case QuantMethod::kGptqInt4:
      return QuantBits::kInt4;
  }
  return QuantBits::kInt8;
}

QuantizedModel::QuantizedModel(const TransformerLM& fp_model,
                               const ActivationStats& stats, QuantMethod method,
                               const QuantOptions& options)
    : method_(method), base_(fp_model.clone()) {
  auto linears = base_->quantizable_linears();
  // Layers quantize independently (the AWQ/GPTQ searches are the hot part);
  // pre-sized slots keep layer order identical to quantizable_linears().
  layers_.resize(linears.size());
  parallel_for_index(linears.size(), [&](size_t idx) {
    auto& ref = linears[idx];
    const LayerActivationStats& layer_stats = stats.find(ref.name);
    const Tensor& w = ref.linear->weight().value;
    QuantizedLayer layer;
    layer.name = ref.name;
    switch (method) {
      case QuantMethod::kRtnInt8:
        layer.weights = rtn(w, options.rtn_int8);
        break;
      case QuantMethod::kSmoothQuantInt8:
        layer.weights = smoothquant(w, layer_stats.abs_max, options.smooth);
        break;
      case QuantMethod::kLlmInt8:
        layer.weights = llmint8(w, layer_stats.abs_max, options.llmint8);
        break;
      case QuantMethod::kRtnInt4:
        layer.weights = rtn(w, options.rtn_int4);
        break;
      case QuantMethod::kAwqInt4:
        layer.weights = awq(w, layer_stats.abs_mean, options.awq).tensor;
        break;
      case QuantMethod::kGptqInt4:
        layer.weights = gptq(w, layer_stats.samples, options.gptq);
        break;
    }
    layers_[idx] = std::move(layer);
  });
  // From here on the codes stand in for every quantized weight:
  // materialize() and materialize_view() both replace them. Dropping the
  // FP copies (and their gradient buffers) keeps them out of every copy
  // and view of base_.
  for (auto& ref : linears) {
    ref.linear->weight().value = Tensor();
    ref.linear->weight().grad = Tensor();
  }
}

QuantizedModel::QuantizedModel(const QuantizedModel& other)
    : method_(other.method_), layers_(other.layers_), base_(other.base_->clone()) {}

QuantizedModel& QuantizedModel::operator=(const QuantizedModel& other) {
  if (this != &other) {
    method_ = other.method_;
    layers_ = other.layers_;
    base_ = other.base_->clone();
  }
  return *this;
}

const QuantizedLayer& QuantizedModel::find_layer(const std::string& name) const {
  for (const auto& layer : layers_) {
    if (layer.name == name) return layer;
  }
  throw std::out_of_range("no quantized layer named " + name);
}

int64_t QuantizedModel::quantized_param_count() const {
  int64_t total = 0;
  for (const auto& layer : layers_) total += layer.weights.numel();
  return total;
}

uint64_t QuantizedModel::code_bytes() const {
  // Resident storage, not logical element count: packed int4 layers charge
  // two codes per byte, so an int4 model budgets ~half its int8 twin in
  // the ModelStore and the resident-bytes gauge.
  uint64_t total = 0;
  for (const auto& layer : layers_) {
    total += layer.weights.storage_bytes();
  }
  return total;
}

namespace {
constexpr const char* kCodesMagic = "EMMQCODE";
constexpr uint32_t kCodesVersion = 1;
}  // namespace

void QuantizedModel::save_codes(const std::string& path) const {
  BinaryWriter writer(path, kCodesMagic, kCodesVersion);
  writer.write_string(to_string(method_));
  writer.write_u64(layers_.size());
  for (const auto& layer : layers_) {
    writer.write_string(layer.name);
    writer.write_i64(layer.weights.rows());
    writer.write_i64(layer.weights.cols());
    writer.write_vector(layer.weights.codes());
  }
  writer.close();
}

void QuantizedModel::load_codes(const std::string& path) {
  BinaryReader reader(path, kCodesMagic, kCodesVersion);
  const std::string method_name = reader.read_string();
  if (method_name != to_string(method_)) {
    throw SerializeError("codes snapshot quantized with " + method_name +
                         ", model uses " + to_string(method_));
  }
  const uint64_t count = reader.read_u64();
  if (count != layers_.size()) {
    throw SerializeError("codes snapshot layer count mismatch");
  }
  for (auto& layer : layers_) {
    const std::string name = reader.read_string();
    const int64_t rows = reader.read_i64();
    const int64_t cols = reader.read_i64();
    if (name != layer.name || rows != layer.weights.rows() ||
        cols != layer.weights.cols()) {
      throw SerializeError("codes snapshot does not match layer " + layer.name);
    }
    const std::vector<int8_t> codes = reader.read_vector<int8_t>();
    // The snapshot format is one int8 per code (unpacked) at every bit
    // width, so the expected size is the logical element count.
    if (codes.size() != static_cast<size_t>(layer.weights.numel())) {
      throw SerializeError("codes snapshot size mismatch in " + layer.name);
    }
    layer.weights.set_codes(codes);
  }
}

std::unique_ptr<TransformerLM> QuantizedModel::materialize() const {
  auto model = base_->clone();
  auto linears = model->quantizable_linears();
  if (linears.size() != layers_.size()) {
    throw std::logic_error("quantized layer count does not match model");
  }
  for (size_t i = 0; i < linears.size(); ++i) {
    if (linears[i].name != layers_[i].name) {
      throw std::logic_error("quantized layer order mismatch: " + linears[i].name);
    }
    Parameter& weight = linears[i].linear->weight();
    weight.value = layers_[i].weights.dequantize();
    weight.grad = Tensor(weight.value.shape());
  }
  return model;
}

std::unique_ptr<TransformerLM> QuantizedModel::materialize_view() const {
  auto model = base_->clone();
  auto linears = model->quantizable_linears();
  if (linears.size() != layers_.size()) {
    throw std::logic_error("quantized layer count does not match model");
  }
  for (size_t i = 0; i < linears.size(); ++i) {
    if (linears[i].name != layers_[i].name) {
      throw std::logic_error("quantized layer order mismatch: " + linears[i].name);
    }
    linears[i].linear->set_quantized_weight(&layers_[i].weights);
  }
  return model;
}

}  // namespace emmark
