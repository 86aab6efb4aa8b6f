#include "quant/calib.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "tensor/ops.h"

namespace emmark {

const LayerActivationStats& ActivationStats::find(const std::string& name) const {
  for (const auto& layer : layers) {
    if (layer.name == name) return layer;
  }
  throw std::out_of_range("no activation stats for layer: " + name);
}

bool ActivationStats::has(const std::string& name) const {
  for (const auto& layer : layers) {
    if (layer.name == name) return true;
  }
  return false;
}

void ActivationStats::save(BinaryWriter& w) const {
  w.write_u64(layers.size());
  for (const auto& layer : layers) {
    w.write_string(layer.name);
    w.write_vector(layer.abs_mean);
    w.write_vector(layer.abs_max);
    layer.samples.save(w);
    w.write_i64(layer.observed_rows);
  }
}

ActivationStats ActivationStats::load(BinaryReader& r) {
  ActivationStats stats;
  // Each layer holds at least its name length, two vector counts, its
  // sample tensor's rank and its row count.
  const uint64_t count = r.read_count(5 * sizeof(uint64_t));
  stats.layers.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    LayerActivationStats layer;
    layer.name = r.read_string();
    layer.abs_mean = r.read_vector<float>();
    layer.abs_max = r.read_vector<float>();
    layer.samples = Tensor::load(r);
    layer.observed_rows = r.read_i64();
    stats.layers.push_back(std::move(layer));
  }
  return stats;
}

ActivationStats collect_activation_stats(TransformerLM& model,
                                         const std::vector<TokenId>& stream,
                                         const CalibConfig& config) {
  auto linears = model.quantizable_linears();
  ActivationStats stats;
  stats.layers.resize(linears.size());
  for (size_t i = 0; i < linears.size(); ++i) {
    auto& layer = stats.layers[i];
    layer.name = linears[i].name;
    const int64_t in = linears[i].linear->in_features();
    layer.abs_mean.assign(static_cast<size_t>(in), 0.0f);
    layer.abs_max.assign(static_cast<size_t>(in), 0.0f);
    if (config.max_sample_rows > 0) {
      layer.samples = Tensor({config.max_sample_rows, in});
    }
  }

  Rng rng(config.seed);
  std::vector<int64_t> sample_fill(linears.size(), 0);
  for (int64_t b = 0; b < config.batches; ++b) {
    const Batch batch = sample_batch(stream, config.batch_size, config.seq_len, rng);
    (void)model.forward_loss(batch);

    for (size_t i = 0; i < linears.size(); ++i) {
      const Tensor& x = linears[i].linear->last_input();
      auto& layer = stats.layers[i];
      const int64_t rows = x.dim(0);
      const int64_t in = x.dim(1);
      for (int64_t r = 0; r < rows; ++r) {
        const float* xr = x.data() + r * in;
        for (int64_t c = 0; c < in; ++c) {
          const float a = std::fabs(xr[c]);
          layer.abs_mean[static_cast<size_t>(c)] += a;
          auto& mx = layer.abs_max[static_cast<size_t>(c)];
          mx = std::max(mx, a);
        }
      }
      // Reservoir-free sampling: keep the first max_sample_rows rows; the
      // calibration stream is already i.i.d. windows.
      if (config.max_sample_rows > 0) {
        int64_t& fill = sample_fill[i];
        const int64_t take = std::min<int64_t>(rows, config.max_sample_rows - fill);
        for (int64_t r = 0; r < take; ++r) {
          std::memcpy(layer.samples.data() + (fill + r) * in, x.data() + r * in,
                      static_cast<size_t>(in) * sizeof(float));
        }
        fill += take;
      }
      layer.observed_rows += rows;
    }
  }

  for (size_t i = 0; i < stats.layers.size(); ++i) {
    auto& layer = stats.layers[i];
    if (layer.observed_rows > 0) {
      const float inv = 1.0f / static_cast<float>(layer.observed_rows);
      for (float& v : layer.abs_mean) v *= inv;
    }
    // Trim the sample tensor to the rows actually filled.
    if (config.max_sample_rows > 0 && sample_fill[i] < config.max_sample_rows) {
      const int64_t in = layer.samples.dim(1);
      Tensor trimmed({std::max<int64_t>(sample_fill[i], 1), in});
      std::memcpy(trimmed.data(), layer.samples.data(),
                  static_cast<size_t>(trimmed.numel()) * sizeof(float));
      layer.samples = std::move(trimmed);
    }
  }
  return stats;
}

}  // namespace emmark
