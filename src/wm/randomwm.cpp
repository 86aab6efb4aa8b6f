#include "wm/randomwm.h"

#include <algorithm>
#include <stdexcept>

#include "kernels/kernels.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace emmark {
namespace {

WatermarkRecord random_derive(const QuantizedModel& model, uint64_t seed,
                              int64_t bits_per_layer, uint64_t signature_seed) {
  WatermarkRecord record;
  record.key.seed = seed;
  record.key.bits_per_layer = bits_per_layer;
  record.key.signature_seed = signature_seed;
  record.key.alpha = 0.0;
  record.key.beta = 0.0;

  // Same layer-independence argument as EmMark's derivation: per-layer RNG
  // and per-layer eligibility, results written into pre-sized slots.
  record.layers.resize(static_cast<size_t>(model.num_layers()));
  parallel_for_index(record.layers.size(), [&](size_t idx) {
    const int64_t i = static_cast<int64_t>(idx);
    const QuantizedTensor& weights = model.layer(i).weights;
    // Eligible = not saturated and not an FP outlier column.
    std::vector<int64_t> eligible;
    eligible.reserve(static_cast<size_t>(weights.numel()));
    const int64_t cols = weights.cols();
    for (int64_t flat = 0; flat < weights.numel(); ++flat) {
      if (weights.is_saturated_flat(flat)) continue;
      if (weights.is_outlier_col(flat % cols)) continue;
      eligible.push_back(flat);
    }
    if (static_cast<int64_t>(eligible.size()) < bits_per_layer) {
      throw std::runtime_error("randomwm: not enough eligible weights in layer " +
                               model.layer(i).name);
    }

    Rng rng(seed + 0x1234 + static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ull);
    const std::vector<size_t> picks =
        rng.sample_indices(eligible.size(), static_cast<size_t>(bits_per_layer));

    LayerWatermark wm;
    wm.layer_name = model.layer(i).name;
    for (size_t p : picks) wm.locations.push_back(eligible[p]);
    std::sort(wm.locations.begin(), wm.locations.end());
    wm.bits = rademacher_signature(signature_seed + static_cast<uint64_t>(i),
                                   bits_per_layer);
    record.layers[idx] = std::move(wm);
  });
  return record;
}

}  // namespace

SchemeRecord RandomWMScheme::wrap(WatermarkRecord record) {
  return SchemeRecord::wrap("randomwm", /*payload_version=*/1, std::move(record));
}

SchemeRecord RandomWMScheme::derive(const QuantizedModel& original,
                                    const ActivationStats& /*stats*/,
                                    const WatermarkKey& key) const {
  return wrap(
      random_derive(original, key.seed, key.bits_per_layer, key.signature_seed));
}

SchemeRecord RandomWMScheme::insert(QuantizedModel& model,
                                    const ActivationStats& /*stats*/,
                                    const WatermarkKey& key) const {
  WatermarkRecord record =
      random_derive(model, key.seed, key.bits_per_layer, key.signature_seed);

  // Same stamp kernel as EmMark: freshly derived locations are never
  // saturated, so the raw-buffer write stays inside the grid.
  parallel_for_index(record.layers.size(), [&](size_t idx) {
    const LayerWatermark& wm = record.layers[idx];
    QuantizedTensor& weights = model.layer(static_cast<int64_t>(idx)).weights;
    QuantizedTensor::CodesMut codes = weights.codes_mut();
    kernels::stamp(codes.data(), wm.locations.data(), wm.bits.data(),
                   wm.locations.size());
  });
  return wrap(std::move(record));
}

ExtractionReport RandomWMScheme::extract(const QuantizedModel& suspect,
                                         const QuantizedModel& original,
                                         const SchemeRecord& record) const {
  return extract_recorded_bits(suspect, original, record.as<WatermarkRecord>());
}

int64_t RandomWMScheme::total_bits(const SchemeRecord& record) const {
  return record.as<WatermarkRecord>().total_bits();
}

bool RandomWMScheme::rederives(const SchemeRecord& filed,
                               const QuantizedModel& original,
                               const ActivationStats& stats,
                               PlacementMemo* memo) const {
  return record_rederives(*this, filed, original, stats, memo);
}

void RandomWMScheme::save_payload(BinaryWriter& w, const SchemeRecord& record) const {
  record.as<WatermarkRecord>().save(w);
}

SchemeRecord RandomWMScheme::load_payload(BinaryReader& r,
                                          uint32_t stored_version) const {
  if (stored_version != payload_version()) {
    throw SerializeError("randomwm record payload version " +
                         std::to_string(stored_version) + " unsupported (want " +
                         std::to_string(payload_version()) + ")");
  }
  return wrap(WatermarkRecord::load(r));
}

}  // namespace emmark
