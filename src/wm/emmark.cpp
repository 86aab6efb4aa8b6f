#include "wm/emmark.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "kernels/kernels.h"
#include "kernels/select.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace emmark {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-layer RNG: mixes the key seed with the layer index so placements in
/// one layer are independent of every other layer's geometry.
Rng layer_rng(uint64_t seed, size_t layer_index) {
  uint64_t state = seed;
  (void)splitmix64(state);
  return Rng(state + 0x9e3779b97f4a7c15ull * (layer_index + 1));
}

/// Section 4.1 derivation: locations + signature bits for every layer.
std::vector<LayerWatermark> derive_layers(const QuantizedModel& original,
                                          const ActivationStats& stats,
                                          const WatermarkKey& key) {
  if (key.bits_per_layer <= 0) {
    throw std::invalid_argument("bits_per_layer must be positive");
  }
  // Layers are independent: each derivation reads only its own weights,
  // activation channel, and a per-layer-seeded RNG. Every iteration writes
  // exactly layers[i], so the pooled result is bit-identical to the serial
  // walk regardless of thread count.
  std::vector<LayerWatermark> layers(static_cast<size_t>(original.num_layers()));

  parallel_for_index(layers.size(), [&](size_t idx) {
    const int64_t i = static_cast<int64_t>(idx);
    const QuantizedLayer& layer = original.layer(i);
    const LayerActivationStats& act = stats.find(layer.name);
    const std::vector<double> scores =
        score_layer(layer.weights, act.abs_mean, key.alpha, key.beta);

    // Candidate pool: |B_c| smallest finite scores. The two-pass selection
    // replaces a full-tensor partial_sort but preserves its exact
    // (score, index) order, so pools -- and therefore placements -- stay
    // byte-identical to records derived before the rewrite.
    const int64_t pool_target = key.candidate_ratio * key.bits_per_layer;
    const size_t pool_size =
        std::min(static_cast<size_t>(pool_target), scores.size());
    const std::vector<int64_t> order =
        kernels::smallest_k_by_score(scores.data(), scores.size(), pool_size);
    std::vector<int64_t> pool;
    pool.reserve(order.size());
    for (int64_t p : order) {
      if (std::isinf(scores[static_cast<size_t>(p)])) break;
      pool.push_back(p);
    }
    if (static_cast<int64_t>(pool.size()) < key.bits_per_layer) {
      throw std::runtime_error("layer " + layer.name +
                               " has too few watermarkable weights (" +
                               std::to_string(pool.size()) + " < " +
                               std::to_string(key.bits_per_layer) + ")");
    }

    // Secret-seeded subset of the candidate pool (Section 4.1, seed d).
    Rng rng = layer_rng(key.seed, static_cast<size_t>(i));
    const std::vector<size_t> picks =
        rng.sample_indices(pool.size(), static_cast<size_t>(key.bits_per_layer));

    LayerWatermark wm;
    wm.layer_name = layer.name;
    wm.locations.reserve(picks.size());
    for (size_t p : picks) wm.locations.push_back(pool[p]);
    // Keep locations sorted so insertion order is canonical; the signature
    // bits are generated per layer from the signature seed.
    std::sort(wm.locations.begin(), wm.locations.end());
    wm.bits = rademacher_signature(key.signature_seed + static_cast<uint64_t>(i),
                                   key.bits_per_layer);
    layers[idx] = std::move(wm);
  });
  return layers;
}

/// Eq. 5: stamps a derived record into `model` in place.
void stamp_layers(QuantizedModel& model, const WatermarkRecord& record) {
  // Each iteration touches only its own layer's weights, so layers can be
  // stamped concurrently without synchronization. The stamp kernel writes
  // through the raw code buffer: records reaching this path are freshly
  // derived (insert() only), candidates are never saturated, so
  // W'[L_i] = W[L_i] + b_i stays strictly inside the quantization grid
  // and the per-element bound-checked setter would only burn cycles.
  parallel_for_index(record.layers.size(), [&](size_t i) {
    const LayerWatermark& wm = record.layers[i];
    QuantizedTensor& weights = model.layer(static_cast<int64_t>(i)).weights;
    // codes_mut() hands the kernel an unpacked grid and repacks int4
    // storage when the guard dies at the end of the iteration.
    QuantizedTensor::CodesMut codes = weights.codes_mut();
    kernels::stamp(codes.data(), wm.locations.data(), wm.bits.data(),
                   wm.locations.size());
  });
}

}  // namespace

int64_t WatermarkRecord::total_bits() const {
  int64_t total = 0;
  for (const auto& layer : layers) total += static_cast<int64_t>(layer.bits.size());
  return total;
}

bool placements_equal(const WatermarkRecord& a, const WatermarkRecord& b) {
  if (a.layers.size() != b.layers.size()) return false;
  for (size_t i = 0; i < a.layers.size(); ++i) {
    if (a.layers[i].locations != b.layers[i].locations ||
        a.layers[i].bits != b.layers[i].bits) {
      return false;
    }
  }
  return true;
}

bool record_rederives(const WatermarkScheme& scheme, const SchemeRecord& filed,
                      const QuantizedModel& original, const ActivationStats& stats,
                      PlacementMemo* memo) {
  const WatermarkRecord& record = filed.as<WatermarkRecord>();
  const SchemeRecord derived = memo != nullptr
                                   ? memo->derive(scheme, original, stats, record.key)
                                   : scheme.derive(original, stats, record.key);
  return placements_equal(derived.as<WatermarkRecord>(), record);
}

void WatermarkRecord::save(BinaryWriter& w) const {
  key.save(w);
  w.write_u64(layers.size());
  for (const auto& layer : layers) {
    w.write_string(layer.layer_name);
    w.write_vector(layer.locations);
    w.write_vector(layer.bits);
  }
}

WatermarkRecord WatermarkRecord::load(BinaryReader& r) {
  WatermarkRecord record;
  record.key = WatermarkKey::load(r);
  // Each layer holds at least its name length and two vector counts.
  const uint64_t count = r.read_count(3 * sizeof(uint64_t));
  record.layers.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    LayerWatermark layer;
    layer.layer_name = r.read_string();
    layer.locations = r.read_vector<int64_t>();
    layer.bits = r.read_vector<int8_t>();
    record.layers.push_back(std::move(layer));
  }
  return record;
}

std::vector<double> score_layer(const QuantizedTensor& weights,
                                const std::vector<float>& act, double alpha,
                                double beta) {
  const int64_t rows = weights.rows();
  const int64_t cols = weights.cols();
  if (static_cast<int64_t>(act.size()) != cols) {
    throw std::invalid_argument("score_layer: activation channel count mismatch");
  }

  // Eq. 4 ingredients: per-channel saliency normalization.
  float act_max = -std::numeric_limits<float>::infinity();
  float act_min = std::numeric_limits<float>::infinity();
  for (float a : act) {
    act_max = std::max(act_max, a);
    act_min = std::min(act_min, a);
  }

  std::vector<double> s_r(static_cast<size_t>(cols), kInf);
  for (int64_t c = 0; c < cols; ++c) {
    const double denom = static_cast<double>(act[static_cast<size_t>(c)]) - act_min;
    s_r[static_cast<size_t>(c)] =
        denom > 0.0 ? std::fabs(static_cast<double>(act_max) / denom) : kInf;
  }

  // Fold every row-invariant exclusion into one per-column additive term
  // so the inner sweep is pure arithmetic for the SIMD kernels:
  // +inf for outlier FP columns (LLM.int8() -- no integer code to
  // watermark) and Eq. 4-excluded channels, beta * S_r otherwise. A score
  // is then A(code) + colterm[c], +inf exactly when the weight is
  // structurally uninsertable -- identical bits to the old branchy walk,
  // because zero-weighted terms stay absent from Eq. 2 rather than
  // becoming 0 * inf (NaN): with beta = 0 an activation-minimum channel
  // is still insertable, with alpha = 0 magnitude is ignored.
  std::vector<double> colterm(static_cast<size_t>(cols), 0.0);
  for (int64_t c = 0; c < cols; ++c) {
    if (weights.is_outlier_col(c)) {
      colterm[static_cast<size_t>(c)] = kInf;
    } else if (beta != 0.0) {
      const double s_r_c = s_r[static_cast<size_t>(c)];
      colterm[static_cast<size_t>(c)] = std::isinf(s_r_c) ? kInf : beta * s_r_c;
    }
  }

  // Rows are scored in parallel over the active pool: each row writes only
  // its own scores slice, so the result is bit-identical to the serial walk
  // at any thread count. Inside derive() this runs on a pool worker and
  // falls back to inline execution; standalone callers (benches, ablations)
  // get within-layer parallelism. The per-row sweep dispatches to the
  // active SIMD kernel (scalar/SSE2/AVX2/NEON -- bit-identical at every
  // level, see src/kernels/kernels.h).
  std::vector<double> scores(static_cast<size_t>(rows * cols));
  const kernels::Ops& ops = kernels::active_ops();
  // One unpacked view for the whole scoring sweep (int4 unpacks once here,
  // not per row); workers only read it.
  const QuantizedTensor::CodesView codes_view = weights.codes_view();
  const int8_t* codes = codes_view.data();
  const int32_t qmax = weights.qmax();
  ThreadPool::active().parallel_for(
      static_cast<size_t>(rows), [&](size_t row_begin, size_t row_end) {
        for (size_t r = row_begin; r < row_end; ++r) {
          kernels::ScoreArgs args;
          args.codes = codes + r * static_cast<size_t>(cols);
          args.n = cols;
          args.colterm = colterm.data();
          args.alpha = alpha;
          args.qmax = qmax;
          args.out = scores.data() + r * static_cast<size_t>(cols);
          ops.score_row(args);
        }
      });
  return scores;
}

ExtractionReport extract_recorded_bits(const QuantizedModel& suspect,
                                       const QuantizedModel& original,
                                       const WatermarkRecord& record) {
  if (suspect.num_layers() != original.num_layers()) {
    throw std::invalid_argument("extract: model layer count mismatch");
  }
  if (static_cast<int64_t>(record.layers.size()) > original.num_layers()) {
    throw std::invalid_argument("extract: record has more layers than the model");
  }
  // Per-layer match counts land in pre-sized slots and are summed in layer
  // order afterwards, keeping the report independent of the thread count.
  std::vector<int64_t> matched(record.layers.size(), 0);
  std::vector<int64_t> total(record.layers.size(), 0);
  const kernels::Ops& ops = kernels::active_ops();
  parallel_for_index(record.layers.size(), [&](size_t i) {
    const LayerWatermark& wm = record.layers[i];
    const QuantizedTensor& w_suspect = suspect.layer(static_cast<int64_t>(i)).weights;
    const QuantizedTensor& w_original = original.layer(static_cast<int64_t>(i)).weights;
    // Records reach this path from disk (evidence bundles), so the
    // record-driven indices are untrusted input, not invariants: validate
    // every shape and location before the kernel touches raw buffers.
    if (w_suspect.numel() != w_original.numel()) {
      throw std::invalid_argument("extract: layer shape mismatch");
    }
    if (wm.locations.size() != wm.bits.size()) {
      throw std::invalid_argument("extract: record bits/locations size mismatch");
    }
    for (const int64_t flat : wm.locations) {
      if (flat < 0 || flat >= w_suspect.numel()) {
        throw std::invalid_argument("extract: record location out of range");
      }
    }
    // Eq. 6: dW = W'[L] - W[L]; a bit matches when dW equals b exactly.
    const QuantizedTensor::CodesView suspect_codes = w_suspect.codes_view();
    const QuantizedTensor::CodesView original_codes = w_original.codes_view();
    matched[i] = ops.count_matches(suspect_codes.data(), original_codes.data(),
                                   wm.locations.data(), wm.bits.data(),
                                   wm.locations.size(), w_suspect.numel());
    total[i] = static_cast<int64_t>(wm.locations.size());
  });
  ExtractionReport report;
  for (size_t i = 0; i < record.layers.size(); ++i) {
    report.matched_bits += matched[i];
    report.total_bits += total[i];
  }
  return report;
}

// --- WatermarkScheme port ---------------------------------------------------

SchemeRecord EmMarkScheme::wrap(WatermarkRecord record) {
  return SchemeRecord::wrap("emmark", /*payload_version=*/1, std::move(record));
}

SchemeRecord EmMarkScheme::derive(const QuantizedModel& original,
                                  const ActivationStats& stats,
                                  const WatermarkKey& key) const {
  WatermarkRecord record;
  record.key = key;
  record.layers = derive_layers(original, stats, key);
  return wrap(std::move(record));
}

SchemeRecord EmMarkScheme::insert(QuantizedModel& model, const ActivationStats& stats,
                                  const WatermarkKey& key) const {
  WatermarkRecord record;
  record.key = key;
  record.layers = derive_layers(model, stats, key);
  stamp_layers(model, record);
  return wrap(std::move(record));
}

ExtractionReport EmMarkScheme::extract(const QuantizedModel& suspect,
                                       const QuantizedModel& original,
                                       const SchemeRecord& record) const {
  return extract_recorded_bits(suspect, original, record.as<WatermarkRecord>());
}

int64_t EmMarkScheme::total_bits(const SchemeRecord& record) const {
  return record.as<WatermarkRecord>().total_bits();
}

bool EmMarkScheme::rederives(const SchemeRecord& filed, const QuantizedModel& original,
                             const ActivationStats& stats, PlacementMemo* memo) const {
  return record_rederives(*this, filed, original, stats, memo);
}

void EmMarkScheme::save_payload(BinaryWriter& w, const SchemeRecord& record) const {
  record.as<WatermarkRecord>().save(w);
}

SchemeRecord EmMarkScheme::load_payload(BinaryReader& r,
                                        uint32_t stored_version) const {
  if (stored_version != payload_version()) {
    throw SerializeError("emmark record payload version " +
                         std::to_string(stored_version) + " unsupported (want " +
                         std::to_string(payload_version()) + ")");
  }
  return wrap(WatermarkRecord::load(r));
}

}  // namespace emmark
