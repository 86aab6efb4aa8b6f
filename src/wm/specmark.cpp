#include "wm/specmark.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "signal/dct.h"
#include "util/rng.h"
#include "util/threadpool.h"
#include "wm/signature.h"

namespace emmark {
namespace {

int64_t chunk_count(int64_t numel) {
  return (numel + kSpecMarkChunkSize - 1) / kSpecMarkChunkSize;
}

std::vector<double> chunk_codes(const QuantizedTensor& weights, int64_t chunk) {
  const int64_t begin = chunk * kSpecMarkChunkSize;
  const int64_t end = std::min(weights.numel(), begin + kSpecMarkChunkSize);
  std::vector<double> xs(static_cast<size_t>(end - begin));
  for (int64_t i = begin; i < end; ++i) {
    xs[static_cast<size_t>(i - begin)] = static_cast<double>(weights.code_flat(i));
  }
  return xs;
}

/// One unit of spectral work: a single chunk of a single layer. Chunks are
/// disjoint code ranges, so jobs parallelize with no synchronization and
/// each job's transform is numerically identical to the serial walk --
/// within-layer chunk parallelism is what speeds SpecMark up on big layers
/// (a layer used to be one serial unit however many chunks it spanned).
struct ChunkJob {
  int64_t layer = 0;
  int64_t chunk = 0;
  /// (local coefficient index, payload) pairs for this chunk.
  std::vector<std::pair<int64_t, size_t>> slots;
};

/// Groups a record's coefficients into per-(layer, chunk) jobs. The payload
/// index points back into layers[layer] (bits / coefficient order).
std::vector<ChunkJob> chunk_jobs(const SpecMarkRecord& record) {
  std::vector<ChunkJob> jobs;
  for (size_t li = 0; li < record.layers.size(); ++li) {
    const SpecMarkLayer& layer = record.layers[li];
    // Coefficients arrive round-robin over chunks; collect them per chunk
    // in signature order. A small map keyed by chunk keeps job order
    // deterministic (layer-major, chunk-minor).
    std::vector<std::pair<int64_t, ChunkJob>> per_chunk;
    for (size_t j = 0; j < layer.coefficients.size(); ++j) {
      const int64_t chunk = layer.coefficients[j] / kSpecMarkChunkSize;
      const int64_t local = layer.coefficients[j] % kSpecMarkChunkSize;
      auto it = std::find_if(per_chunk.begin(), per_chunk.end(),
                             [&](const auto& e) { return e.first == chunk; });
      if (it == per_chunk.end()) {
        ChunkJob job;
        job.layer = static_cast<int64_t>(li);
        job.chunk = chunk;
        per_chunk.emplace_back(chunk, std::move(job));
        it = std::prev(per_chunk.end());
      }
      it->second.slots.emplace_back(local, j);
    }
    std::sort(per_chunk.begin(), per_chunk.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [chunk, job] : per_chunk) jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace

int64_t SpecMarkRecord::total_bits() const {
  int64_t total = 0;
  for (const auto& layer : layers) total += static_cast<int64_t>(layer.bits.size());
  return total;
}

void SpecMarkRecord::save(BinaryWriter& w) const {
  w.write_u64(seed);
  w.write_f64(epsilon);
  w.write_i64(bits_per_layer);
  w.write_f64(highfreq_fraction);
  w.write_u64(layers.size());
  for (const auto& layer : layers) {
    w.write_string(layer.layer_name);
    w.write_vector(layer.coefficients);
    w.write_vector(layer.bits);
  }
}

SpecMarkRecord SpecMarkRecord::load(BinaryReader& r) {
  SpecMarkRecord record;
  record.seed = r.read_u64();
  record.epsilon = r.read_f64();
  record.bits_per_layer = r.read_i64();
  record.highfreq_fraction = r.read_f64();
  // Each layer holds at least its name length and two vector counts.
  const uint64_t count = r.read_count(3 * sizeof(uint64_t));
  record.layers.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SpecMarkLayer layer;
    layer.layer_name = r.read_string();
    layer.coefficients = r.read_vector<int64_t>();
    layer.bits = r.read_vector<int8_t>();
    record.layers.push_back(std::move(layer));
  }
  return record;
}

bool placements_equal(const SpecMarkRecord& a, const SpecMarkRecord& b) {
  if (a.layers.size() != b.layers.size()) return false;
  for (size_t i = 0; i < a.layers.size(); ++i) {
    if (a.layers[i].coefficients != b.layers[i].coefficients ||
        a.layers[i].bits != b.layers[i].bits) {
      return false;
    }
  }
  return true;
}

SpecMarkRecord specmark_derive(const QuantizedModel& model, uint64_t seed,
                               int64_t bits_per_layer, double epsilon,
                               double highfreq_fraction) {
  SpecMarkRecord record;
  record.seed = seed;
  record.epsilon = epsilon;
  record.bits_per_layer = bits_per_layer;
  record.highfreq_fraction = highfreq_fraction;
  // Layers are independent (per-layer RNG, geometry only); pre-sized record
  // slots keep the pooled result identical to the serial walk. The
  // selection never reads weight values, so derivation is non-mutating and
  // exactly repeatable by an arbiter holding only the record.
  record.layers.resize(static_cast<size_t>(model.num_layers()));

  parallel_for_index(record.layers.size(), [&](size_t idx) {
    const int64_t i = static_cast<int64_t>(idx);
    const QuantizedTensor& weights = model.layer(i).weights;
    const int64_t chunks = chunk_count(weights.numel());
    Rng rng(seed + 0x5eed + static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ull);

    SpecMarkLayer layer;
    layer.layer_name = model.layer(i).name;
    layer.bits = rademacher_signature(seed + 77 + static_cast<uint64_t>(i),
                                      bits_per_layer);

    // Distribute bits over chunks round-robin; each perturbs one seeded
    // coefficient in its chunk's high-frequency band.
    for (int64_t j = 0; j < bits_per_layer; ++j) {
      const int64_t chunk = j % chunks;
      const int64_t begin = chunk * kSpecMarkChunkSize;
      const int64_t len =
          std::min(weights.numel(), begin + kSpecMarkChunkSize) - begin;
      const int64_t band_begin =
          static_cast<int64_t>(static_cast<double>(len) * (1.0 - highfreq_fraction));
      const int64_t band_size = std::max<int64_t>(1, len - band_begin);
      const int64_t local =
          band_begin + static_cast<int64_t>(rng.next_below(
                           static_cast<uint64_t>(band_size)));
      layer.coefficients.push_back(begin + local);
    }
    record.layers[idx] = std::move(layer);
  });
  return record;
}

SpecMarkRecord specmark_insert(QuantizedModel& model, uint64_t seed,
                               int64_t bits_per_layer, double epsilon,
                               double highfreq_fraction) {
  const SpecMarkRecord record =
      specmark_derive(model, seed, bits_per_layer, epsilon, highfreq_fraction);

  // Flattened (layer, chunk) fan-out: every job owns a disjoint code range,
  // so within-layer chunks transform concurrently and the stamped codes are
  // bit-identical at any thread count (each chunk's DCT -> perturb -> IDCT
  // -> round pipeline is computed exactly as the serial walk would).
  const std::vector<ChunkJob> jobs = chunk_jobs(record);
  parallel_for_index(jobs.size(), [&](size_t j) {
    const ChunkJob& job = jobs[j];
    const SpecMarkLayer& layer = record.layers[static_cast<size_t>(job.layer)];
    QuantizedTensor& weights = model.layer(job.layer).weights;
    const int64_t begin = job.chunk * kSpecMarkChunkSize;
    std::vector<double> x = chunk_codes(weights, job.chunk);
    std::vector<double> y = dct2(std::span<const double>(x));
    for (const auto& [local, bit_index] : job.slots) {
      y[static_cast<size_t>(local)] +=
          epsilon * static_cast<double>(layer.bits[bit_index]);
    }
    // Back to the weight domain -- and back onto the integer grid. This
    // rounding is what a quantized deployment forces, and what erases
    // the spectral perturbation.
    const std::vector<double> perturbed = idct2(std::span<const double>(y));
    for (size_t k = 0; k < perturbed.size(); ++k) {
      const int32_t code = std::clamp<int32_t>(
          static_cast<int32_t>(std::lround(perturbed[k])), weights.qmin(),
          weights.qmax());
      weights.set_code_flat(begin + static_cast<int64_t>(k),
                            static_cast<int8_t>(code));
    }
  });
  return record;
}

SpecMarkReport specmark_extract(const QuantizedModel& suspect,
                                const QuantizedModel& original,
                                const SpecMarkRecord& record) {
  if (suspect.num_layers() != original.num_layers() ||
      static_cast<int64_t>(record.layers.size()) > suspect.num_layers()) {
    throw std::invalid_argument("specmark_extract: layer count mismatch");
  }
  // Record coefficients drive the chunk indexing below, so validate them
  // (and the layer shapes they assume) up front, serially in layer order:
  // malformed records fail deterministically before any transform runs.
  for (size_t i = 0; i < record.layers.size(); ++i) {
    const SpecMarkLayer& layer = record.layers[i];
    const QuantizedTensor& ws = suspect.layer(static_cast<int64_t>(i)).weights;
    const QuantizedTensor& wo = original.layer(static_cast<int64_t>(i)).weights;
    if (ws.numel() != wo.numel()) {
      throw std::invalid_argument("specmark_extract: layer shape mismatch");
    }
    if (layer.coefficients.size() != layer.bits.size()) {
      throw std::invalid_argument(
          "specmark_extract: record bits/coefficients size mismatch");
    }
    for (int64_t global : layer.coefficients) {
      if (global < 0 || global >= ws.numel()) {
        throw std::invalid_argument(
            "specmark_extract: record coefficient out of range");
      }
    }
  }

  // Transform only chunks that hold coefficients, all of them concurrently
  // (layer- and chunk-level). Per-job match counts land in pre-sized slots
  // and are summed in job order afterwards: the report is independent of
  // the thread count.
  const std::vector<ChunkJob> jobs = chunk_jobs(record);
  std::vector<int64_t> matched(jobs.size(), 0);
  std::vector<int64_t> total(jobs.size(), 0);
  parallel_for_index(jobs.size(), [&](size_t j) {
    const ChunkJob& job = jobs[j];
    const SpecMarkLayer& layer = record.layers[static_cast<size_t>(job.layer)];
    const QuantizedTensor& ws = suspect.layer(job.layer).weights;
    const QuantizedTensor& wo = original.layer(job.layer).weights;
    const std::vector<double> ys =
        dct2(std::span<const double>(chunk_codes(ws, job.chunk)));
    const std::vector<double> yo =
        dct2(std::span<const double>(chunk_codes(wo, job.chunk)));
    for (const auto& [local, bit_index] : job.slots) {
      const double delta = ys[static_cast<size_t>(local)] -
                           yo[static_cast<size_t>(local)];
      const double expected =
          record.epsilon * static_cast<double>(layer.bits[bit_index]);
      const bool survived = std::fabs(delta) >= 0.5 * std::fabs(expected) &&
                            ((delta > 0) == (expected > 0));
      if (survived) ++matched[j];
      ++total[j];
    }
  });
  SpecMarkReport report;
  for (size_t j = 0; j < jobs.size(); ++j) {
    report.matched_bits += matched[j];
    report.total_bits += total[j];
  }
  return report;
}

// --- WatermarkScheme port ---------------------------------------------------

SchemeRecord SpecMarkScheme::wrap(SpecMarkRecord record) {
  return SchemeRecord::wrap("specmark", /*payload_version=*/1, std::move(record));
}

SchemeRecord SpecMarkScheme::derive(const QuantizedModel& original,
                                    const ActivationStats& /*stats*/,
                                    const WatermarkKey& key) const {
  return wrap(specmark_derive(original, key.seed, key.bits_per_layer));
}

SchemeRecord SpecMarkScheme::insert(QuantizedModel& model,
                                    const ActivationStats& /*stats*/,
                                    const WatermarkKey& key) const {
  return wrap(specmark_insert(model, key.seed, key.bits_per_layer));
}

ExtractionReport SpecMarkScheme::extract(const QuantizedModel& suspect,
                                         const QuantizedModel& original,
                                         const SchemeRecord& record) const {
  return specmark_extract(suspect, original, record.as<SpecMarkRecord>());
}

int64_t SpecMarkScheme::total_bits(const SchemeRecord& record) const {
  return record.as<SpecMarkRecord>().total_bits();
}

bool SpecMarkScheme::rederives(const SchemeRecord& filed,
                               const QuantizedModel& original,
                               const ActivationStats& /*stats*/,
                               PlacementMemo* /*memo*/) const {
  const SpecMarkRecord& record = filed.as<SpecMarkRecord>();
  const SpecMarkRecord derived =
      specmark_derive(original, record.seed, record.bits_per_layer,
                      record.epsilon, record.highfreq_fraction);
  return placements_equal(derived, record);
}

void SpecMarkScheme::save_payload(BinaryWriter& w, const SchemeRecord& record) const {
  record.as<SpecMarkRecord>().save(w);
}

SchemeRecord SpecMarkScheme::load_payload(BinaryReader& r,
                                          uint32_t stored_version) const {
  if (stored_version != payload_version()) {
    throw SerializeError("specmark record payload version " +
                         std::to_string(stored_version) + " unsupported (want " +
                         std::to_string(payload_version()) + ")");
  }
  return wrap(SpecMarkRecord::load(r));
}

}  // namespace emmark
