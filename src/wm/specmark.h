// SpecMark baseline (Chen et al., INTERSPEECH'20), adapted to quantized
// weights the way the paper's Table 1 does.
//
// SpecMark embeds signatures as small additive perturbations on
// high-frequency DCT coefficients of the weight vector. On full-precision
// models this works; on an integer grid the perturbed weights must be
// rounded back to codes, which erases perturbations far below one
// quantization step -- the mechanism behind SpecMark's 0% WER row.
//
// Public surface: SpecMarkScheme behind the WatermarkScheme registry
// ("specmark"), plus the parameterized algorithm functions below. The
// scheme port maps WatermarkKey onto the defaults; epsilon and the
// high-frequency fraction have no key analogue, so callers studying the
// rounding mechanism at non-default magnitudes (e.g. multi-step epsilon)
// use specmark_insert/extract directly. The former SpecMark static class
// was retired with the rest of the legacy scheme entry points.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "quant/qmodel.h"
#include "wm/scheme.h"

namespace emmark {

/// Layers are DCT-transformed in chunks of this many codes; keeps the
/// direct O(n^2) transform fast on 10^4+-element layers while preserving
/// the scheme's mechanics (the original operates on full-precision
/// parameter vectors of similar magnitudes).
constexpr int64_t kSpecMarkChunkSize = 2048;

struct SpecMarkLayer {
  std::string layer_name;
  /// Global coefficient index = chunk_index * chunk_size + local index.
  /// Layers are transformed in fixed-size chunks (kSpecMarkChunkSize) so
  /// the O(n^2) direct DCT stays tractable on large layers; the embedding
  /// is still a high-frequency spectral additive per chunk.
  std::vector<int64_t> coefficients;
  std::vector<int8_t> bits;
};

struct SpecMarkRecord {
  uint64_t seed = 0;
  double epsilon = 0.0;
  /// Embedding parameters retained so the placement re-derives exactly from
  /// the record alone (arbiter tamper check).
  int64_t bits_per_layer = 0;
  double highfreq_fraction = 0.25;
  std::vector<SpecMarkLayer> layers;

  int64_t total_bits() const;
  void save(BinaryWriter& w) const;
  static SpecMarkRecord load(BinaryReader& r);
};

/// SpecMark reports in the unified currency (strength_log10 applies to its
/// Rademacher signature bits exactly as it does to EmMark's).
using SpecMarkReport = ExtractionReport;

/// True when both records carry identical coefficient placements and bits
/// (the spectral analogue of the WatermarkRecord overload in emmark.h).
bool placements_equal(const SpecMarkRecord& a, const SpecMarkRecord& b);

/// Derives the seeded coefficient placement without touching the model;
/// the selection depends only on layer geometry (chunk layout), never on
/// weight values.
SpecMarkRecord specmark_derive(const QuantizedModel& model, uint64_t seed,
                               int64_t bits_per_layer, double epsilon = 0.05,
                               double highfreq_fraction = 0.25);

/// Embeds epsilon*b on `bits_per_layer` seeded coefficients in the top
/// `highfreq_fraction` of the spectrum, then re-rounds to the integer
/// grid (the step that defeats the scheme on quantized models). Chunks are
/// transformed in parallel on the active pool; each chunk's DCT/IDCT is
/// independent, so the stamped codes are bit-identical at any thread count.
SpecMarkRecord specmark_insert(QuantizedModel& model, uint64_t seed,
                               int64_t bits_per_layer, double epsilon = 0.05,
                               double highfreq_fraction = 0.25);

/// A bit survives if the suspect-vs-original DCT delta at its coefficient
/// has the right sign and at least half the embedded magnitude. Chunk
/// transforms run in parallel with thread-count-invariant reports.
SpecMarkReport specmark_extract(const QuantizedModel& suspect,
                                const QuantizedModel& original,
                                const SpecMarkRecord& record);

/// SpecMark behind the unified WatermarkScheme interface (registry key
/// "specmark"). WatermarkKey mapping: `seed` seeds the coefficient
/// selection, `bits_per_layer` is the signature length; the perturbation
/// magnitude stays at the scheme default (alpha/beta/candidate_ratio have
/// no spectral analogue and are ignored). Its placement reads only layer
/// geometry, so rederives() re-derives it without a PlacementMemo.
class SpecMarkScheme final : public WatermarkScheme {
 public:
  std::string name() const override { return "specmark"; }
  uint32_t payload_version() const override { return 1; }

  static SchemeRecord wrap(SpecMarkRecord record);

  SchemeRecord derive(const QuantizedModel& original, const ActivationStats& stats,
                      const WatermarkKey& key) const override;
  SchemeRecord insert(QuantizedModel& model, const ActivationStats& stats,
                      const WatermarkKey& key) const override;
  ExtractionReport extract(const QuantizedModel& suspect,
                           const QuantizedModel& original,
                           const SchemeRecord& record) const override;
  int64_t total_bits(const SchemeRecord& record) const override;
  bool rederives(const SchemeRecord& filed, const QuantizedModel& original,
                 const ActivationStats& stats, PlacementMemo* memo) const override;
  void save_payload(BinaryWriter& w, const SchemeRecord& record) const override;
  SchemeRecord load_payload(BinaryReader& r, uint32_t stored_version) const override;
};

}  // namespace emmark
