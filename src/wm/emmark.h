// EmMark: the paper's core contribution.
//
// Watermark insertion (Section 4.1):
//   1. Score every quantized weight W_i of every quantization layer:
//        S = alpha * S_q + beta * S_r                      (Eq. 2)
//        S_q = |b / W_i|                                   (Eq. 3)
//        S_r = |max(A_f) / (A_f_i - min(A_f))|             (Eq. 4)
//      where A_f_i is the full-precision activation magnitude of the
//      weight's input channel. Weights at the min/max quantization level
//      (and zero-valued weights) score infinity -- never selected, so a
//      +-1 insertion can never clip or dominate.
//   2. Keep the |B_c| smallest-scoring weights per layer as candidates,
//      pick bits_per_layer of them uniformly with secret seed d, and add
//      the signature bit:  W'[L_i] = W[L_i] + b_i          (Eq. 5)
//
// Watermark extraction (Section 4.2): re-derive L from (seed, original W,
// A_f, alpha, beta), compute dW = W'[L] - W[L] (Eq. 6) and report
// WER = 100 * |matches| / |B| (Eq. 7). Watermarking strength follows the
// Rademacher tail bound (Eq. 8), exposed via strength_log10().
//
// The one public entry point is EmMarkScheme behind the WatermarkScheme
// registry ("emmark"); the former EmMark static class was retired after the
// scheme API landed. Two algorithm primitives stay exported because other
// payload-sharing code (RandomWM, the ablation benches, white-box tests)
// builds on them: score_layer (Eq. 2-4) and extract_recorded_bits (Eq. 6/7
// over an explicit WatermarkRecord).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "quant/calib.h"
#include "quant/qmodel.h"
#include "wm/scheme.h"
#include "wm/signature.h"

namespace emmark {

/// Watermark placement for one quantization layer.
struct LayerWatermark {
  std::string layer_name;
  std::vector<int64_t> locations;  // flat indices (row * cols + col)
  std::vector<int8_t> bits;        // +-1 signature bits, aligned with locations
};

/// Everything the owner retains: the key plus the derived placement
/// (re-derivable, stored for convenience and audit).
struct WatermarkRecord {
  WatermarkKey key;
  std::vector<LayerWatermark> layers;

  int64_t total_bits() const;
  void save(BinaryWriter& w) const;
  static WatermarkRecord load(BinaryReader& r);
};

/// True when both records carry identical placements and signature bits --
/// the arbiter's tamper-evidence comparison, shared by every scheme whose
/// payload is a WatermarkRecord.
bool placements_equal(const WatermarkRecord& a, const WatermarkRecord& b);

/// rederives() of every WatermarkRecord-payload scheme: `scheme` derives
/// the placement from the key `filed` carries (through `memo` when one is
/// given), and the result must equal the filed placement.
bool record_rederives(const WatermarkScheme& scheme, const SchemeRecord& filed,
                      const QuantizedModel& original, const ActivationStats& stats,
                      PlacementMemo* memo);

/// Eq. 2-4 scores for one layer; +inf marks excluded weights. `act` is the
/// layer's per-input-channel full-precision activation magnitude. Rows are
/// scored in parallel on the active pool with bit-identical results at any
/// thread count.
std::vector<double> score_layer(const QuantizedTensor& weights,
                                const std::vector<float>& act, double alpha,
                                double beta);

/// Eq. 6/7 delta comparison of an explicit recorded placement against
/// (suspect, original). Record contents are treated as untrusted input
/// (records reach this path from disk); malformed shapes/indices throw
/// std::invalid_argument. Shared by every WatermarkRecord-payload scheme.
ExtractionReport extract_recorded_bits(const QuantizedModel& suspect,
                                       const QuantizedModel& original,
                                       const WatermarkRecord& record);

/// EmMark behind the unified WatermarkScheme interface (registry key
/// "emmark"). The payload is a WatermarkRecord.
class EmMarkScheme final : public WatermarkScheme {
 public:
  std::string name() const override { return "emmark"; }
  uint32_t payload_version() const override { return 1; }

  /// Wraps a native record in a scheme-tagged SchemeRecord.
  static SchemeRecord wrap(WatermarkRecord record);

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
