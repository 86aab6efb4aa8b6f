// RandomWM baseline (paper Table 1): signature bits are inserted at
// uniformly random weight positions -- no sensitivity scoring, no saliency.
//
// One refinement keeps the baseline honest: saturated codes are skipped so
// that +-1 insertions never clip (clipped bits would be unextractable and
// RandomWM reports 100% WER in the paper). Everything else -- including the
// tendency to land on tiny or zero-valued weights whose one-step change is
// large relative to their magnitude -- is left as-is, which is exactly what
// degrades INT4 quality in Table 1.
//
// The only public entry point is RandomWMScheme behind the WatermarkScheme
// registry ("randomwm"); the former RandomWM static class was retired with
// the rest of the legacy scheme entry points. The WatermarkKey covers the
// full parameter space (seed, bits_per_layer, signature_seed), and
// extraction shares extract_recorded_bits with EmMark.
#pragma once

#include "quant/qmodel.h"
#include "wm/emmark.h"
#include "wm/scheme.h"

namespace emmark {

/// RandomWM behind the unified WatermarkScheme interface (registry key
/// "randomwm"). WatermarkKey mapping: `seed` drives position selection,
/// `signature_seed` the Rademacher bits; alpha/beta/candidate_ratio are
/// ignored (no scoring). Payload is the shared WatermarkRecord.
class RandomWMScheme final : public WatermarkScheme {
 public:
  std::string name() const override { return "randomwm"; }
  uint32_t payload_version() const override { return 1; }

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
