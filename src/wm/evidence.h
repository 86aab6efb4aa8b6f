// Ownership evidence bundle: everything a proprietor files away at
// deployment time, in one serializable artifact with integrity digests.
//
// The paper's extraction needs four retained inputs (seed/coefficients,
// original quantized weights, full-precision activations, signature). This
// bundle packages the scheme-tagged record together with FNV-1a digests of
// the original model's codes and the activation statistics, so an arbiter
// can verify that the artifacts presented at dispute time are the ones the
// evidence was created from. Verification is scheme-agnostic: the record's
// scheme tag resolves the extractor through the WatermarkRegistry.
//
// Everything evidence needs from the original side besides the models --
// the two digests and the re-derived placement -- depends only on the
// original and its stats, so OriginalFacts computes it once per original.
// The serving path passes the facts ModelStore computed when it built the
// handle; the overloads without facts hash on the spot and share nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "quant/calib.h"
#include "quant/qmodel.h"
#include "wm/scheme.h"

namespace emmark {

/// 64-bit FNV-1a over arbitrary bytes (content fingerprinting, not crypto;
/// a production deployment would swap in SHA-256 here).
uint64_t fnv1a64(const void* data, size_t size, uint64_t seed = 0xcbf29ce484222325ull);

/// Digest of every layer's integer codes (order-sensitive).
uint64_t digest_model_codes(const QuantizedModel& model);

/// Digest of the per-layer activation statistics.
uint64_t digest_stats(const ActivationStats& stats);

/// What an arbiter needs to know about one original beyond the model
/// itself, all fixed for as long as the original and its stats are: their
/// digests, and a memo of the placements derived from them.
struct OriginalFacts {
  uint64_t original_digest = 0;  // digest_model_codes(original)
  uint64_t stats_digest = 0;     // digest_stats(stats)
  /// Shared by every copy of these facts; never null once of() built them.
  std::shared_ptr<PlacementMemo> placements;

  /// Hashes `original` and `stats`, and starts an empty memo for them.
  static OriginalFacts of(const QuantizedModel& original, const ActivationStats& stats);
};

struct OwnershipEvidence {
  std::string owner;
  SchemeRecord record;           // scheme tag + retained placement/signature
  uint64_t original_digest = 0;  // digest of the pre-watermark model codes
  uint64_t stats_digest = 0;     // digest of the FP activation stats
  uint64_t created_unix = 0;     // caller-supplied timestamp

  const std::string& scheme() const { return record.scheme(); }

  /// Builds evidence after any registered scheme's insert(), filing the
  /// digests of `original` (the pre-watermark model and its stats).
  static OwnershipEvidence create(std::string owner, SchemeRecord record,
                                  const OriginalFacts& original,
                                  uint64_t created_unix);
  /// Same, hashing the original and its stats first.
  static OwnershipEvidence create(std::string owner, SchemeRecord record,
                                  const QuantizedModel& original,
                                  const ActivationStats& stats,
                                  uint64_t created_unix);

  /// Checks that the presented artifacts match the filed digests, that the
  /// record re-derives from them (tamper evidence), and that the signature
  /// extracts from `suspect`. Returns a human-readable failure reason via
  /// `why` when the verdict is false. `facts` must be those of `original`
  /// and `stats`: their digests stand in for hashing the presented pair,
  /// and their memo for re-running a derivation an earlier verify already
  /// ran. The re-derived placement is compared with the filed one on every
  /// call, so verdicts and reasons do not depend on the memo.
  bool verify(const QuantizedModel& suspect, const QuantizedModel& original,
              const ActivationStats& stats, const OriginalFacts& facts,
              double min_wer_pct, std::string* why = nullptr) const;
  /// Same, computing the facts of `original` and `stats` first.
  bool verify(const QuantizedModel& suspect, const QuantizedModel& original,
              const ActivationStats& stats, double min_wer_pct,
              std::string* why = nullptr) const;

  void save(const std::string& path) const;
  static OwnershipEvidence load(const std::string& path);
};

}  // namespace emmark
