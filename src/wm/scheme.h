// Unified watermarking-scheme API.
//
// The paper evaluates three insertion strategies (EmMark plus the SpecMark
// and RandomWM baselines); downstream machinery -- ownership evidence,
// fleet fingerprinting, the batched WatermarkEngine service and the
// emmark_cli front-door -- should not care which one produced a record.
// This header provides the polymorphic seam:
//
//   * ExtractionReport  -- the one verification currency (WER% + Eq. 8
//     strength) every scheme reports in.
//   * SchemeRecord      -- a scheme-tagged, versioned, type-erased record
//     (the owner's retained artifact), serializable to disk through the
//     scheme that created it.
//   * WatermarkScheme   -- derive/insert/extract/save/load over a common
//     WatermarkKey, implemented by each scheme port.
//   * WatermarkRegistry -- string-keyed factory ("emmark" | "specmark" |
//     "randomwm" built in); new schemes register in one line.
//   * PlacementMemo     -- placements derived from one immutable original,
//     shared by the arbiter requests checked against it.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "quant/calib.h"
#include "quant/qmodel.h"
#include "util/serialize.h"
#include "wm/signature.h"

namespace emmark {

/// Result of comparing a suspect model against the original: the unified
/// verification currency of every scheme.
struct ExtractionReport {
  int64_t matched_bits = 0;
  int64_t total_bits = 0;

  double wer_pct() const {
    return total_bits > 0
               ? 100.0 * static_cast<double>(matched_bits) / static_cast<double>(total_bits)
               : 0.0;
  }
  /// log10 of the probability a chance model matches >= matched_bits of
  /// total_bits (Eq. 8); -inf-ish large negative numbers mean strong proof.
  double strength_log10() const;
};

/// A scheme-tagged ownership record: what the owner retains after insert().
///
/// The payload is type-erased (each scheme stores its native record type;
/// EmMark/RandomWM keep a WatermarkRecord, SpecMark a SpecMarkRecord) and
/// immutable once wrapped -- copies share the payload. Disk round-trips go
/// through the registry, so loading rejects unknown schemes and payload
/// versions the owning scheme does not understand.
class SchemeRecord {
 public:
  SchemeRecord() = default;
  SchemeRecord(std::string scheme, uint32_t payload_version,
               std::shared_ptr<const void> payload)
      : scheme_(std::move(scheme)),
        payload_version_(payload_version),
        payload_(std::move(payload)) {}

  /// Convenience wrapper taking the payload by value.
  template <typename T>
  static SchemeRecord wrap(std::string scheme, uint32_t payload_version, T payload) {
    return SchemeRecord(std::move(scheme), payload_version,
                        std::make_shared<const T>(std::move(payload)));
  }

  const std::string& scheme() const { return scheme_; }
  uint32_t payload_version() const { return payload_version_; }
  bool empty() const { return payload_ == nullptr; }

  /// Typed payload access. The caller names the scheme's record type; the
  /// scheme tag is the source of truth for which T is valid.
  template <typename T>
  const T& as() const {
    if (payload_ == nullptr) throw std::logic_error("SchemeRecord: empty payload");
    return *static_cast<const T*>(payload_.get());
  }

  /// Standalone record archive ("EMMSREC" container). The payload bytes are
  /// written and parsed by the owning scheme via the registry.
  void save(const std::string& path) const;
  static SchemeRecord load(const std::string& path);

  /// Embedded form for composite archives (evidence bundles, fingerprint
  /// sets): scheme tag + payload version + scheme-serialized payload.
  void save(BinaryWriter& w) const;
  static SchemeRecord load(BinaryReader& r);

 private:
  std::string scheme_;
  uint32_t payload_version_ = 0;
  std::shared_ptr<const void> payload_;
};

class PlacementMemo;

/// Abstract watermarking scheme. Implementations are stateless; all secrets
/// travel in the WatermarkKey and all derived state in the SchemeRecord.
class WatermarkScheme {
 public:
  virtual ~WatermarkScheme() = default;

  /// Registry key, e.g. "emmark".
  virtual std::string name() const = 0;
  /// Payload format version written by save_payload (bumped on layout change).
  virtual uint32_t payload_version() const = 0;

  /// Deterministically derives the placement/record for `original` (the
  /// pre-watermark model) without mutating it.
  virtual SchemeRecord derive(const QuantizedModel& original,
                              const ActivationStats& stats,
                              const WatermarkKey& key) const = 0;

  /// Inserts the watermark into `model` (in place) and returns the record.
  virtual SchemeRecord insert(QuantizedModel& model, const ActivationStats& stats,
                              const WatermarkKey& key) const = 0;

  /// Extracts the signature of `record` by comparing suspect vs. original.
  virtual ExtractionReport extract(const QuantizedModel& suspect,
                                   const QuantizedModel& original,
                                   const SchemeRecord& record) const = 0;

  /// Full re-derivation extraction (paper Section 4.2): derives the record
  /// from (original, stats, key) and extracts it from `suspect` in one
  /// call. This is what an owner holding only the key runs; callers that
  /// retain the record use extract() directly.
  ExtractionReport extract_derived(const QuantizedModel& suspect,
                                   const QuantizedModel& original,
                                   const ActivationStats& stats,
                                   const WatermarkKey& key) const;

  /// Total signature bits held by `record`.
  virtual int64_t total_bits(const SchemeRecord& record) const = 0;

  /// True when `filed` re-derives bit-identically from the presented
  /// artifacts -- the tamper-evidence check arbiters run on records. A
  /// `memo`, which must belong to `original` and `stats`, may supply the
  /// derivation from an earlier call with the same inputs; the comparison
  /// against `filed` runs on every call.
  virtual bool rederives(const SchemeRecord& filed, const QuantizedModel& original,
                         const ActivationStats& stats,
                         PlacementMemo* memo = nullptr) const = 0;

  /// Payload (de)serialization. `stored_version` is the version found in the
  /// archive; implementations throw SerializeError for versions they cannot
  /// read.
  virtual void save_payload(BinaryWriter& w, const SchemeRecord& record) const = 0;
  virtual SchemeRecord load_payload(BinaryReader& r, uint32_t stored_version) const = 0;
};

/// Placements derived from one immutable (original, stats) pair, kept for
/// the later requests checked against the same pair. A derivation is a pure
/// function of (scheme, original, stats, key), so a memoized placement is
/// the one a fresh derive() returns. Entries are keyed by the scheme name
/// plus every WatermarkKey field; past kCapacity the least recently used
/// one is dropped. Thread-safe. A memo serves exactly one pair: ModelStore
/// gives each original it builds a fresh one (OriginalFacts in
/// wm/evidence.h), which dies with the last copy of that handle.
class PlacementMemo {
 public:
  static constexpr size_t kCapacity = 8;

  struct Counts {
    size_t size = 0;      // placements held
    uint64_t hits = 0;    // derive() calls answered from the memo
    uint64_t misses = 0;  // derive() calls that ran the scheme
  };

  /// scheme.derive(original, stats, key), run at most once per (scheme,
  /// key) while that placement stays memoized. The derivation runs outside
  /// the lock; one that throws memoizes nothing.
  SchemeRecord derive(const WatermarkScheme& scheme, const QuantizedModel& original,
                      const ActivationStats& stats, const WatermarkKey& key);

  Counts counts() const;

 private:
  mutable std::mutex mutex_;
  std::list<std::pair<std::string, SchemeRecord>> entries_;  // most recent first
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// String-keyed scheme factory. The three in-repo schemes are registered at
/// construction; external schemes add themselves with one line:
///
///   WatermarkRegistry::instance().add("myscheme", [] {
///     return std::make_unique<MyScheme>(); });
class WatermarkRegistry {
 public:
  using Factory = std::function<std::unique_ptr<WatermarkScheme>()>;

  static WatermarkRegistry& instance();

  /// Registers a factory; throws std::invalid_argument on duplicates.
  void add(const std::string& name, Factory factory);
  bool contains(const std::string& name) const;
  /// Registered scheme names, sorted.
  std::vector<std::string> names() const;

  /// Instantiates a registered scheme; throws std::out_of_range on unknown
  /// names (message lists what is registered).
  static std::unique_ptr<WatermarkScheme> create(const std::string& name);

 private:
  WatermarkRegistry();  // registers the built-in schemes

  mutable std::mutex mutex_;
  std::map<std::string, Factory> factories_;
};

}  // namespace emmark
