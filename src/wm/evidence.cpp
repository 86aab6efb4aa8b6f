#include "wm/evidence.h"

#include "wm/emmark.h"

namespace emmark {

uint64_t fnv1a64(const void* data, size_t size, uint64_t seed) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint64_t hash = seed;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

uint64_t digest_model_codes(const QuantizedModel& model) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (int64_t i = 0; i < model.num_layers(); ++i) {
    const auto& layer = model.layer(i);
    hash = fnv1a64(layer.name.data(), layer.name.size(), hash);
    const auto& codes = layer.weights.codes();
    hash = fnv1a64(codes.data(), codes.size(), hash);
  }
  return hash;
}

uint64_t digest_stats(const ActivationStats& stats) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const auto& layer : stats.layers) {
    hash = fnv1a64(layer.name.data(), layer.name.size(), hash);
    hash = fnv1a64(layer.abs_mean.data(), layer.abs_mean.size() * sizeof(float), hash);
  }
  return hash;
}

OriginalFacts OriginalFacts::of(const QuantizedModel& original,
                                const ActivationStats& stats) {
  return OriginalFacts{digest_model_codes(original), digest_stats(stats),
                       std::make_shared<PlacementMemo>()};
}

OwnershipEvidence OwnershipEvidence::create(std::string owner, SchemeRecord record,
                                            const OriginalFacts& original,
                                            uint64_t created_unix) {
  if (record.empty()) {
    throw std::invalid_argument("OwnershipEvidence::create: empty record");
  }
  OwnershipEvidence evidence;
  evidence.owner = std::move(owner);
  evidence.record = std::move(record);
  evidence.original_digest = original.original_digest;
  evidence.stats_digest = original.stats_digest;
  evidence.created_unix = created_unix;
  return evidence;
}

OwnershipEvidence OwnershipEvidence::create(std::string owner, SchemeRecord record,
                                            const QuantizedModel& original,
                                            const ActivationStats& stats,
                                            uint64_t created_unix) {
  return create(std::move(owner), std::move(record),
                OriginalFacts::of(original, stats), created_unix);
}

bool OwnershipEvidence::verify(const QuantizedModel& suspect,
                               const QuantizedModel& original,
                               const ActivationStats& stats, double min_wer_pct,
                               std::string* why) const {
  return verify(suspect, original, stats, OriginalFacts::of(original, stats),
                min_wer_pct, why);
}

bool OwnershipEvidence::verify(const QuantizedModel& suspect,
                               const QuantizedModel& original,
                               const ActivationStats& stats,
                               const OriginalFacts& facts, double min_wer_pct,
                               std::string* why) const {
  auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (record.empty()) return fail("evidence holds no record");
  if (facts.original_digest != original_digest) {
    return fail("presented original model does not match the filed digest");
  }
  if (facts.stats_digest != stats_digest) {
    return fail("presented activation stats do not match the filed digest");
  }
  std::unique_ptr<WatermarkScheme> scheme;
  try {
    scheme = WatermarkRegistry::create(record.scheme());
  } catch (const std::out_of_range& e) {
    return fail(e.what());
  }
  // Re-derive the placement from the presented artifacts; it must equal the
  // filed record (tamper evidence on the record itself).
  if (!scheme->rederives(record, original, stats, facts.placements.get())) {
    return fail("filed record does not re-derive from the presented artifacts");
  }
  const ExtractionReport report = scheme->extract(suspect, original, record);
  if (report.wer_pct() < min_wer_pct) {
    return fail("signature does not extract from the suspect model");
  }
  if (why != nullptr) *why = "verified";
  return true;
}

namespace {
constexpr const char* kEvidenceMagic = "EMMEVID";
// v1 embedded a bare EmMark WatermarkRecord; v2 embeds a scheme-tagged
// SchemeRecord. Both load (the reader accepts the version range).
constexpr uint32_t kEvidenceVersionLegacy = 1;
constexpr uint32_t kEvidenceVersion = 2;
}  // namespace

void OwnershipEvidence::save(const std::string& path) const {
  BinaryWriter writer(path, kEvidenceMagic, kEvidenceVersion);
  writer.write_string(owner);
  record.save(writer);
  writer.write_u64(original_digest);
  writer.write_u64(stats_digest);
  writer.write_u64(created_unix);
  writer.close();
}

OwnershipEvidence OwnershipEvidence::load(const std::string& path) {
  BinaryReader reader(path, kEvidenceMagic, kEvidenceVersionLegacy, kEvidenceVersion);
  OwnershipEvidence evidence;
  evidence.owner = reader.read_string();
  evidence.record = reader.version() == kEvidenceVersionLegacy
                        ? EmMarkScheme::wrap(WatermarkRecord::load(reader))
                        : SchemeRecord::load(reader);
  evidence.original_digest = reader.read_u64();
  evidence.stats_digest = reader.read_u64();
  evidence.created_unix = reader.read_u64();
  return evidence;
}

}  // namespace emmark
