#include "wm/fingerprint.h"

#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "util/threadpool.h"

namespace emmark {

namespace {
constexpr const char* kSetMagic = "EMMFPSET";
constexpr uint32_t kSetVersion = 1;
}  // namespace

void FingerprintSet::save(const std::string& path) const {
  BinaryWriter writer(path, kSetMagic, kSetVersion);
  writer.write_string(scheme);
  writer.write_u64(devices.size());
  for (const DeviceFingerprint& fp : devices) {
    writer.write_string(fp.device_id);
    fp.key.save(writer);
    fp.record.save(writer);
  }
  writer.close();
}

FingerprintSet FingerprintSet::load(const std::string& path) {
  BinaryReader reader(path, kSetMagic, kSetVersion);
  FingerprintSet set;
  set.scheme = reader.read_string();
  // Each device holds at least its id length, the six key fields and its
  // record's scheme-name length.
  const uint64_t count = reader.read_count(8 * sizeof(uint64_t));
  set.devices.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    DeviceFingerprint fp;
    fp.device_id = reader.read_string();
    fp.key = WatermarkKey::load(reader);
    fp.record = SchemeRecord::load(reader);
    set.devices.push_back(std::move(fp));
  }
  return set;
}

WatermarkKey Fingerprinter::device_key(const WatermarkKey& base,
                                       const std::string& device_id) {
  // Stable, collision-resistant-enough derivation for fleet sizes; the
  // device id acts as a public salt on the owner's secret base key.
  const uint64_t salt = std::hash<std::string>{}(device_id);
  WatermarkKey key = base;
  key.seed = base.seed ^ (salt * 0x9e3779b97f4a7c15ull + 1);
  key.signature_seed = base.signature_seed ^ (salt * 0xbf58476d1ce4e5b9ull + 7);
  return key;
}

FingerprintSet Fingerprinter::enroll(const std::string& scheme_name,
                                     const QuantizedModel& original,
                                     const ActivationStats& stats,
                                     const WatermarkKey& base,
                                     const std::vector<std::string>& device_ids,
                                     std::vector<QuantizedModel>& out_models) {
  if (device_ids.empty()) throw std::invalid_argument("enroll: no device ids");
  // Resolve the scheme up front so an unknown name fails before any work
  // (and each worker gets its own stateless instance).
  (void)WatermarkRegistry::create(scheme_name);
  // Devices are enrolled concurrently: each stamps its own copy of the
  // original into a pre-sized slot, so fleet order matches device_ids and
  // results are identical to the serial walk.
  FingerprintSet set;
  set.scheme = scheme_name;
  set.devices.resize(device_ids.size());
  std::vector<std::unique_ptr<QuantizedModel>> models(device_ids.size());
  parallel_for_index(device_ids.size(), [&](size_t i) {
    // The deep copy of the original is the dominant per-device cost, so it
    // happens on the worker too, not up front on the caller.
    models[i] = std::make_unique<QuantizedModel>(original);
    DeviceFingerprint fp;
    fp.device_id = device_ids[i];
    fp.key = device_key(base, device_ids[i]);
    fp.record = WatermarkRegistry::create(scheme_name)->insert(*models[i], stats,
                                                               fp.key);
    set.devices[i] = std::move(fp);
  });
  out_models.clear();
  out_models.reserve(device_ids.size());
  for (auto& model : models) out_models.push_back(std::move(*model));
  return set;
}

TraceResult Fingerprinter::trace(const QuantizedModel& suspect,
                                 const QuantizedModel& original,
                                 const FingerprintSet& set,
                                 double min_wer_pct) {
  TraceResult result;
  // Per-device extractions run in parallel into pre-sized slots; the
  // best/runner-up scan stays serial in device order so tie-breaking is
  // unchanged from the serial implementation.
  std::vector<ExtractionReport> reports(set.devices.size());
  parallel_for_index(set.devices.size(), [&](size_t i) {
    reports[i] = WatermarkRegistry::create(set.scheme)
                     ->extract(suspect, original, set.devices[i].record);
  });
  double best = -1.0;
  double second = -1.0;
  double best_strength = 0.0;
  std::string best_id;
  for (size_t i = 0; i < set.devices.size(); ++i) {
    const DeviceFingerprint& fp = set.devices[i];
    const ExtractionReport& report = reports[i];
    const double wer = report.wer_pct();
    if (wer > best) {
      second = best;
      best = wer;
      best_id = fp.device_id;
      best_strength = report.strength_log10();
    } else if (wer > second) {
      second = wer;
    }
  }
  result.wer_pct = best < 0 ? 0.0 : best;
  result.runner_up_wer_pct = second < 0 ? 0.0 : second;
  result.strength_log10 = best_strength;
  if (best >= min_wer_pct) result.device_id = best_id;
  return result;
}

}  // namespace emmark
