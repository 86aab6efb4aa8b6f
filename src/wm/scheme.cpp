#include "wm/scheme.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/mathx.h"
#include "wm/emmark.h"
#include "wm/randomwm.h"
#include "wm/specmark.h"

namespace emmark {
namespace {

// Standalone SchemeRecord archives: container version 1 wraps
// {scheme name, payload version, scheme-serialized payload}.
constexpr const char* kRecordMagic = "EMMSREC";
constexpr uint32_t kRecordContainerVersion = 1;

/// PlacementMemo key: the scheme name, then every key field's bytes. The
/// fields have a fixed width, so the name needs no delimiter.
std::string memo_key(const std::string& scheme, const WatermarkKey& key) {
  std::string out = scheme;
  auto append = [&out](const auto& field) {
    char bytes[sizeof(field)];
    std::memcpy(bytes, &field, sizeof(field));
    out.append(bytes, sizeof(field));
  };
  append(key.seed);
  append(key.alpha);
  append(key.beta);
  append(key.bits_per_layer);
  append(key.candidate_ratio);
  append(key.signature_seed);
  return out;
}

}  // namespace

double ExtractionReport::strength_log10() const {
  if (total_bits <= 0) return 0.0;
  return log10_binomial_tail_half(total_bits, matched_bits);
}

ExtractionReport WatermarkScheme::extract_derived(const QuantizedModel& suspect,
                                                  const QuantizedModel& original,
                                                  const ActivationStats& stats,
                                                  const WatermarkKey& key) const {
  return extract(suspect, original, derive(original, stats, key));
}

void SchemeRecord::save(BinaryWriter& w) const {
  if (empty()) throw std::logic_error("SchemeRecord::save: empty record");
  const auto scheme = WatermarkRegistry::create(scheme_);
  w.write_string(scheme_);
  w.write_u32(payload_version_);
  scheme->save_payload(w, *this);
}

SchemeRecord SchemeRecord::load(BinaryReader& r) {
  const std::string name = r.read_string();
  if (!WatermarkRegistry::instance().contains(name)) {
    throw SerializeError("record carries unknown watermark scheme: \"" + name + "\"");
  }
  const auto scheme = WatermarkRegistry::create(name);
  const uint32_t stored_version = r.read_u32();
  return scheme->load_payload(r, stored_version);
}

void SchemeRecord::save(const std::string& path) const {
  // Rejected before the writer truncates `path`, so a refused save leaves
  // whatever record the path held intact.
  if (empty()) throw std::logic_error("SchemeRecord::save: empty record");
  BinaryWriter writer(path, kRecordMagic, kRecordContainerVersion);
  save(writer);
  writer.close();
}

SchemeRecord SchemeRecord::load(const std::string& path) {
  BinaryReader reader(path, kRecordMagic, kRecordContainerVersion);
  return load(reader);
}

SchemeRecord PlacementMemo::derive(const WatermarkScheme& scheme,
                                   const QuantizedModel& original,
                                   const ActivationStats& stats,
                                   const WatermarkKey& key) {
  std::string id = memo_key(scheme.name(), key);
  auto find = [&] {
    return std::find_if(entries_.begin(), entries_.end(),
                        [&](const auto& entry) { return entry.first == id; });
  };
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = find();
    if (it != entries_.end()) {
      ++hits_;
      entries_.splice(entries_.begin(), entries_, it);
      return it->second;
    }
    ++misses_;
  }
  SchemeRecord derived = scheme.derive(original, stats, key);
  std::lock_guard<std::mutex> lock(mutex_);
  // A concurrent miss on the same key may have landed first; it derived
  // the same placement, so one entry serves both.
  if (find() == entries_.end()) {
    entries_.emplace_front(std::move(id), derived);
    if (entries_.size() > kCapacity) entries_.pop_back();
  }
  return derived;
}

PlacementMemo::Counts PlacementMemo::counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Counts{entries_.size(), hits_, misses_};
}

WatermarkRegistry::WatermarkRegistry() {
  factories_["emmark"] = [] {
    return std::unique_ptr<WatermarkScheme>(std::make_unique<EmMarkScheme>());
  };
  factories_["specmark"] = [] {
    return std::unique_ptr<WatermarkScheme>(std::make_unique<SpecMarkScheme>());
  };
  factories_["randomwm"] = [] {
    return std::unique_ptr<WatermarkScheme>(std::make_unique<RandomWMScheme>());
  };
}

WatermarkRegistry& WatermarkRegistry::instance() {
  static WatermarkRegistry registry;
  return registry;
}

void WatermarkRegistry::add(const std::string& name, Factory factory) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (factories_.count(name) > 0) {
    throw std::invalid_argument("watermark scheme already registered: " + name);
  }
  factories_[name] = std::move(factory);
}

bool WatermarkRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return factories_.count(name) > 0;
}

std::vector<std::string> WatermarkRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

std::unique_ptr<WatermarkScheme> WatermarkRegistry::create(const std::string& name) {
  WatermarkRegistry& registry = instance();
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(registry.mutex_);
    const auto it = registry.factories_.find(name);
    if (it != registry.factories_.end()) factory = it->second;
  }
  if (!factory) {
    std::ostringstream message;
    message << "unknown watermark scheme: \"" << name << "\" (registered:";
    for (const auto& known : registry.names()) message << " " << known;
    message << ")";
    throw std::out_of_range(message.str());
  }
  return factory();
}

}  // namespace emmark
