// Fleet fingerprinting (extension): per-device signatures + traitor tracing.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "attack/overwrite.h"
#include "wm/fingerprint.h"
#include "wm_fixture.h"

namespace emmark {
namespace {

using testfx::WmFixture;

const std::vector<std::string> kFleet{"device-a", "device-b", "device-c",
                                      "device-d", "device-e"};

struct FleetFixture {
  FleetFixture() : f() {
    WatermarkKey base;
    base.bits_per_layer = 10;
    set = Fingerprinter::enroll("emmark", *f.quantized, f.stats, base, kFleet,
                                models);
  }
  WmFixture f;
  FingerprintSet set;
  std::vector<QuantizedModel> models;
};

TEST(Fingerprint, DeviceKeysAreDistinct) {
  WatermarkKey base;
  const WatermarkKey a = Fingerprinter::device_key(base, "device-a");
  const WatermarkKey b = Fingerprinter::device_key(base, "device-b");
  EXPECT_NE(a.seed, b.seed);
  EXPECT_NE(a.signature_seed, b.signature_seed);
  // Derivation is stable.
  EXPECT_EQ(a.seed, Fingerprinter::device_key(base, "device-a").seed);
}

TEST(Fingerprint, EveryDeviceExtractsItsOwnPerfectly) {
  FleetFixture fx;
  const auto scheme = WatermarkRegistry::create(fx.set.scheme);
  for (size_t i = 0; i < kFleet.size(); ++i) {
    const ExtractionReport report = scheme->extract(
        fx.models[i], *fx.f.quantized, fx.set.devices[i].record);
    EXPECT_DOUBLE_EQ(report.wer_pct(), 100.0) << kFleet[i];
  }
}

TEST(Fingerprint, CrossDeviceExtractionIsNoise) {
  FleetFixture fx;
  const auto scheme = WatermarkRegistry::create(fx.set.scheme);
  for (size_t i = 0; i < kFleet.size(); ++i) {
    for (size_t j = 0; j < kFleet.size(); ++j) {
      if (i == j) continue;
      const ExtractionReport report = scheme->extract(
          fx.models[i], *fx.f.quantized, fx.set.devices[j].record);
      EXPECT_LT(report.wer_pct(), 40.0) << kFleet[i] << " vs " << kFleet[j];
    }
  }
}

TEST(Fingerprint, TraceIdentifiesTheLeakedDevice) {
  FleetFixture fx;
  for (size_t leaker = 0; leaker < kFleet.size(); ++leaker) {
    const TraceResult result =
        Fingerprinter::trace(fx.models[leaker], *fx.f.quantized, fx.set);
    EXPECT_EQ(result.device_id, kFleet[leaker]);
    EXPECT_DOUBLE_EQ(result.wer_pct, 100.0);
    EXPECT_LT(result.runner_up_wer_pct, 50.0);  // unambiguous separation
    EXPECT_LT(result.strength_log10, -10.0);
  }
}

TEST(Fingerprint, TraceSurvivesModerateAttack) {
  FleetFixture fx;
  QuantizedModel leaked = fx.models[2];  // device-c leaks, then scrubs
  OverwriteConfig attack;
  attack.per_layer = 60;
  overwrite_attack(leaked, attack);
  const TraceResult result = Fingerprinter::trace(leaked, *fx.f.quantized,
                                                  fx.set, /*min_wer_pct=*/70.0);
  EXPECT_EQ(result.device_id, "device-c");
  EXPECT_GT(result.wer_pct, result.runner_up_wer_pct + 20.0);
}

TEST(Fingerprint, CleanModelTracesToNobody) {
  FleetFixture fx;
  const TraceResult result =
      Fingerprinter::trace(*fx.f.quantized, *fx.f.quantized, fx.set);
  EXPECT_EQ(result.device_id, "");
  EXPECT_LT(result.wer_pct, 10.0);
}

TEST(Fingerprint, EnrollRejectsEmptyFleet) {
  WmFixture f;
  std::vector<QuantizedModel> models;
  WatermarkKey base;
  EXPECT_THROW(Fingerprinter::enroll("emmark", *f.quantized, f.stats, base, {},
                                     models),
               std::invalid_argument);
}

TEST(Fingerprint, EnrollRejectsUnknownScheme) {
  WmFixture f;
  std::vector<QuantizedModel> models;
  WatermarkKey base;
  EXPECT_THROW(Fingerprinter::enroll("no-such-scheme", *f.quantized, f.stats,
                                     base, kFleet, models),
               std::out_of_range);
}

TEST(Fingerprint, EnrollWithRandomWmSchemeTraces) {
  // Fleet machinery is scheme-generic: a RandomWM-stamped fleet traces the
  // same way an EmMark fleet does.
  WmFixture f;
  std::vector<QuantizedModel> models;
  WatermarkKey base;
  base.bits_per_layer = 10;
  const FingerprintSet set = Fingerprinter::enroll("randomwm", *f.quantized,
                                                   f.stats, base, kFleet, models);
  EXPECT_EQ(set.scheme, "randomwm");
  const TraceResult result =
      Fingerprinter::trace(models[1], *f.quantized, set);
  EXPECT_EQ(result.device_id, kFleet[1]);
  EXPECT_DOUBLE_EQ(result.wer_pct, 100.0);
}

TEST(Fingerprint, SetSurvivesDiskRoundTrip) {
  FleetFixture fx;
  const std::string path =
      (std::filesystem::temp_directory_path() / "emmark_fpset.bin").string();
  fx.set.save(path);
  const FingerprintSet back = FingerprintSet::load(path);
  ASSERT_EQ(back.devices.size(), kFleet.size());
  EXPECT_EQ(back.scheme, "emmark");
  EXPECT_EQ(back.devices[2].device_id, kFleet[2]);
  EXPECT_EQ(back.devices[2].key.seed, fx.set.devices[2].key.seed);
  // Tracing through the reloaded set still identifies the leaker.
  const TraceResult result =
      Fingerprinter::trace(fx.models[4], *fx.f.quantized, back);
  EXPECT_EQ(result.device_id, kFleet[4]);
  std::remove(path.c_str());
}

TEST(Fingerprint, SetLoadRejectsAnInflatedDeviceCountBeforeAllocating) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "emmark_fpset_inflated.bin").string();
  {
    BinaryWriter writer(path, "EMMFPSET", 1);
    writer.write_string("emmark");
    writer.write_u64(1ull << 40);
    writer.close();
  }
  EXPECT_THROW((void)FingerprintSet::load(path), SerializeError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace emmark
