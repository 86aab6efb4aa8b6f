// Unified WatermarkScheme interface: registry, SchemeRecord round-trips,
// legacy-wrapper equivalence, and archive rejection paths.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <utility>

#include "wm/emmark.h"
#include "wm/randomwm.h"
#include "wm/scheme.h"
#include "wm/specmark.h"
#include "wm_fixture.h"

namespace emmark {
namespace {

using testfx::WmFixture;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Registry, BuiltinSchemesAreRegistered) {
  const auto names = WatermarkRegistry::instance().names();
  EXPECT_TRUE(WatermarkRegistry::instance().contains("emmark"));
  EXPECT_TRUE(WatermarkRegistry::instance().contains("specmark"));
  EXPECT_TRUE(WatermarkRegistry::instance().contains("randomwm"));
  EXPECT_GE(names.size(), 3u);
  // names() is sorted.
  for (size_t i = 1; i < names.size(); ++i) EXPECT_LT(names[i - 1], names[i]);
}

TEST(Registry, CreateRoundTripsEveryName) {
  for (const std::string& name : WatermarkRegistry::instance().names()) {
    const auto scheme = WatermarkRegistry::create(name);
    ASSERT_NE(scheme, nullptr);
    EXPECT_EQ(scheme->name(), name);
    EXPECT_GE(scheme->payload_version(), 1u);
  }
}

TEST(Registry, UnknownSchemeThrowsWithKnownNames) {
  try {
    (void)WatermarkRegistry::create("definitely-not-a-scheme");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    // The message lists what IS registered, for operators reading logs.
    EXPECT_NE(std::string(e.what()).find("emmark"), std::string::npos);
  }
}

TEST(Registry, OneLineRegistrationAndDuplicateRejection) {
  // A scheme registers in one line; a second registration of the same name
  // is a configuration bug and throws.
  const std::string name = "test-only-alias";
  if (!WatermarkRegistry::instance().contains(name)) {
    WatermarkRegistry::instance().add(
        name, [] { return std::make_unique<EmMarkScheme>(); });
  }
  EXPECT_TRUE(WatermarkRegistry::instance().contains(name));
  EXPECT_THROW(WatermarkRegistry::instance().add(
                   name, [] { return std::make_unique<EmMarkScheme>(); }),
               std::invalid_argument);
  // The alias instantiates and behaves like its implementation.
  EXPECT_EQ(WatermarkRegistry::create(name)->name(), "emmark");
}

TEST(Scheme, ExtractDerivedMatchesRetainedRecord) {
  // Two owner verification paths exist: extract() with the record retained
  // at insertion time, and extract_derived() re-deriving everything from
  // (original, stats, key). They must agree bit for bit -- otherwise an
  // owner who only kept the key would prove a different claim than one who
  // filed the record.
  WmFixture f;
  WatermarkKey key;
  key.bits_per_layer = 9;

  for (const std::string& name : WatermarkRegistry::instance().names()) {
    const auto scheme = WatermarkRegistry::create(name);
    QuantizedModel watermarked = *f.quantized;
    const SchemeRecord record = scheme->insert(watermarked, f.stats, key);

    const ExtractionReport with_record =
        scheme->extract(watermarked, *f.quantized, record);
    const ExtractionReport with_key =
        scheme->extract_derived(watermarked, *f.quantized, f.stats, key);
    EXPECT_EQ(with_record.matched_bits, with_key.matched_bits) << name;
    EXPECT_EQ(with_record.total_bits, with_key.total_bits) << name;
  }
}

class SchemeRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(SchemeRoundTrip, InsertSaveLoadExtract) {
  WmFixture f;
  const std::string name = GetParam();
  const auto scheme = WatermarkRegistry::create(name);
  WatermarkKey key;
  key.seed = 31;
  key.bits_per_layer = 8;
  key.candidate_ratio = 10;

  QuantizedModel watermarked = *f.quantized;
  const SchemeRecord record = scheme->insert(watermarked, f.stats, key);
  EXPECT_EQ(record.scheme(), name);
  EXPECT_EQ(scheme->total_bits(record), 8 * f.quantized->num_layers());

  const std::string path = temp_path("emmark_scheme_" + name + ".rec");
  record.save(path);
  const SchemeRecord loaded = SchemeRecord::load(path);
  EXPECT_EQ(loaded.scheme(), name);
  EXPECT_EQ(loaded.payload_version(), record.payload_version());

  // The reloaded record extracts exactly what the in-memory one does
  // (SpecMark: 0% by design -- re-rounding destroys it; others: 100%).
  const ExtractionReport before = scheme->extract(watermarked, *f.quantized, record);
  const ExtractionReport after = scheme->extract(watermarked, *f.quantized, loaded);
  EXPECT_EQ(before.matched_bits, after.matched_bits);
  EXPECT_EQ(before.total_bits, after.total_bits);
  const double expected_wer = name == std::string("specmark") ? 0.0 : 100.0;
  EXPECT_DOUBLE_EQ(after.wer_pct(), expected_wer);

  // The reloaded record also re-derives from the original artifacts.
  EXPECT_TRUE(scheme->rederives(loaded, *f.quantized, f.stats));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeRoundTrip,
                         ::testing::Values("emmark", "specmark", "randomwm"));

TEST(Scheme, RederivesDetectsDoctoredRecords) {
  WmFixture f;
  WatermarkKey key;
  key.bits_per_layer = 8;
  const auto scheme = WatermarkRegistry::create("randomwm");
  QuantizedModel watermarked = *f.quantized;
  const SchemeRecord record = scheme->insert(watermarked, f.stats, key);

  WatermarkRecord doctored = record.as<WatermarkRecord>();
  doctored.layers[0].bits[0] = static_cast<int8_t>(-doctored.layers[0].bits[0]);
  EXPECT_FALSE(scheme->rederives(RandomWMScheme::wrap(std::move(doctored)),
                                 *f.quantized, f.stats));
}

TEST(SchemeRecordArchive, RejectsUnknownScheme) {
  const std::string path = temp_path("emmark_scheme_unknown.rec");
  {
    BinaryWriter writer(path, "EMMSREC", 1);
    writer.write_string("scheme-from-the-future");
    writer.write_u32(1);
    writer.close();
  }
  EXPECT_THROW((void)SchemeRecord::load(path), SerializeError);
  std::remove(path.c_str());
}

TEST(SchemeRecordArchive, RejectsPayloadVersionMismatch) {
  const std::string path = temp_path("emmark_scheme_version.rec");
  {
    BinaryWriter writer(path, "EMMSREC", 1);
    writer.write_string("specmark");
    writer.write_u32(42);  // payload version this build does not know
    writer.close();
  }
  EXPECT_THROW((void)SchemeRecord::load(path), SerializeError);
  std::remove(path.c_str());
}

TEST(SchemeRecordArchive, RejectsAnInflatedLayerCountBeforeAllocating) {
  // A record a few bytes long that claims 2^40 layers fails as a truncated
  // archive instead of reserving room for them.
  // Fixed fields before the layer count: EmMark's six key fields, SpecMark's
  // four embedding parameters.
  for (const auto& [scheme, fields] : {std::pair{"emmark", 6}, std::pair{"specmark", 4}}) {
    const std::string path = temp_path(std::string("emmark_scheme_inflated_") + scheme);
    {
      BinaryWriter writer(path, "EMMSREC", 1);
      writer.write_string(scheme);
      writer.write_u32(1);
      for (int field = 0; field < fields; ++field) writer.write_u64(0);
      writer.write_u64(1ull << 40);
      writer.close();
    }
    EXPECT_THROW((void)SchemeRecord::load(path), SerializeError) << scheme;
    std::remove(path.c_str());
  }
}

TEST(SchemeRecordArchive, RejectsWrongMagic) {
  const std::string path = temp_path("emmark_scheme_magic.rec");
  {
    BinaryWriter writer(path, "EMMCKPT1", 1);
    writer.close();
  }
  EXPECT_THROW((void)SchemeRecord::load(path), SerializeError);
  std::remove(path.c_str());
}

TEST(SchemeRecord, EmptyRecordGuards) {
  SchemeRecord record;
  EXPECT_TRUE(record.empty());
  EXPECT_THROW((void)record.as<WatermarkRecord>(), std::logic_error);
  const std::string path = temp_path("emmark_empty.rec");
  std::remove(path.c_str());
  EXPECT_THROW(record.save(path), std::logic_error);
  EXPECT_FALSE(std::filesystem::exists(path));  // refused before any write
}

TEST(SchemeRecord, RejectedSaveKeepsTheRecordAtThePath) {
  WmFixture f;
  WatermarkKey key;
  key.bits_per_layer = 8;
  const SchemeRecord record =
      WatermarkRegistry::create("emmark")->derive(*f.quantized, f.stats, key);
  const std::string path = temp_path("emmark_rejected_save.rec");
  record.save(path);
  EXPECT_THROW(SchemeRecord{}.save(path), std::logic_error);
  const SchemeRecord loaded = SchemeRecord::load(path);
  EXPECT_EQ(loaded.scheme(), "emmark");
  EXPECT_TRUE(placements_equal(loaded.as<WatermarkRecord>(),
                               record.as<WatermarkRecord>()));
  std::remove(path.c_str());
}

TEST(Scheme, SpecMarkDeriveDoesNotTouchTheModel) {
  WmFixture f;
  QuantizedModel model = *f.quantized;
  const SpecMarkRecord record = specmark_derive(model, 3, 12);
  for (int64_t i = 0; i < model.num_layers(); ++i) {
    EXPECT_EQ(model.layer(i).weights.codes(), f.quantized->layer(i).weights.codes());
  }
  // Derivation matches what insert() records for the same parameters.
  QuantizedModel watermarked = *f.quantized;
  const SpecMarkRecord inserted = specmark_insert(watermarked, 3, 12);
  ASSERT_EQ(record.layers.size(), inserted.layers.size());
  for (size_t i = 0; i < record.layers.size(); ++i) {
    EXPECT_EQ(record.layers[i].coefficients, inserted.layers[i].coefficients);
    EXPECT_EQ(record.layers[i].bits, inserted.layers[i].bits);
  }
}

TEST(PlacementMemo, ServesDerivationsAndStaysAtItsBound) {
  WmFixture f;
  const auto scheme = WatermarkRegistry::create("emmark");
  PlacementMemo memo;
  auto key_for = [](uint64_t seed) {
    WatermarkKey key;
    key.seed = seed;
    key.bits_per_layer = 4;
    key.candidate_ratio = 5;
    return key;
  };
  const size_t distinct = PlacementMemo::kCapacity + 5;
  for (uint64_t seed = 0; seed < distinct; ++seed) {
    const SchemeRecord memoized = memo.derive(*scheme, *f.quantized, f.stats, key_for(seed));
    const SchemeRecord fresh = scheme->derive(*f.quantized, f.stats, key_for(seed));
    EXPECT_TRUE(placements_equal(memoized.as<WatermarkRecord>(), fresh.as<WatermarkRecord>()));
    EXPECT_LE(memo.counts().size, PlacementMemo::kCapacity);
  }
  PlacementMemo::Counts counts = memo.counts();
  EXPECT_EQ(counts.size, PlacementMemo::kCapacity);
  EXPECT_EQ(counts.misses, distinct);
  EXPECT_EQ(counts.hits, 0u);

  // The newest key is still held; the oldest was dropped.
  (void)memo.derive(*scheme, *f.quantized, f.stats, key_for(distinct - 1));
  EXPECT_EQ(memo.counts().hits, 1u);
  (void)memo.derive(*scheme, *f.quantized, f.stats, key_for(0));
  counts = memo.counts();
  EXPECT_EQ(counts.misses, distinct + 1);
  EXPECT_EQ(counts.size, PlacementMemo::kCapacity);

  // The scheme is part of the key: RandomWM never receives EmMark's
  // placement for the same key.
  const auto random = WatermarkRegistry::create("randomwm");
  const SchemeRecord other = memo.derive(*random, *f.quantized, f.stats, key_for(0));
  EXPECT_EQ(other.scheme(), "randomwm");
  EXPECT_TRUE(placements_equal(
      other.as<WatermarkRecord>(),
      random->derive(*f.quantized, f.stats, key_for(0)).as<WatermarkRecord>()));
}

TEST(PlacementMemo, FailedDerivationsAreNotMemoized) {
  WmFixture f;
  const auto scheme = WatermarkRegistry::create("emmark");
  PlacementMemo memo;
  WatermarkKey bad;
  bad.bits_per_layer = 0;
  EXPECT_THROW((void)memo.derive(*scheme, *f.quantized, f.stats, bad), std::invalid_argument);
  EXPECT_THROW((void)memo.derive(*scheme, *f.quantized, f.stats, bad), std::invalid_argument);
  EXPECT_EQ(memo.counts().size, 0u);
  EXPECT_EQ(memo.counts().misses, 2u);
}

}  // namespace
}  // namespace emmark
