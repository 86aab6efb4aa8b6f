// Ownership evidence bundles: digests, verification, tamper detection.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "wm/evidence.h"
#include "wm_fixture.h"

namespace emmark {
namespace {

using testfx::WmFixture;

struct EvidenceFixture {
  EvidenceFixture() : f() {
    key.bits_per_layer = 10;
    watermarked = std::make_unique<QuantizedModel>(*f.quantized);
    record = testfx::em_insert(*watermarked, f.stats, key);
    evidence = OwnershipEvidence::create("acme-corp", EmMarkScheme::wrap(record),
                                         *f.quantized, f.stats, 1770000000);
  }
  WmFixture f;
  WatermarkKey key;
  std::unique_ptr<QuantizedModel> watermarked;
  WatermarkRecord record;
  OwnershipEvidence evidence;
};

// --- ExtractionReport::strength_log10 golden values (Eq. 8) ---------------
//
// strength_log10 is log10 P[X >= matched], X ~ Binomial(total, 1/2): the
// chance a non-watermarked model matches at least that many signature bits.

TEST(Strength, ZeroTotalBitsIsNeutral) {
  ExtractionReport report;  // total_bits == 0
  EXPECT_EQ(report.strength_log10(), 0.0);
  EXPECT_EQ(report.wer_pct(), 0.0);
}

TEST(Strength, ZeroMatchesIsCertainty) {
  // P[X >= 0] = 1 exactly, for any n.
  ExtractionReport report;
  report.total_bits = 64;
  report.matched_bits = 0;
  EXPECT_DOUBLE_EQ(report.strength_log10(), 0.0);
}

TEST(Strength, AllMatchesIsHalfToTheN) {
  // P[X >= n] = 2^-n, so log10 = -n * log10(2).
  ExtractionReport report;
  report.total_bits = 40;
  report.matched_bits = 40;
  EXPECT_NEAR(report.strength_log10(), -40.0 * std::log10(2.0), 1e-9);
  EXPECT_NEAR(report.strength_log10(), -12.041199826559248, 1e-9);
}

TEST(Strength, MidRangeClosedForm) {
  // n = 10, k = 7: tail = (C(10,7)+C(10,8)+C(10,9)+C(10,10)) / 2^10
  //                     = (120+45+10+1)/1024 = 176/1024.
  ExtractionReport report;
  report.total_bits = 10;
  report.matched_bits = 7;
  const double expected = std::log10(176.0 / 1024.0);
  EXPECT_NEAR(report.strength_log10(), expected, 1e-12);
  EXPECT_NEAR(report.strength_log10(), -0.7647872888256613, 1e-9);
}

TEST(Strength, PaperScaleStaysFinite) {
  // Log-domain evaluation must survive paper-size signatures (the paper
  // quotes strengths down to 1e-5760) without underflowing to -inf.
  ExtractionReport report;
  report.total_bits = 20000;
  report.matched_bits = 20000;
  EXPECT_NEAR(report.strength_log10(), -20000.0 * std::log10(2.0), 1e-6);
  EXPECT_TRUE(std::isfinite(report.strength_log10()));
}

TEST(Strength, MonotoneInMatches) {
  ExtractionReport lo, hi;
  lo.total_bits = hi.total_bits = 100;
  lo.matched_bits = 60;
  hi.matched_bits = 90;
  EXPECT_LT(hi.strength_log10(), lo.strength_log10());
}

TEST(Evidence, Fnv1aKnownVector) {
  // FNV-1a 64 of "a" from the reference implementation.
  EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ull);
}

TEST(Evidence, ModelDigestSensitiveToSingleCode) {
  EvidenceFixture fx;
  const uint64_t before = digest_model_codes(*fx.f.quantized);
  QuantizedModel mutated = *fx.f.quantized;
  auto& w = mutated.layer(0).weights;
  const int8_t c = w.code_flat(5);
  w.set_code_flat(5, static_cast<int8_t>(c == 0 ? 1 : 0));
  EXPECT_NE(digest_model_codes(mutated), before);
}

TEST(Evidence, StatsDigestSensitiveToChannelStat) {
  EvidenceFixture fx;
  const uint64_t before = digest_stats(fx.f.stats);
  ActivationStats mutated = fx.f.stats;
  mutated.layers[0].abs_mean[0] += 0.5f;
  EXPECT_NE(digest_stats(mutated), before);
}

TEST(Evidence, HonestVerificationSucceeds) {
  EvidenceFixture fx;
  std::string why;
  EXPECT_TRUE(fx.evidence.verify(*fx.watermarked, *fx.f.quantized, fx.f.stats,
                                 95.0, &why))
      << why;
  EXPECT_EQ(why, "verified");
}

TEST(Evidence, RejectsWrongOriginalModel) {
  EvidenceFixture fx;
  QuantizedModel other = *fx.watermarked;  // not the filed original
  std::string why;
  EXPECT_FALSE(fx.evidence.verify(*fx.watermarked, other, fx.f.stats, 95.0, &why));
  EXPECT_NE(why.find("digest"), std::string::npos);
}

TEST(Evidence, RejectsTamperedStats) {
  EvidenceFixture fx;
  ActivationStats tampered = fx.f.stats;
  tampered.layers[1].abs_mean[3] *= 2.0f;
  std::string why;
  EXPECT_FALSE(
      fx.evidence.verify(*fx.watermarked, *fx.f.quantized, tampered, 95.0, &why));
}

TEST(Evidence, RejectsTamperedRecord) {
  EvidenceFixture fx;
  // SchemeRecord payloads are immutable; a forger has to rewrap a doctored
  // native record, which is exactly what the re-derivation check catches.
  WatermarkRecord doctored = fx.evidence.record.as<WatermarkRecord>();
  doctored.layers[0].locations[0] += 1;  // move one location
  OwnershipEvidence tampered = fx.evidence;
  tampered.record = EmMarkScheme::wrap(std::move(doctored));
  std::string why;
  EXPECT_FALSE(
      tampered.verify(*fx.watermarked, *fx.f.quantized, fx.f.stats, 95.0, &why));
  EXPECT_NE(why.find("re-derive"), std::string::npos);
}

TEST(Evidence, VerdictsMatchColdAndOnAMemoHit) {
  // verify() with an original's facts answers exactly as the overload that
  // hashes on the spot: on the call that derives the placement and on the
  // calls the memo then serves -- including a tampered record checked right
  // after an honest one with the same key, which the memo must not pass.
  EvidenceFixture fx;
  WatermarkRecord doctored = fx.evidence.record.as<WatermarkRecord>();
  doctored.layers[0].locations[0] += 1;
  OwnershipEvidence tampered_record = fx.evidence;
  tampered_record.record = EmMarkScheme::wrap(std::move(doctored));
  ActivationStats tampered_stats = fx.f.stats;
  tampered_stats.layers[1].abs_mean[3] *= 2.0f;
  const QuantizedModel& original = *fx.f.quantized;
  const QuantizedModel& wrong_original = *fx.watermarked;

  // One set of facts per presented (original, stats) pair, shared by every
  // check that presents it -- as a ModelHandle's are.
  const OriginalFacts facts = OriginalFacts::of(original, fx.f.stats);
  const OriginalFacts wrong_original_facts = OriginalFacts::of(wrong_original, fx.f.stats);
  const OriginalFacts tampered_stats_facts = OriginalFacts::of(original, tampered_stats);

  struct Case {
    const char* name;
    const OwnershipEvidence* evidence;
    const QuantizedModel* suspect;
    const QuantizedModel* original;
    const ActivationStats* stats;
    const OriginalFacts* facts;
    bool verified;
  };
  const std::vector<Case> cases = {
      {"honest", &fx.evidence, fx.watermarked.get(), &original, &fx.f.stats, &facts, true},
      {"tampered-record", &tampered_record, fx.watermarked.get(), &original, &fx.f.stats,
       &facts, false},
      {"clean", &fx.evidence, &original, &original, &fx.f.stats, &facts, false},
      {"wrong-original", &fx.evidence, fx.watermarked.get(), &wrong_original, &fx.f.stats,
       &wrong_original_facts, false},
      {"tampered-stats", &fx.evidence, fx.watermarked.get(), &original, &tampered_stats,
       &tampered_stats_facts, false},
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (const Case& c : cases) {
      std::string want_why, got_why;
      const bool want =
          c.evidence->verify(*c.suspect, *c.original, *c.stats, 95.0, &want_why);
      const bool got =
          c.evidence->verify(*c.suspect, *c.original, *c.stats, *c.facts, 95.0, &got_why);
      EXPECT_EQ(want, c.verified) << c.name;
      EXPECT_EQ(got, want) << c.name << " pass " << pass;
      EXPECT_EQ(got_why, want_why) << c.name << " pass " << pass;
    }
  }
  // Honest, tampered-record and clean reach re-derivation, twice each: one
  // derivation, five memo hits. The digest failures never derive.
  const PlacementMemo::Counts counts = facts.placements->counts();
  EXPECT_EQ(counts.misses, 1u);
  EXPECT_EQ(counts.hits, 5u);
  EXPECT_EQ(wrong_original_facts.placements->counts().misses, 0u);
  EXPECT_EQ(tampered_stats_facts.placements->counts().misses, 0u);

  // The tampered record fails cold too, on facts that have seen nothing.
  std::string why;
  EXPECT_FALSE(tampered_record.verify(*fx.watermarked, original, fx.f.stats,
                                      OriginalFacts::of(original, fx.f.stats), 95.0,
                                      &why));
  EXPECT_NE(why.find("re-derive"), std::string::npos);
}

TEST(Evidence, CreateFromFactsFilesTheSameDigests) {
  EvidenceFixture fx;
  const OwnershipEvidence from_facts = OwnershipEvidence::create(
      "acme-corp", fx.evidence.record, OriginalFacts::of(*fx.f.quantized, fx.f.stats),
      1770000000);
  EXPECT_EQ(from_facts.original_digest, fx.evidence.original_digest);
  EXPECT_EQ(from_facts.stats_digest, fx.evidence.stats_digest);
  EXPECT_EQ(from_facts.original_digest, digest_model_codes(*fx.f.quantized));
  EXPECT_EQ(from_facts.stats_digest, digest_stats(fx.f.stats));
}

TEST(Evidence, SchemeTagTravelsWithTheRecord) {
  EvidenceFixture fx;
  EXPECT_EQ(fx.evidence.scheme(), "emmark");
  EXPECT_EQ(fx.evidence.record.payload_version(), 1u);
}

TEST(Evidence, VerifiesRandomWmRecords) {
  // The bundle is scheme-agnostic: a RandomWM insertion verifies through
  // the same registry-driven path.
  WmFixture f;
  QuantizedModel watermarked = *f.quantized;
  const auto scheme = WatermarkRegistry::create("randomwm");
  WatermarkKey key;
  key.seed = 11;
  key.bits_per_layer = 10;
  const SchemeRecord record = scheme->insert(watermarked, f.stats, key);
  const auto evidence =
      OwnershipEvidence::create("acme-corp", record, *f.quantized, f.stats, 1);
  std::string why;
  EXPECT_TRUE(evidence.verify(watermarked, *f.quantized, f.stats, 95.0, &why))
      << why;
  EXPECT_FALSE(evidence.verify(*f.quantized, *f.quantized, f.stats, 95.0, &why));
}

TEST(Evidence, RejectsCleanSuspect) {
  EvidenceFixture fx;
  std::string why;
  EXPECT_FALSE(fx.evidence.verify(*fx.f.quantized, *fx.f.quantized, fx.f.stats,
                                  95.0, &why));
  EXPECT_NE(why.find("extract"), std::string::npos);
}

TEST(Evidence, SaveLoadRoundTrip) {
  EvidenceFixture fx;
  const std::string path =
      (std::filesystem::temp_directory_path() / "emmark_evidence.bin").string();
  fx.evidence.save(path);
  const OwnershipEvidence back = OwnershipEvidence::load(path);
  EXPECT_EQ(back.owner, "acme-corp");
  EXPECT_EQ(back.original_digest, fx.evidence.original_digest);
  EXPECT_EQ(back.stats_digest, fx.evidence.stats_digest);
  EXPECT_EQ(back.created_unix, 1770000000u);
  std::string why;
  EXPECT_TRUE(back.verify(*fx.watermarked, *fx.f.quantized, fx.f.stats, 95.0, &why))
      << why;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace emmark
