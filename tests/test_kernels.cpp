// Kernel-dispatch invariants (src/kernels/): every SIMD level the host
// supports must reproduce the scalar reference bit for bit -- scores,
// selections, extraction counts, and stamped models -- at every thread
// count. Placement invariance across hardware is an ownership-proof
// requirement: an arbiter re-deriving a watermark on a different CPU must
// reproduce the owner's evidence exactly.
//
// Also pins the two-pass candidate selection (kernels/select.h) against
// the partial_sort it replaced: a reference implementation of the pre-PR
// derivation lives here, and placements_equal asserts the rewrite changed
// nothing about the records owners already hold.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/prune.h"
#include "kernels/exp_lanes.h"
#include "kernels/gemm_tile.h"
#include "kernels/kernels.h"
#include "kernels/select.h"
#include "quant/qtensor.h"
#include "signal/dct.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/threadpool.h"
#include "wm_fixture.h"

namespace emmark {
namespace {

using testfx::WmFixture;
namespace kn = emmark::kernels;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<kn::Level> levels() { return kn::supported_levels(); }

// --- reference implementations (pre-PR semantics, kept verbatim) -------------

/// The pre-rewrite candidate ordering: partial_sort of every index under
/// (score, then index).
std::vector<int64_t> partial_sort_smallest(const std::vector<double>& scores,
                                           size_t k) {
  std::vector<int64_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<int64_t>(k),
                    order.end(), [&](int64_t a, int64_t b) {
                      const double sa = scores[static_cast<size_t>(a)];
                      const double sb = scores[static_cast<size_t>(b)];
                      if (sa != sb) return sa < sb;
                      return a < b;
                    });
  order.resize(k);
  return order;
}

/// The pre-rewrite prune ordering: partial_sort under (|code|, index).
std::vector<int64_t> partial_sort_smallest_abs(const std::vector<int8_t>& codes,
                                               size_t k) {
  std::vector<int64_t> order(codes.size());
  std::iota(order.begin(), order.end(), 0);
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<int64_t>(k),
                    order.end(), [&](int64_t a, int64_t b) {
                      const int32_t ma =
                          std::abs(static_cast<int32_t>(codes[static_cast<size_t>(a)]));
                      const int32_t mb =
                          std::abs(static_cast<int32_t>(codes[static_cast<size_t>(b)]));
                      if (ma != mb) return ma < mb;
                      return a < b;
                    });
  order.resize(k);
  return order;
}

/// Pre-PR derive_layers, replicated (including the per-layer RNG mix) so
/// the selection rewrite can be pinned with placements_equal: records
/// derived today must equal records derived before the rewrite.
Rng layer_rng_reference(uint64_t seed, size_t layer_index) {
  uint64_t state = seed;
  (void)splitmix64(state);
  return Rng(state + 0x9e3779b97f4a7c15ull * (layer_index + 1));
}

WatermarkRecord derive_reference(const QuantizedModel& original,
                                 const ActivationStats& stats,
                                 const WatermarkKey& key) {
  WatermarkRecord record;
  record.key = key;
  for (int64_t i = 0; i < original.num_layers(); ++i) {
    const QuantizedLayer& layer = original.layer(i);
    const std::vector<double> scores = score_layer(
        layer.weights, stats.find(layer.name).abs_mean, key.alpha, key.beta);
    const size_t pool_target =
        static_cast<size_t>(key.candidate_ratio * key.bits_per_layer);
    const std::vector<int64_t> order = partial_sort_smallest(scores, pool_target);
    std::vector<int64_t> pool;
    for (int64_t p : order) {
      if (std::isinf(scores[static_cast<size_t>(p)])) break;
      pool.push_back(p);
    }
    Rng rng = layer_rng_reference(key.seed, static_cast<size_t>(i));
    const std::vector<size_t> picks =
        rng.sample_indices(pool.size(), static_cast<size_t>(key.bits_per_layer));
    LayerWatermark wm;
    wm.layer_name = layer.name;
    for (size_t p : picks) wm.locations.push_back(pool[p]);
    std::sort(wm.locations.begin(), wm.locations.end());
    wm.bits = rademacher_signature(key.signature_seed + static_cast<uint64_t>(i),
                                   key.bits_per_layer);
    record.layers.push_back(std::move(wm));
  }
  return record;
}

WatermarkKey small_key() {
  WatermarkKey key;
  key.bits_per_layer = 6;
  key.candidate_ratio = 10;
  return key;
}

// --- dispatch plumbing -------------------------------------------------------

TEST(KernelDispatch, ScalarAlwaysSupportedAndNamesRoundTrip) {
  const auto supported = levels();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(supported.front(), kn::Level::kScalar);
  for (kn::Level level : supported) {
    EXPECT_TRUE(kn::level_supported(level));
    EXPECT_EQ(kn::parse_level(kn::to_string(level)), level);
    EXPECT_STREQ(kn::ops_for(level).name, kn::to_string(level));
  }
  EXPECT_TRUE(kn::level_supported(kn::active_level()));
  EXPECT_TRUE(kn::level_supported(kn::default_level()));
}

TEST(KernelDispatch, UnknownNameThrows) {
  EXPECT_THROW(kn::parse_level("avx1024"), std::invalid_argument);
  EXPECT_THROW(kn::parse_level(""), std::invalid_argument);
}

TEST(KernelDispatch, Avx512IsAValidLevelName) {
  // avx512 joined the level enum in the eval-path PR; whether it is
  // *supported* depends on the host, but the name must always parse.
  EXPECT_EQ(kn::parse_level("avx512"), kn::Level::kAvx512);
  EXPECT_STREQ(kn::to_string(kn::Level::kAvx512), "avx512");
}

TEST(KernelDispatch, UnsupportedLevelsThrow) {
  // Every host lacks at least one level (no CPU is both x86 and ARM), so
  // the failure path is exercised everywhere.
  for (kn::Level level : {kn::Level::kScalar, kn::Level::kSse2, kn::Level::kAvx2,
                          kn::Level::kNeon, kn::Level::kAvx512}) {
    if (kn::level_supported(level)) continue;
    EXPECT_THROW(kn::ops_for(level), std::runtime_error) << kn::to_string(level);
    EXPECT_THROW(kn::ScopedLevelOverride{level}, std::runtime_error);
  }
}

TEST(KernelDispatch, OverrideChangesActiveLevel) {
  for (kn::Level level : levels()) {
    kn::ScopedLevelOverride over(level);
    EXPECT_EQ(kn::active_level(), level);
  }
  EXPECT_EQ(kn::active_level(), kn::default_level());
}

// --- score_layer -------------------------------------------------------------

class KernelScore : public ::testing::Test {
 protected:
  /// score_layer for one fixture layer at (level, threads).
  static std::vector<double> scores_at(const WmFixture& fx, int64_t layer,
                                       kn::Level level, size_t threads,
                                       double alpha = 0.5, double beta = 0.5) {
    kn::ScopedLevelOverride kernel(level);
    ThreadPool pool(threads);
    ThreadPool::ScopedOverride over(pool);
    const QuantizedLayer& l = fx.quantized->layer(layer);
    return score_layer(l.weights, fx.stats.find(l.name).abs_mean, alpha, beta);
  }
};

TEST_F(KernelScore, BitIdenticalAcrossLevelsAndThreadCounts) {
  // AWQ INT4 exercises the saturation path; LLM.int8() adds FP outlier
  // columns (the +inf colterm lanes).
  for (QuantMethod method : {QuantMethod::kAwqInt4, QuantMethod::kLlmInt8}) {
    const WmFixture fx(method);
    for (int64_t layer = 0; layer < fx.quantized->num_layers(); ++layer) {
      const std::vector<double> reference =
          scores_at(fx, layer, kn::Level::kScalar, 1);
      for (kn::Level level : levels()) {
        for (size_t threads : {size_t{1}, size_t{3}}) {
          const std::vector<double> got = scores_at(fx, layer, level, threads);
          ASSERT_EQ(got, reference)
              << to_string(method) << " layer " << layer << " level "
              << kn::to_string(level) << " threads " << threads;
        }
      }
    }
  }
}

TEST_F(KernelScore, CoefficientEdgeCasesMatchScalar) {
  const WmFixture fx(QuantMethod::kAwqInt4);
  const struct { double alpha, beta; } cases[] = {{0.0, 0.5}, {0.5, 0.0}, {0.0, 0.0}};
  for (const auto& c : cases) {
    const std::vector<double> reference =
        scores_at(fx, 0, kn::Level::kScalar, 1, c.alpha, c.beta);
    for (kn::Level level : levels()) {
      EXPECT_EQ(scores_at(fx, 0, level, 1, c.alpha, c.beta), reference)
          << kn::to_string(level) << " alpha=" << c.alpha << " beta=" << c.beta;
    }
  }
}

// --- two-pass selection ------------------------------------------------------

TEST(KernelSelect, SmallestKByScoreMatchesPartialSort) {
  Rng rng(7);
  for (const size_t n : {size_t{1}, size_t{33}, size_t{1000}, size_t{4097}}) {
    std::vector<double> scores(n);
    for (double& s : scores) {
      // Coarse quantization forces heavy ties; sprinkle +inf exclusions.
      s = rng.next_bool(0.15) ? kInf
                              : static_cast<double>(rng.next_int(0, 40)) * 0.25;
    }
    for (const size_t k : {size_t{0}, size_t{1}, size_t{7}, n / 2, n - 1, n, n + 5}) {
      const auto reference = partial_sort_smallest(scores, k);
      for (kn::Level level : levels()) {
        kn::ScopedLevelOverride over(level);
        EXPECT_EQ(kn::smallest_k_by_score(scores.data(), n, k), reference)
            << "n=" << n << " k=" << k << " level=" << kn::to_string(level);
      }
    }
  }
}

TEST(KernelSelect, SmallestKByScoreAllInfStaysOrdered) {
  const std::vector<double> scores(100, kInf);
  const auto got = kn::smallest_k_by_score(scores.data(), scores.size(), 10);
  EXPECT_EQ(got, partial_sort_smallest(scores, 10));
}

TEST(KernelSelect, SmallestKByAbsCodeMatchesPartialSort) {
  Rng rng(11);
  for (const size_t n : {size_t{1}, size_t{50}, size_t{2048}}) {
    std::vector<int8_t> codes(n);
    for (int8_t& c : codes) {
      c = static_cast<int8_t>(rng.next_int(-127, 127));
    }
    // Force magnitude ties and both extremes.
    if (n > 4) {
      codes[0] = 127;
      codes[1] = -127;
      codes[2] = 0;
      codes[3] = 0;
    }
    for (const size_t k : {size_t{0}, size_t{1}, n / 3, n}) {
      const auto reference = partial_sort_smallest_abs(codes, k);
      for (kn::Level level : levels()) {
        kn::ScopedLevelOverride over(level);
        EXPECT_EQ(kn::smallest_k_by_abs_code(codes.data(), n, k), reference)
            << "n=" << n << " k=" << k << " level=" << kn::to_string(level);
      }
    }
  }
}

// --- derive / placement stability -------------------------------------------

TEST(KernelDerive, PlacementsEqualPrePRReferenceAtEveryLevel) {
  const WmFixture fx(QuantMethod::kAwqInt4);
  const WatermarkKey key = small_key();
  const WatermarkRecord reference = derive_reference(*fx.quantized, fx.stats, key);
  for (kn::Level level : levels()) {
    kn::ScopedLevelOverride over(level);
    WatermarkRecord derived;
    derived.key = key;
    derived.layers = testfx::em_derive(*fx.quantized, fx.stats, key);
    EXPECT_TRUE(placements_equal(derived, reference)) << kn::to_string(level);
  }
}

TEST(KernelDerive, PlacementsInvariantAcrossLevelsAndThreads) {
  const WmFixture fx(QuantMethod::kLlmInt8);
  const WatermarkKey key = small_key();
  std::vector<LayerWatermark> reference;
  for (kn::Level level : levels()) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      kn::ScopedLevelOverride kernel(level);
      ThreadPool pool(threads);
      ThreadPool::ScopedOverride over(pool);
      auto derived = testfx::em_derive(*fx.quantized, fx.stats, key);
      if (reference.empty()) {
        reference = derived;
        continue;
      }
      ASSERT_EQ(derived.size(), reference.size());
      for (size_t i = 0; i < derived.size(); ++i) {
        EXPECT_EQ(derived[i].locations, reference[i].locations)
            << kn::to_string(level) << " threads=" << threads << " layer " << i;
        EXPECT_EQ(derived[i].bits, reference[i].bits);
      }
    }
  }
}

// --- stamp / insert ----------------------------------------------------------

TEST(KernelStamp, StampedModelsIdenticalAcrossLevels) {
  const WmFixture fx(QuantMethod::kAwqInt4);
  const WatermarkKey key = small_key();

  // Reference: scalar-level insert, plus a manual re-application through
  // the bound-checked setter to prove the raw-pointer stamp writes the
  // same bytes the old set_code_flat loop did.
  WatermarkRecord record;
  QuantizedModel reference = *fx.quantized;
  {
    kn::ScopedLevelOverride over(kn::Level::kScalar);
    record = testfx::em_insert(reference, fx.stats, key);
  }
  QuantizedModel manual = *fx.quantized;
  for (size_t i = 0; i < record.layers.size(); ++i) {
    const LayerWatermark& wm = record.layers[i];
    QuantizedTensor& weights = manual.layer(static_cast<int64_t>(i)).weights;
    for (size_t j = 0; j < wm.locations.size(); ++j) {
      weights.set_code_flat(wm.locations[j],
                            static_cast<int8_t>(weights.code_flat(wm.locations[j]) +
                                                wm.bits[j]));
    }
  }

  for (kn::Level level : levels()) {
    kn::ScopedLevelOverride over(level);
    QuantizedModel marked = *fx.quantized;
    const WatermarkRecord got = testfx::em_insert(marked, fx.stats, key);
    EXPECT_TRUE(placements_equal(got, record)) << kn::to_string(level);
    for (int64_t i = 0; i < marked.num_layers(); ++i) {
      ASSERT_EQ(marked.layer(i).weights.codes(), reference.layer(i).weights.codes())
          << kn::to_string(level) << " layer " << i;
      ASSERT_EQ(marked.layer(i).weights.codes(), manual.layer(i).weights.codes())
          << kn::to_string(level) << " layer " << i;
    }
  }
}

// --- extract -----------------------------------------------------------------

TEST(KernelExtract, ReportsIdenticalAcrossLevelsAndThreads) {
  const WmFixture fx(QuantMethod::kAwqInt4);
  const WatermarkKey key = small_key();
  QuantizedModel marked = *fx.quantized;
  const WatermarkRecord record = testfx::em_insert(marked, fx.stats, key);

  for (kn::Level level : levels()) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      kn::ScopedLevelOverride kernel(level);
      ThreadPool pool(threads);
      ThreadPool::ScopedOverride over(pool);
      const ExtractionReport report =
          extract_recorded_bits(marked, *fx.quantized, record);
      EXPECT_EQ(report.matched_bits, record.total_bits()) << kn::to_string(level);
      EXPECT_EQ(report.total_bits, record.total_bits());
    }
  }
}

TEST(KernelExtract, AdversarialRecordBitsNeverAliasModulo256) {
  // A wrapped delta must not count as a match: suspect 127, original -127
  // gives delta +254, and a forged record bit of -2 is congruent mod 256.
  // The int32 compare (scalar and gather levels alike) must reject it.
  const WmFixture fx(QuantMethod::kLlmInt8);  // INT8: grid reaches +-127
  QuantizedModel original = *fx.quantized;
  QuantizedModel suspect = *fx.quantized;
  QuantizedTensor& w = suspect.layer(0).weights;
  const int64_t numel = w.numel();

  QuantizedTensor& wo = original.layer(0).weights;
  // Location 0: wrapped delta. Last location: exercises the gather
  // bounds-guard tail. Middle run: enough lanes to enter the vector loop.
  wo.set_code_flat(0, -127);
  w.set_code_flat(0, 127);
  LayerWatermark wm;
  wm.layer_name = fx.quantized->layer(0).name;
  wm.locations = {0, numel / 3, numel / 2, numel / 2 + 1, numel - 2, numel - 1};
  wm.bits = {-2, 1, 1, -1, 1, -1};
  for (size_t j = 1; j < wm.locations.size(); ++j) {
    // Make every non-wrapped location a true match.
    const int64_t flat = wm.locations[j];
    wo.set_code_flat(flat, 5);
    w.set_code_flat(flat, static_cast<int8_t>(5 + wm.bits[j]));
  }
  WatermarkRecord record;
  record.layers.push_back(wm);

  for (kn::Level level : levels()) {
    kn::ScopedLevelOverride over(level);
    const ExtractionReport report = extract_recorded_bits(suspect, original, record);
    EXPECT_EQ(report.total_bits, 6) << kn::to_string(level);
    EXPECT_EQ(report.matched_bits, 5) << kn::to_string(level);
  }
}

TEST(KernelExtract, CountMatchesKernelAgreesWithScalarOnDenseRuns) {
  // Direct kernel-vs-kernel check with every location shape the gather
  // level branches on: full vector groups, groups straddling the buffer
  // tail, and a scalar remainder.
  Rng rng(23);
  const int64_t numel = 257;
  std::vector<int8_t> original(numel), suspect(numel);
  for (int64_t i = 0; i < numel; ++i) {
    original[static_cast<size_t>(i)] = static_cast<int8_t>(rng.next_int(-127, 127));
    suspect[static_cast<size_t>(i)] = static_cast<int8_t>(rng.next_int(-127, 127));
  }
  std::vector<int64_t> locations;
  std::vector<int8_t> bits;
  for (int64_t i = 0; i < numel; i += 2) {
    locations.push_back(i);
    bits.push_back(static_cast<int8_t>(rng.next_sign()));
  }
  locations.push_back(numel - 1);
  bits.push_back(1);

  const int64_t reference = kn::ops_for(kn::Level::kScalar)
                                .count_matches(suspect.data(), original.data(),
                                               locations.data(), bits.data(),
                                               locations.size(), numel);
  for (kn::Level level : levels()) {
    EXPECT_EQ(kn::ops_for(level).count_matches(suspect.data(), original.data(),
                                               locations.data(), bits.data(),
                                               locations.size(), numel),
              reference)
        << kn::to_string(level);
  }
}

// --- prune -------------------------------------------------------------------

TEST(KernelPrune, PrunedModelsIdenticalAcrossLevelsAndToReference) {
  const WmFixture fx(QuantMethod::kAwqInt4);
  PruneConfig config;
  config.fraction = 0.3;

  // Reference: the pre-PR partial_sort victims, applied manually.
  QuantizedModel reference = *fx.quantized;
  for (int64_t i = 0; i < reference.num_layers(); ++i) {
    QuantizedTensor& weights = reference.layer(i).weights;
    const auto prune_count = static_cast<size_t>(
        std::round(config.fraction * static_cast<double>(weights.numel())));
    for (int64_t flat : partial_sort_smallest_abs(weights.codes(), prune_count)) {
      weights.set_code_flat(flat, 0);
    }
  }

  for (kn::Level level : levels()) {
    kn::ScopedLevelOverride over(level);
    QuantizedModel attacked = *fx.quantized;
    prune_attack(attacked, config);
    for (int64_t i = 0; i < attacked.num_layers(); ++i) {
      ASSERT_EQ(attacked.layer(i).weights.codes(), reference.layer(i).weights.codes())
          << kn::to_string(level) << " layer " << i;
    }
  }
}

// --- eval-path kernels: GEMM / dequant / DCT ---------------------------------
//
// The blocked GEMM drivers (tensor/gemm.cpp), the dequant kernels behind
// QuantizedTensor, and the table-driven DCT all promise the same contract
// as the watermark kernels: bit-identical results at every dispatch level
// and thread count. These suites pin it with exact equality, never
// tolerances.

std::vector<float> random_floats(Rng& rng, size_t n, float stddev = 1.0f) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.next_normal_f(0.0f, stddev);
  return v;
}

TEST(KernelGemm, AllLayoutsBitIdenticalAcrossLevelsAndThreadCounts) {
  Rng rng(41);
  const struct { int64_t m, k, n; } shapes[] = {
      {1, 1, 1}, {7, 5, 3}, {33, 64, 65}, {5, 300, 9}, {16, 256, 130}};
  using GemmFn = void (*)(const float*, const float*, float*, int64_t, int64_t,
                          int64_t, bool);
  const struct { const char* name; GemmFn fn; bool b_is_nt; } layouts[] = {
      {"nn", gemm_nn, false}, {"nt", gemm_nt, true}, {"tn", gemm_tn, false}};
  for (const auto& s : shapes) {
    // gemm_tn reads A as [k, m]; same element count either way.
    const std::vector<float> a = random_floats(rng, static_cast<size_t>(s.m * s.k));
    const std::vector<float> b = random_floats(rng, static_cast<size_t>(s.k * s.n));
    const std::vector<float> c0 = random_floats(rng, static_cast<size_t>(s.m * s.n));
    for (const auto& layout : layouts) {
      for (bool accumulate : {false, true}) {
        std::vector<float> reference = c0;
        {
          kn::ScopedLevelOverride kernel(kn::Level::kScalar);
          ThreadPool pool(1);
          ThreadPool::ScopedOverride over(pool);
          layout.fn(a.data(), b.data(), reference.data(), s.m, s.k, s.n,
                    accumulate);
        }
        for (kn::Level level : levels()) {
          for (size_t threads : {size_t{1}, size_t{3}}) {
            kn::ScopedLevelOverride kernel(level);
            ThreadPool pool(threads);
            ThreadPool::ScopedOverride over(pool);
            std::vector<float> got = c0;
            layout.fn(a.data(), b.data(), got.data(), s.m, s.k, s.n, accumulate);
            ASSERT_EQ(got, reference)
                << layout.name << " m=" << s.m << " k=" << s.k << " n=" << s.n
                << " accumulate=" << accumulate << " level="
                << kn::to_string(level) << " threads=" << threads;
          }
        }
      }
    }
  }
}

/// A quantized tensor exercising every dequant decoration at once:
/// group-wise scales, per-column input scale, and FP outlier columns.
QuantizedTensor decorated_qtensor(int64_t rows, int64_t cols) {
  Rng rng(53);
  Tensor w({rows, cols});
  for (float& v : w.flat()) v = rng.next_normal_f(0.0f, 0.05f);
  QuantizedTensor q = quantize_rtn(w, QuantBits::kInt4, /*group_size=*/16);
  std::vector<float> input_scale(static_cast<size_t>(cols));
  for (float& s : input_scale) s = 0.5f + std::fabs(rng.next_normal_f(0.0f, 0.3f));
  q.set_input_scale(std::move(input_scale));
  Tensor outliers({rows, 2});
  for (float& v : outliers.flat()) v = rng.next_normal_f(0.0f, 0.4f);
  q.set_outliers({3, static_cast<int32_t>(cols - 1)}, std::move(outliers));
  return q;
}

TEST(KernelDequant, DequantizeBitIdenticalAcrossLevels) {
  const QuantizedTensor q = decorated_qtensor(37, 64);
  Tensor reference;
  {
    kn::ScopedLevelOverride kernel(kn::Level::kScalar);
    reference = q.dequantize();
  }
  for (kn::Level level : levels()) {
    kn::ScopedLevelOverride kernel(level);
    const Tensor got = q.dequantize();
    ASSERT_EQ(std::vector<float>(got.flat().begin(), got.flat().end()),
              std::vector<float>(reference.flat().begin(), reference.flat().end()))
        << kn::to_string(level);
  }
}

TEST(KernelDequant, FusedGemmMatchesMaterializeThenMultiplyBitwise) {
  const QuantizedTensor q = decorated_qtensor(35, 48);
  Rng rng(59);
  const int64_t m = 9;
  const std::vector<float> x =
      random_floats(rng, static_cast<size_t>(m * q.cols()));
  const std::vector<float> y0 =
      random_floats(rng, static_cast<size_t>(m * q.rows()));
  for (bool accumulate : {false, true}) {
    std::vector<float> reference = y0;
    {
      kn::ScopedLevelOverride kernel(kn::Level::kScalar);
      const Tensor w_eff = q.dequantize();
      gemm_nt(x.data(), w_eff.data(), reference.data(), m, q.cols(), q.rows(),
              accumulate);
    }
    for (kn::Level level : levels()) {
      kn::ScopedLevelOverride kernel(level);
      std::vector<float> got = y0;
      dequant_gemm_nt(x.data(), q, got.data(), m, accumulate);
      ASSERT_EQ(got, reference)
          << kn::to_string(level) << " accumulate=" << accumulate;
    }
  }
}

TEST(KernelDct, TransformsBitIdenticalAcrossLevels) {
  Rng rng(61);
  for (const size_t n : {size_t{1}, size_t{5}, size_t{64}, size_t{257}}) {
    std::vector<double> x(n);
    for (double& v : x) v = rng.next_normal();
    std::vector<double> spec_ref, time_ref;
    {
      kn::ScopedLevelOverride kernel(kn::Level::kScalar);
      spec_ref = dct2(std::span<const double>(x));
      time_ref = idct2(std::span<const double>(spec_ref));
    }
    for (kn::Level level : levels()) {
      kn::ScopedLevelOverride kernel(level);
      const auto spec = dct2(std::span<const double>(x));
      ASSERT_EQ(spec, spec_ref) << "dct2 n=" << n << " " << kn::to_string(level);
      ASSERT_EQ(idct2(std::span<const double>(spec)), time_ref)
          << "idct2 n=" << n << " " << kn::to_string(level);
    }
  }
}

TEST(KernelDct, FloatOverloadsBitIdenticalAcrossLevels) {
  Rng rng(67);
  std::vector<float> x(200);
  for (float& v : x) v = rng.next_normal_f();
  std::vector<float> spec_ref, time_ref;
  {
    kn::ScopedLevelOverride kernel(kn::Level::kScalar);
    spec_ref = dct2(std::span<const float>(x));
    time_ref = idct2(std::span<const float>(spec_ref));
  }
  for (kn::Level level : levels()) {
    kn::ScopedLevelOverride kernel(level);
    const auto spec = dct2(std::span<const float>(x));
    ASSERT_EQ(spec, spec_ref) << kn::to_string(level);
    ASSERT_EQ(idct2(std::span<const float>(spec)), time_ref) << kn::to_string(level);
  }
}

using TileFn = decltype(kn::Ops::gemm_tile_f32);

/// Runs `tile` over the contract's corners and asserts every result equals
/// the scalar table's bit for bit: mr 1 to kGemmTileRows; the gemm_nt_packed
/// x layout (rows k apart, p contiguous) and the gemm_tn one (rows adjacent,
/// p strided); dst and panel row strides wider than jb; pb 0 (dst unchanged),
/// 1 and several; jb across every ladder's block widths and their tails.
void expect_tile_matches_scalar(TileFn tile, const std::string& name) {
  Rng rng(71);
  const TileFn scalar = kn::ops_for(kn::Level::kScalar).gemm_tile_f32;
  for (const int64_t jb :
       {1, 3, 4, 15, 16, 17, 33, 48, 64, 65, 96, 128, 257}) {
    for (const int64_t pb : {0, 1, 5, 64}) {
      for (int64_t mr = 1; mr <= kn::kGemmTileRows; ++mr) {
        for (const bool tn_layout : {false, true}) {
          const int64_t dst_stride = jb + 3;
          const int64_t panel_stride = jb + 1;
          const int64_t x_row_stride = tn_layout ? 1 : pb + 2;
          const int64_t x_stride = tn_layout ? mr + 1 : 1;
          const std::vector<float> panel = random_floats(
              rng, static_cast<size_t>(std::max<int64_t>(pb, 1) * panel_stride));
          const std::vector<float> x = random_floats(
              rng, static_cast<size_t>(mr * x_row_stride +
                                       std::max<int64_t>(pb, 1) * x_stride));
          const std::vector<float> dst0 =
              random_floats(rng, static_cast<size_t>(mr * dst_stride));
          std::vector<float> reference = dst0;
          scalar(reference.data(), dst_stride, panel.data(), panel_stride,
                 x.data(), x_row_stride, x_stride, mr, pb, jb);
          std::vector<float> got = dst0;
          tile(got.data(), dst_stride, panel.data(), panel_stride, x.data(),
               x_row_stride, x_stride, mr, pb, jb);
          ASSERT_EQ(got, reference)
              << name << " mr=" << mr << " pb=" << pb << " jb=" << jb
              << " tn_layout=" << tn_layout;
          if (pb == 0) {
            ASSERT_EQ(got, dst0) << name << " jb=" << jb;
          }
        }
      }
    }
  }
}

TEST(KernelGemmTile, MatchesScalarBitwiseAcrossLevels) {
  for (kn::Level level : levels()) {
    expect_tile_matches_scalar(kn::ops_for(level).gemm_tile_f32,
                               kn::to_string(level));
  }
}

// Every vector level's block ladder, instantiated here at the test's own
// ISA (GCC splits vectors wider than the host's registers), so the ladder
// of a level this host cannot run -- NEON's on x86 -- still runs its
// column walk against the scalar reference.
typedef float TestF32x16 __attribute__((vector_size(64)));
typedef float TestF32x8 __attribute__((vector_size(32)));
typedef float TestF32x4 __attribute__((vector_size(16)));

TEST(KernelGemmTile, EveryLevelsLadderMatchesScalarAtBaselineIsa) {
  expect_tile_matches_scalar(
      kn::detail::gemm_tile<4, TestF32x16, TestF32x8, TestF32x4>, "avx512 ladder");
  expect_tile_matches_scalar(kn::detail::gemm_tile<2, TestF32x8, TestF32x4>,
                             "avx2 ladder");
  expect_tile_matches_scalar(kn::detail::gemm_tile<4, TestF32x4>,
                             "sse2 and neon ladder");
}

TEST(KernelDequant, PackedSpanBitIdenticalAcrossLevels) {
  Rng rng(73);
  const int64_t cols = 259;  // odd: exercises the padded tail byte
  std::vector<int8_t> codes(static_cast<size_t>(cols));
  for (int8_t& c : codes) {
    c = static_cast<int8_t>(static_cast<int64_t>(rng.next_u64() % 15) - 7);
  }
  std::vector<uint8_t> packed(static_cast<size_t>(kn::int4_row_bytes(cols)), 0);
  for (int64_t c = 0; c < cols; ++c) {
    uint8_t& b = packed[static_cast<size_t>(c >> 1)];
    b = (c & 1) ? kn::int4_pack(kn::int4_unpack_lo(b), codes[static_cast<size_t>(c)])
                : kn::int4_pack(codes[static_cast<size_t>(c)], 0);
  }
  std::vector<float> input_scale(static_cast<size_t>(cols));
  for (float& s : input_scale) s = 0.5f + std::fabs(rng.next_normal_f(0.0f, 0.3f));
  const float scale = 0.0375f;
  // col0 parity and span tails: even/odd starts, spans ending mid-byte,
  // single elements, and the full row.
  const struct { int64_t col0, n; } spans[] = {
      {0, cols}, {0, 1}, {1, 1}, {1, 64}, {2, 63}, {17, 100}, {200, 59}, {258, 1},
      // AWQ's 16-column groups: dequant_row_span hands over one group at a
      // time, so these run each level's 16-code step.
      {0, 16}, {16, 16}, {32, 31}, {48, 17}};
  for (const auto& sp : spans) {
    for (bool with_input_scale : {false, true}) {
      const float* is = with_input_scale
                            ? input_scale.data() + sp.col0
                            : nullptr;
      std::vector<float> reference(static_cast<size_t>(sp.n));
      {
        kn::ScopedLevelOverride kernel(kn::Level::kScalar);
        kn::active_ops().dequant_packed_span_f32(packed.data(), sp.col0, scale,
                                                 is, reference.data(), sp.n);
      }
      for (kn::Level level : levels()) {
        kn::ScopedLevelOverride kernel(level);
        std::vector<float> got(static_cast<size_t>(sp.n));
        kn::active_ops().dequant_packed_span_f32(packed.data(), sp.col0, scale,
                                                 is, got.data(), sp.n);
        ASSERT_EQ(got, reference)
            << "col0=" << sp.col0 << " n=" << sp.n << " input_scale="
            << with_input_scale << " level=" << kn::to_string(level);
        // Decode semantics: each lane is the signed nibble times scale.
        for (int64_t t = 0; t < sp.n; ++t) {
          float want = static_cast<float>(codes[static_cast<size_t>(sp.col0 + t)]) * scale;
          if (with_input_scale) want /= is[t];
          ASSERT_EQ(got[static_cast<size_t>(t)], want);
        }
      }
    }
  }
}

TEST(KernelDequant, PackedFusedGemmBitIdenticalAcrossLevelsAndThreads) {
  // decorated_qtensor is int4, i.e. packed storage: the fused path unpacks
  // nibbles inside the panel pack. The scalar single-thread run is the
  // reference; every level and thread count must reproduce it bitwise.
  const QuantizedTensor q = decorated_qtensor(33, 80);
  Rng rng(79);
  const int64_t m = 17;
  const std::vector<float> x =
      random_floats(rng, static_cast<size_t>(m * q.cols()));
  std::vector<float> reference(static_cast<size_t>(m * q.rows()), 0.0f);
  {
    kn::ScopedLevelOverride kernel(kn::Level::kScalar);
    ThreadPool pool(1);
    ThreadPool::ScopedOverride over(pool);
    dequant_gemm_nt(x.data(), q, reference.data(), m);
  }
  for (kn::Level level : levels()) {
    for (size_t threads : {size_t{1}, size_t{3}}) {
      kn::ScopedLevelOverride kernel(level);
      ThreadPool pool(threads);
      ThreadPool::ScopedOverride over(pool);
      std::vector<float> got(static_cast<size_t>(m * q.rows()), 0.0f);
      dequant_gemm_nt(x.data(), q, got.data(), m);
      ASSERT_EQ(got, reference)
          << kn::to_string(level) << " threads=" << threads;
    }
  }
}

// --- the repo's exp (kernels/exp_lanes.h) -------------------------------------

uint32_t float_bits(float x) {
  uint32_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

float float_from_bits(uint32_t b) {
  float x = 0.0f;
  std::memcpy(&x, &b, sizeof x);
  return x;
}

/// Bit patterns, with every NaN folded to one pattern: NaN compares as NaN.
std::vector<uint32_t> bits_of(const std::vector<float>& xs) {
  std::vector<uint32_t> out;
  out.reserve(xs.size());
  for (const float x : xs) out.push_back(std::isnan(x) ? 0x7FC00000u : float_bits(x));
  return out;
}

/// Distance in representable floats (+0 and -0 are one point).
int64_t ulp_distance(float a, float b) {
  auto ordinal = [](float x) {
    const auto i = static_cast<int32_t>(float_bits(x));
    return i < 0 ? int64_t{INT32_MIN} - i : int64_t{i};
  };
  return std::llabs(ordinal(a) - ordinal(b));
}

/// The first i < n where a[i] and b[i] differ in bits, NaN matching any
/// NaN; n when none does.
size_t first_difference(const float* a, const float* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (float_bits(a[i]) != float_bits(b[i]) && !(std::isnan(a[i]) && std::isnan(b[i]))) {
      return i;
    }
  }
  return n;
}

/// Feeds `check` the exp probe inputs in chunks until it returns false:
/// every `stride`-th of the 2^32 bit patterns, then the edges and their
/// neighbours (signed zeros, subnormals, the smallest normal, 1, both clamp
/// bounds, infinities) and NaNs.
template <typename Check>
void for_exp_probes(uint64_t stride, Check&& check) {
  constexpr size_t kChunk = size_t{1} << 16;
  std::vector<float> xs;
  xs.reserve(kChunk);
  for (uint64_t b = 0; b < (uint64_t{1} << 32); b += stride) {
    xs.push_back(float_from_bits(static_cast<uint32_t>(b)));
    if (xs.size() == kChunk) {
      if (!check(xs)) return;
      xs.clear();
    }
  }
  using lim = std::numeric_limits<float>;
  const float inf = lim::infinity();
  for (const float edge :
       {0.0f, lim::denorm_min(), std::nextafter(lim::min(), 0.0f), lim::min(),
        1.0f, kn::detail::kExpHi, -kn::detail::kExpLo, inf}) {
    for (const float x : {edge, std::nextafter(edge, inf), std::nextafter(edge, 0.0f)}) {
      xs.push_back(x);
      xs.push_back(-x);
    }
  }
  for (const float nan : {lim::quiet_NaN(), -lim::quiet_NaN(), lim::signaling_NaN(),
                          float_from_bits(0x7F800001u), float_from_bits(0xFFFFFFFFu)}) {
    xs.push_back(nan);
  }
  check(xs);
}

using ExpSpanFn = decltype(kn::Ops::exp_span_f32);
using SwigluFn = decltype(kn::Ops::swiglu_f32);
using SoftmaxColsFn = decltype(kn::Ops::causal_softmax_cols_f32);

/// One set of the exp ops under test: a level's table, or a level's ladder
/// instantiated here.
struct ExpOps {
  std::string name;
  ExpSpanFn exp_span;
  SwigluFn swiglu;
  SoftmaxColsFn softmax_cols;
};

ExpOps exp_ops_of(kn::Level level) {
  const kn::Ops& ops = kn::ops_for(level);
  return {kn::to_string(level), ops.exp_span_f32, ops.swiglu_f32,
          ops.causal_softmax_cols_f32};
}

/// exp over the probe inputs equals the scalar table's bit for bit, for
/// every op set in `all`.
void expect_exp_matches_scalar(const std::vector<ExpOps>& all, uint64_t stride) {
  const ExpSpanFn scalar = kn::ops_for(kn::Level::kScalar).exp_span_f32;
  for_exp_probes(stride, [&](const std::vector<float>& xs) {
    const auto n = static_cast<int64_t>(xs.size());
    std::vector<float> want(xs.size());
    std::vector<float> got(xs.size());
    scalar(xs.data(), 0.0f, want.data(), n);
    for (const ExpOps& ops : all) {
      if (ops.exp_span == scalar) continue;
      ops.exp_span(xs.data(), 0.0f, got.data(), n);
      const size_t i = first_difference(got.data(), want.data(), xs.size());
      if (i != xs.size()) {
        ADD_FAILURE() << ops.name << " x bits 0x" << std::hex << float_bits(xs[i]);
        return false;
      }
    }
    return true;
  });
}

/// exp_span (out of place and in place, nonzero shift) and swiglu at every
/// length 0 to 70, i.e. every rung of every ladder and its tails, equal
/// the scalar table, and write nothing past n.
void expect_spans_match_scalar(const ExpOps& ops) {
  const kn::Ops& scalar = kn::ops_for(kn::Level::kScalar);
  constexpr float kSentinel = -7.25f;
  Rng rng(83);
  for (int64_t n = 0; n <= 70; ++n) {
    const auto len = static_cast<size_t>(n);
    const std::vector<float> x = random_floats(rng, len, 6.0f);
    const std::vector<float> u = random_floats(rng, len);
    const float shift = rng.next_normal_f(0.0f, 6.0f);
    std::vector<float> want(len + 4, kSentinel);
    std::vector<float> got = want;
    scalar.exp_span_f32(x.data(), shift, want.data(), n);
    ops.exp_span(x.data(), shift, got.data(), n);
    ASSERT_EQ(bits_of(got), bits_of(want)) << ops.name << " exp_span n=" << n;
    std::vector<float> in_place = x;
    in_place.resize(len + 4, kSentinel);
    ops.exp_span(in_place.data(), shift, in_place.data(), n);
    ASSERT_EQ(bits_of(in_place), bits_of(want)) << ops.name << " in place n=" << n;

    std::fill(want.begin(), want.end(), kSentinel);
    std::fill(got.begin(), got.end(), kSentinel);
    scalar.swiglu_f32(x.data(), u.data(), want.data(), n);
    ops.swiglu(x.data(), u.data(), got.data(), n);
    ASSERT_EQ(bits_of(got), bits_of(want)) << ops.name << " swiglu n=" << n;
    for (size_t i = 0; i < len; ++i) {
      ASSERT_EQ(float_bits(got[i]), float_bits(silu(x[i]) * u[i])) << ops.name;
    }
  }
}

/// The causal column softmax of an n x n key-major block equals
/// softmax_inplace over each query's scaled scores t2 <= t1, with +0 for
/// every t2 > t1 whatever that entry held, at every n from 1 to 48.
void expect_softmax_cols_match_rows(const ExpOps& ops) {
  using lim = std::numeric_limits<float>;
  const float junk[] = {lim::quiet_NaN(), lim::infinity(), -lim::infinity(), 1e30f};
  const float scale = 0.25f;
  Rng rng(89);
  for (int64_t n = 1; n <= 48; ++n) {
    std::vector<float> block = random_floats(rng, static_cast<size_t>(n * n), 4.0f);
    for (int64_t t1 = 0; t1 < n; ++t1) {
      for (int64_t t2 = t1 + 1; t2 < n; ++t2) {
        block[static_cast<size_t>(t2 * n + t1)] = junk[(t1 + t2) % 4];
      }
    }
    std::vector<float> want(block.size(), 0.0f);
    {
      kn::ScopedLevelOverride kernel(kn::Level::kScalar);
      for (int64_t t1 = 0; t1 < n; ++t1) {
        std::vector<float> row(static_cast<size_t>(t1 + 1));
        for (int64_t t2 = 0; t2 <= t1; ++t2) {
          row[static_cast<size_t>(t2)] = block[static_cast<size_t>(t2 * n + t1)] * scale;
        }
        softmax_inplace(row);
        for (int64_t t2 = 0; t2 <= t1; ++t2) {
          want[static_cast<size_t>(t2 * n + t1)] = row[static_cast<size_t>(t2)];
        }
      }
    }
    std::vector<float> got = block;
    ops.softmax_cols(got.data(), n, scale);
    ASSERT_EQ(bits_of(got), bits_of(want)) << ops.name << " n=" << n;
  }
}

TEST(KernelExp, WithinOneUlpOfDoubleExp) {
  for_exp_probes(257, [](const std::vector<float>& xs) {
    for (const float x : xs) {
      const float got = kn::exp_f32(x);
      const bool ok =
          std::isnan(x) ? std::isnan(got)
                        : ulp_distance(got, static_cast<float>(std::exp(
                                                static_cast<double>(x)))) <= 1;
      if (!ok) {
        ADD_FAILURE() << "x bits 0x" << std::hex << float_bits(x) << ": " << got;
        return false;
      }
    }
    return true;
  });
}

TEST(KernelExp, EdgeValues) {
  using lim = std::numeric_limits<float>;
  const float inf = lim::infinity();
  const float lo = kn::detail::kExpLo;
  const float hi = kn::detail::kExpHi;
  EXPECT_EQ(float_bits(kn::exp_f32(0.0f)), float_bits(1.0f));
  EXPECT_EQ(float_bits(kn::exp_f32(-0.0f)), float_bits(1.0f));
  EXPECT_EQ(float_bits(kn::exp_f32(-inf)), 0u);
  EXPECT_EQ(kn::exp_f32(inf), inf);
  EXPECT_TRUE(std::isnan(kn::exp_f32(lim::quiet_NaN())));
  EXPECT_EQ(kn::exp_f32(lo), lim::denorm_min());
  EXPECT_EQ(float_bits(kn::exp_f32(std::nextafter(lo, -inf))), 0u);
  EXPECT_TRUE(std::isfinite(kn::exp_f32(hi)));
  EXPECT_EQ(kn::exp_f32(std::nextafter(hi, inf)), inf);
  // exp_f32 is the scalar table's lane.
  const std::vector<float> xs = {0.0f, -0.0f, 1.0f, -1.0f, 0.3f, -17.5f, lo, hi,
                                 lo * 0.9f, hi * 0.9f, -inf, inf};
  std::vector<float> table(xs.size());
  kn::ops_for(kn::Level::kScalar)
      .exp_span_f32(xs.data(), 0.0f, table.data(), static_cast<int64_t>(xs.size()));
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(float_bits(kn::exp_f32(xs[i])), float_bits(table[i])) << xs[i];
  }
}

TEST(KernelExp, EveryLevelMatchesScalarBitwise) {
  std::vector<ExpOps> all;
  for (kn::Level level : levels()) all.push_back(exp_ops_of(level));
  expect_exp_matches_scalar(all, 257);
  for (const ExpOps& ops : all) {
    expect_spans_match_scalar(ops);
    expect_softmax_cols_match_rows(ops);
  }
}

// Each vector level's exp ladder built at the test's own ISA, as for the
// GEMM tile above, so NEON's types run on x86 too.
TEST(KernelExp, EveryLevelsLadderMatchesScalarAtBaselineIsa) {
  namespace kd = kn::detail;
  const std::vector<ExpOps> ladders = {
      {"avx512 ladder", kd::exp_span<TestF32x16, TestF32x8, TestF32x4>,
       kd::swiglu<TestF32x16, TestF32x8, TestF32x4>,
       kd::causal_softmax_cols<TestF32x16, TestF32x8, TestF32x4>},
      {"avx2 ladder", kd::exp_span<TestF32x8, TestF32x4>,
       kd::swiglu<TestF32x8, TestF32x4>,
       kd::causal_softmax_cols<TestF32x8, TestF32x4>},
      {"sse2 and neon ladder", kd::exp_span<TestF32x4>, kd::swiglu<TestF32x4>,
       kd::causal_softmax_cols<TestF32x4>},
  };
  expect_exp_matches_scalar(ladders, 4099);
  for (const ExpOps& ops : ladders) {
    expect_spans_match_scalar(ops);
    expect_softmax_cols_match_rows(ops);
  }
}

}  // namespace
}  // namespace emmark
