// Model zoo registry and cache behaviour. Uses a throwaway cache directory
// and the smallest model only, to keep test time bounded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "model_zoo/zoo.h"
#include "quant/qmodel.h"

namespace emmark {
namespace {

TEST(Zoo, RegistryHasNinePaperModels) {
  const auto& entries = zoo_entries();
  ASSERT_EQ(entries.size(), 9u);
  int opt = 0, llama = 0;
  for (const auto& e : entries) {
    if (e.family == ArchFamily::kOptStyle) ++opt;
    if (e.family == ArchFamily::kLlamaStyle) ++llama;
  }
  EXPECT_EQ(opt, 6);   // OPT 125M..30B
  EXPECT_EQ(llama, 3);  // LLaMA-2 7B/13B/70B
}

TEST(Zoo, EntriesScaleMonotonically) {
  // Within a family, larger paper models never shrink in width or depth.
  const auto& entries = zoo_entries();
  for (size_t i = 1; i < 6; ++i) {
    EXPECT_GE(entries[i].d_model * entries[i].n_layers,
              entries[i - 1].d_model * entries[i - 1].n_layers)
        << entries[i].name;
  }
}

TEST(Zoo, LookupByName) {
  EXPECT_EQ(zoo_entry("opt-2.7b-sim").paper_name, "OPT-2.7B");
  EXPECT_EQ(zoo_entry("llama2-70b-sim").family, ArchFamily::kLlamaStyle);
  EXPECT_THROW(zoo_entry("gpt-5"), std::out_of_range);
}

TEST(Zoo, ConfigRespectsEntry) {
  ModelZoo zoo;
  const ZooEntry& entry = zoo_entry("opt-125m-sim");
  const ModelConfig config = zoo.config_for(entry);
  EXPECT_EQ(config.d_model, entry.d_model);
  EXPECT_EQ(config.n_layers, entry.n_layers);
  EXPECT_EQ(config.vocab_size, synth_vocab().size());
  EXPECT_EQ(config.family, ArchFamily::kOptStyle);
}

TEST(Zoo, EnvironmentFixturesPopulated) {
  ModelZoo zoo;
  EXPECT_GT(zoo.env().corpus.train.size(), 100'000u);
  EXPECT_GT(zoo.env().corpus_shift_a.train.size(), 30'000u);
  EXPECT_EQ(zoo.env().tasks.size(), 4u);
}

TEST(Zoo, TrainCachesAndReloadsIdentically) {
  const std::string cache =
      (std::filesystem::temp_directory_path() / "emmark_zoo_test_cache").string();
  std::filesystem::remove_all(cache);

  // The cache round-trip under test is training-length agnostic, so cap the
  // throwaway model at a few steps instead of the full 500-step retrain.
  ModelZoo zoo(cache);
  zoo.set_train_steps_cap(40);
  auto first = zoo.model("opt-125m-sim");  // trains (capped, well under 1s)
  // Capped checkpoints cache under a distinct key, never the full one.
  ASSERT_TRUE(std::filesystem::exists(cache + "/opt-125m-sim-cap40.ckpt"));
  EXPECT_FALSE(std::filesystem::exists(cache + "/opt-125m-sim.ckpt"));

  ModelZoo zoo2(cache);
  zoo2.set_train_steps_cap(40);
  auto second = zoo2.model("opt-125m-sim");  // loads from cache
  const std::vector<TokenId> probe{2, 5, 9, 11};
  const Tensor a = first->logits(probe);
  const Tensor b = second->logits(probe);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.flat()[i], b.flat()[i]);

  // Stats are cached alongside and have one entry per linear.
  auto stats = zoo2.stats("opt-125m-sim");
  EXPECT_EQ(stats->layers.size(), first->quantizable_linears().size());
  ASSERT_TRUE(std::filesystem::exists(cache + "/opt-125m-sim-cap40.stats"));

  std::filesystem::remove_all(cache);
}

/// The 4-byte archive version that follows the 8-byte magic.
uint32_t archive_version(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  in.seekg(8);
  uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof version);
  return version;
}

void patch_archive_version(const std::string& path, uint32_t version) {
  std::fstream io(path, std::ios::in | std::ios::out | std::ios::binary);
  io.seekp(8);
  io.write(reinterpret_cast<const char*>(&version), sizeof version);
}

TEST(Zoo, ArchivesFromBeforeTheOwnExpAreRebuiltNotLoaded) {
  // Checkpoint version 2 and stats version 1 were trained through libm's
  // expf; the repo's own exp moved every trained weight, so the zoo must
  // retrain and rewrite such files instead of loading them.
  const std::string cache =
      (std::filesystem::temp_directory_path() / "emmark_zoo_version_cache").string();
  std::filesystem::remove_all(cache);
  const std::string ckpt = cache + "/opt-125m-sim-cap40.ckpt";
  const std::string stats = cache + "/opt-125m-sim-cap40.stats";
  const std::vector<TokenId> probe{2, 5, 9, 11};
  Tensor trained;
  uint32_t ckpt_version = 0, stats_version = 0;
  {
    ModelZoo zoo(cache);
    zoo.set_train_steps_cap(40);
    trained = zoo.model("opt-125m-sim")->logits(probe);
    (void)zoo.stats("opt-125m-sim");
    ckpt_version = archive_version(ckpt);
    stats_version = archive_version(stats);
  }
  EXPECT_GT(ckpt_version, 2u);
  EXPECT_GT(stats_version, 1u);
  patch_archive_version(ckpt, 2);
  patch_archive_version(stats, 1);

  ModelZoo zoo(cache);
  zoo.set_train_steps_cap(40);
  const Tensor retrained = zoo.model("opt-125m-sim")->logits(probe);
  EXPECT_EQ(archive_version(ckpt), ckpt_version);
  (void)zoo.stats("opt-125m-sim");
  EXPECT_EQ(archive_version(stats), stats_version);
  // Training is deterministic, so the rebuilt model is the one first trained.
  ASSERT_EQ(retrained.numel(), trained.numel());
  for (int64_t i = 0; i < trained.numel(); ++i) {
    EXPECT_EQ(retrained.flat()[i], trained.flat()[i]);
  }
  std::filesystem::remove_all(cache);
}

TEST(Zoo, FinetunedVariantDiffersFromBase) {
  const std::string cache =
      (std::filesystem::temp_directory_path() / "emmark_zoo_ft_cache").string();
  std::filesystem::remove_all(cache);

  ModelZoo zoo(cache);
  zoo.set_train_steps_cap(40);  // weight movement, not quality, is under test
  auto base = zoo.model("opt-125m-sim");
  auto tuned = zoo.finetuned("opt-125m-sim", "alpaca");
  // Weights moved.
  double diff = 0.0;
  auto bp = base->parameters();
  auto tp = tuned->parameters();
  ASSERT_EQ(bp.size(), tp.size());
  for (size_t i = 0; i < bp.size(); ++i) {
    Tensor d = bp[i]->value;
    d.axpy_(-1.0f, tp[i]->value);
    diff += d.squared_norm();
  }
  EXPECT_GT(diff, 1e-4);
  EXPECT_THROW(zoo.finetuned("opt-125m-sim", "bogus"), std::invalid_argument);
  std::filesystem::remove_all(cache);
}

TEST(Zoo, CodesSnapshotRoundTripsOnInt4AndInt8Models) {
  // save_codes -> load_codes onto a fresh copy of the original reproduces
  // a modified model exactly: the unpacked grid and the resident bytes.
  const std::string cache =
      (std::filesystem::temp_directory_path() / "emmark_zoo_codes_cache").string();
  const std::string path =
      (std::filesystem::temp_directory_path() / "emmark_zoo_roundtrip.codes").string();
  std::filesystem::remove_all(cache);
  ModelZoo zoo(cache);
  zoo.set_train_steps_cap(25);
  auto fp = zoo.model("opt-125m-sim");
  auto stats = zoo.stats("opt-125m-sim");
  for (const QuantMethod method : {QuantMethod::kAwqInt4, QuantMethod::kSmoothQuantInt8}) {
    const QuantizedModel original(*fp, *stats, method);
    QuantizedModel modified = original;
    for (int64_t i = 0; i < modified.num_layers(); ++i) {
      QuantizedTensor& w = modified.layer(i).weights;
      for (int64_t k = i % 7; k < w.numel(); k += 7) {
        w.set_code_flat(k, static_cast<int8_t>(-w.code_flat(k)));
      }
    }
    modified.save_codes(path);
    QuantizedModel loaded = original;
    loaded.load_codes(path);
    for (int64_t i = 0; i < loaded.num_layers(); ++i) {
      const QuantizedTensor& got = loaded.layer(i).weights;
      const QuantizedTensor& want = modified.layer(i).weights;
      EXPECT_EQ(got.codes(), want.codes()) << to_string(method) << " layer " << i;
      EXPECT_TRUE(std::ranges::equal(got.storage(), want.storage()))
          << to_string(method) << " layer " << i;
    }
  }
  std::remove(path.c_str());
  std::filesystem::remove_all(cache);
}

}  // namespace
}  // namespace emmark
