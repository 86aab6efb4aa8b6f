#include "model_zoo/zoo.h"

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <stdexcept>

#include "nn/trainer.h"
#include "util/env.h"
#include "util/log.h"
#include "util/serialize.h"
#include "util/threadpool.h"

namespace emmark {
namespace {

constexpr uint64_t kCorpusSeed = 7;
constexpr int64_t kMaxSeq = 48;
constexpr const char* kStatsMagic = "EMMSTAT";
// Version 2: collected from version-3 checkpoints (nn/transformer.cpp).
constexpr uint32_t kStatsVersion = 2;

}  // namespace

const std::vector<ZooEntry>& zoo_entries() {
  static const std::vector<ZooEntry> entries = {
      // name              paper      family                    d    L  h  ffn  steps
      {"opt-125m-sim", "OPT-125M", ArchFamily::kOptStyle, 32, 2, 2, 128, 500},
      {"opt-1.3b-sim", "OPT-1.3B", ArchFamily::kOptStyle, 48, 2, 4, 192, 500},
      {"opt-2.7b-sim", "OPT-2.7B", ArchFamily::kOptStyle, 48, 3, 4, 192, 500},
      {"opt-6.7b-sim", "OPT-6.7B", ArchFamily::kOptStyle, 64, 3, 4, 256, 440},
      {"opt-13b-sim", "OPT-13B", ArchFamily::kOptStyle, 64, 4, 4, 256, 440},
      {"opt-30b-sim", "OPT-30B", ArchFamily::kOptStyle, 96, 4, 6, 384, 360},
      {"llama2-7b-sim", "LLaMA-2-7B", ArchFamily::kLlamaStyle, 64, 3, 4, 160, 440},
      {"llama2-13b-sim", "LLaMA-2-13B", ArchFamily::kLlamaStyle, 64, 4, 4, 160, 440},
      {"llama2-70b-sim", "LLaMA-2-70B", ArchFamily::kLlamaStyle, 96, 6, 6, 224, 360},
  };
  return entries;
}

const ZooEntry& zoo_entry(const std::string& name) {
  for (const ZooEntry& entry : zoo_entries()) {
    if (entry.name == name) return entry;
  }
  throw std::out_of_range("unknown zoo model: " + name);
}

ModelZoo::ModelZoo(std::string cache_directory)
    : cache_dir_(cache_directory.empty() ? cache_dir() : std::move(cache_directory)) {
  std::error_code ec;
  std::filesystem::create_directories(cache_dir_, ec);
  const Vocab& vocab = synth_vocab();
  CorpusConfig main_cfg;
  main_cfg.seed = kCorpusSeed;
  env_.corpus = make_corpus(vocab, main_cfg);

  CorpusConfig shift_a = main_cfg;
  shift_a.seed = kCorpusSeed + 101;
  shift_a.style = shifted_style_a();
  shift_a.train_tokens = 40'000;
  env_.corpus_shift_a = make_corpus(vocab, shift_a);

  CorpusConfig shift_b = main_cfg;
  shift_b.seed = kCorpusSeed + 202;
  shift_b.style = shifted_style_b();
  shift_b.train_tokens = 40'000;
  env_.corpus_shift_b = make_corpus(vocab, shift_b);

  env_.tasks = make_task_suite(vocab, /*items_per_task=*/120, /*seed=*/kCorpusSeed + 303);
}

ModelConfig ModelZoo::config_for(const ZooEntry& entry) const {
  ModelConfig config;
  config.family = entry.family;
  config.vocab_size = synth_vocab().size();
  config.d_model = entry.d_model;
  config.n_layers = entry.n_layers;
  config.n_heads = entry.n_heads;
  config.ffn_hidden = entry.ffn_hidden;
  config.max_seq = kMaxSeq;
  // Deterministic per-model init seed.
  config.init_seed = 1000 + std::hash<std::string>{}(entry.name) % 100000;
  return config;
}

TrainConfig ModelZoo::train_config_for(const ZooEntry& entry) const {
  TrainConfig config;
  config.steps = train_steps_cap_ > 0 ? std::min(entry.train_steps, train_steps_cap_)
                                      : entry.train_steps;
  config.batch_size = 8;
  config.seq_len = 32;
  config.lr = 3e-3;
  config.seed = 90'000 + std::hash<std::string>{}(entry.name) % 100000;
  return config;
}

std::string ModelZoo::checkpoint_path(const std::string& key) const {
  // Step-capped artifacts get their own cache namespace: an under-trained
  // checkpoint silently standing in for the full model would corrupt every
  // later bench/CLI run that hits the shared cache.
  const std::string suffix =
      train_steps_cap_ > 0 ? "-cap" + std::to_string(train_steps_cap_) : "";
  const auto dot = key.rfind('.');
  const std::string name = dot == std::string::npos ? key : key.substr(0, dot);
  const std::string ext = dot == std::string::npos ? "" : key.substr(dot);
  return path_join(cache_dir_, name + suffix + ext);
}

std::shared_ptr<TransformerLM> ModelZoo::train_from_scratch(const ZooEntry& entry) {
  auto model = std::make_shared<TransformerLM>(config_for(entry));
  Trainer trainer(*model, env_.corpus.train, train_config_for(entry));
  EMMARK_INFO("training %s (%lld params)...", entry.name.c_str(),
              static_cast<long long>(model->parameter_count()));
  const double loss = trainer.train();
  EMMARK_INFO("trained %s, final loss %.4f", entry.name.c_str(), loss);
  return model;
}

std::shared_ptr<TransformerLM> ModelZoo::model(const std::string& name) {
  const ZooEntry& entry = zoo_entry(name);
  const std::string path = checkpoint_path(name + ".ckpt");
  if (file_exists(path)) {
    try {
      return std::shared_ptr<TransformerLM>(TransformerLM::load(path));
    } catch (const SerializeError& e) {
      EMMARK_WARN("stale checkpoint %s (%s); retraining", path.c_str(), e.what());
    }
  }
  auto model = train_from_scratch(entry);
  model->save(path);
  return model;
}

std::shared_ptr<const ActivationStats> ModelZoo::stats(const std::string& name) {
  const std::string path = checkpoint_path(name + ".stats");
  if (file_exists(path)) {
    try {
      BinaryReader reader(path, kStatsMagic, kStatsVersion);
      return std::make_shared<ActivationStats>(ActivationStats::load(reader));
    } catch (const SerializeError& e) {
      EMMARK_WARN("stale stats %s (%s); recollecting", path.c_str(), e.what());
    }
  }
  auto fp_model = model(name);
  CalibConfig calib;
  auto stats = std::make_shared<ActivationStats>(
      collect_activation_stats(*fp_model, env_.corpus.train, calib));
  BinaryWriter writer(path, kStatsMagic, kStatsVersion);
  stats->save(writer);
  writer.close();
  return stats;
}

std::shared_ptr<TransformerLM> ModelZoo::finetuned(const std::string& name,
                                                   const std::string& variant) {
  const std::vector<TokenId>* stream = nullptr;
  if (variant == "alpaca") {
    stream = &env_.corpus_shift_a.train;
  } else if (variant == "wikitext") {
    stream = &env_.corpus_shift_b.train;
  } else {
    throw std::invalid_argument("unknown fine-tune variant: " + variant);
  }

  const std::string key = name + "-ft-" + variant + ".ckpt";
  const std::string path = checkpoint_path(key);
  if (file_exists(path)) {
    try {
      return std::shared_ptr<TransformerLM>(TransformerLM::load(path));
    } catch (const SerializeError& e) {
      EMMARK_WARN("stale checkpoint %s (%s); re-finetuning", path.c_str(), e.what());
    }
  }

  auto base = model(name);
  auto tuned = std::shared_ptr<TransformerLM>(base->clone());
  TrainConfig config = train_config_for(zoo_entry(name));
  config.steps = train_steps_cap_ > 0 ? std::min<int64_t>(150, train_steps_cap_) : 150;
  config.lr = 1e-3;
  config.seed += 7;
  Trainer trainer(*tuned, *stream, config);
  trainer.train();
  tuned->save(path);
  return tuned;
}

void ModelZoo::prepare_all(size_t threads) {
  const auto& entries = zoo_entries();
  std::vector<std::string> missing;
  for (const ZooEntry& entry : entries) {
    if (!file_exists(checkpoint_path(entry.name + ".ckpt"))) {
      missing.push_back(entry.name);
    }
  }
  if (missing.empty()) return;

  ThreadPool pool(std::min(threads, missing.size()));
  std::mutex mutex;
  pool.parallel_for(missing.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      // model() itself is not thread-safe for the same name, but names are
      // disjoint across chunks; the cache directory accepts concurrent
      // writes of different files.
      ModelZoo local(cache_dir_);
      (void)local.model(missing[i]);
      std::lock_guard<std::mutex> lock(mutex);
      EMMARK_INFO("prepared %s", missing[i].c_str());
    }
  });
}

}  // namespace emmark
