// TransformerLM: construction, shapes, loss semantics, persistence, clone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "data/vocab.h"
#include "nn/transformer.h"

namespace emmark {
namespace {

ModelConfig tiny_config(ArchFamily family) {
  ModelConfig config;
  config.family = family;
  config.vocab_size = synth_vocab().size();
  config.d_model = 16;
  config.n_layers = 2;
  config.n_heads = 2;
  config.ffn_hidden = 32;
  config.max_seq = 16;
  config.init_seed = 5;
  return config;
}

Batch random_batch(int64_t batch, int64_t seq, int64_t vocab, uint64_t seed) {
  Rng rng(seed);
  Batch b;
  b.batch_size = batch;
  b.seq_len = seq;
  b.inputs.resize(static_cast<size_t>(batch * seq));
  b.targets.resize(static_cast<size_t>(batch * seq));
  for (auto& t : b.inputs) t = static_cast<TokenId>(rng.next_below(static_cast<uint64_t>(vocab)));
  for (auto& t : b.targets) t = static_cast<TokenId>(rng.next_below(static_cast<uint64_t>(vocab)));
  return b;
}

class TransformerFamilies : public ::testing::TestWithParam<ArchFamily> {};

TEST_P(TransformerFamilies, LogitsShape) {
  TransformerLM model(tiny_config(GetParam()));
  std::vector<TokenId> tokens{1, 2, 3, 4, 5};
  const Tensor logits = model.logits(tokens);
  EXPECT_EQ(logits.dim(0), 5);
  EXPECT_EQ(logits.dim(1), synth_vocab().size());
  EXPECT_FALSE(logits.has_non_finite());
}

TEST_P(TransformerFamilies, InitialLossNearUniform) {
  TransformerLM model(tiny_config(GetParam()));
  const Batch batch = random_batch(4, 8, synth_vocab().size(), 1);
  const LossStats stats = model.forward_loss(batch);
  // Untrained model should be close to ln(vocab) per token.
  EXPECT_NEAR(stats.mean_nll(), std::log(static_cast<double>(synth_vocab().size())), 0.5);
  EXPECT_EQ(stats.tokens, 32);
}

TEST_P(TransformerFamilies, PaddingTargetsExcluded) {
  TransformerLM model(tiny_config(GetParam()));
  Batch batch = random_batch(2, 6, synth_vocab().size(), 2);
  for (size_t i = 6; i < 12; ++i) batch.targets[i] = -1;  // mask second row
  const LossStats stats = model.forward_loss(batch);
  EXPECT_EQ(stats.tokens, 6);
}

TEST_P(TransformerFamilies, QuantizableLinearOrderAndCount) {
  TransformerLM model(tiny_config(GetParam()));
  const auto linears = model.quantizable_linears();
  const int64_t per_block = GetParam() == ArchFamily::kOptStyle ? 6 : 7;
  EXPECT_EQ(static_cast<int64_t>(linears.size()), 2 * per_block + 1);
  EXPECT_EQ(linears.front().name, "blocks.0.attn.q_proj");
  EXPECT_EQ(linears.back().name, "lm_head");
  for (const auto& ref : linears) EXPECT_NE(ref.linear, nullptr);
}

TEST_P(TransformerFamilies, CloneIsDeepAndExact) {
  TransformerLM model(tiny_config(GetParam()));
  auto copy = model.clone();
  const std::vector<TokenId> tokens{3, 1, 4, 1, 5};
  const Tensor a = model.logits(tokens);
  const Tensor b = copy->logits(tokens);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.flat()[i], b.flat()[i]);

  // Mutating the clone must not touch the original.
  copy->quantizable_linears()[0].linear->weight().value.fill(0.0f);
  const Tensor c = model.logits(tokens);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.flat()[i], c.flat()[i]);
}

TEST_P(TransformerFamilies, CloneMatchesSourceByParameterNameAndShape) {
  TransformerLM model(tiny_config(GetParam()));
  (void)model.forward_loss(random_batch(2, 8, model.config().vocab_size, 3));
  model.attach_lora_all(/*rank=*/2, /*alpha=*/4.0f, /*seed=*/9);
  auto copy = model.clone();
  const auto src = model.parameters();
  const auto dst = copy->parameters();
  ASSERT_EQ(src.size(), dst.size());
  for (size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(dst[i]->name, src[i]->name);
    EXPECT_EQ(dst[i]->value.shape(), src[i]->value.shape()) << src[i]->name;
    EXPECT_EQ(dst[i]->grad.shape(), src[i]->grad.shape()) << src[i]->name;
    EXPECT_TRUE(std::equal(dst[i]->value.flat().begin(), dst[i]->value.flat().end(),
                           src[i]->value.flat().begin()))
        << src[i]->name;
    EXPECT_NE(dst[i]->value.data(), src[i]->value.data()) << src[i]->name;
  }
  // LoRA adapters are copied, not shared.
  copy->quantizable_linears()[0].linear->lora()->b().value.fill(1.0f);
  EXPECT_EQ(model.quantizable_linears()[0].linear->lora()->b().value.abs_max(), 0.0f);
}

TEST_P(TransformerFamilies, SaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("emmark_tf_" + std::string(to_string(GetParam())) + ".ckpt"))
          .string();
  TransformerLM model(tiny_config(GetParam()));
  model.save(path);
  auto loaded = TransformerLM::load(path);
  const std::vector<TokenId> tokens{7, 8, 9};
  const Tensor a = model.logits(tokens);
  const Tensor b = loaded->logits(tokens);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.flat()[i], b.flat()[i]);
  std::remove(path.c_str());
}

TEST_P(TransformerFamilies, OptionLogprobAdditivity) {
  TransformerLM model(tiny_config(GetParam()));
  const std::vector<TokenId> context{1, 2, 3};
  const std::vector<TokenId> option{4, 5};
  const double joint = model.option_logprob(context, option);
  // Chain rule: logprob of [4,5] = logprob of [4] + logprob of [5] given
  // context + [4].
  const double first = model.option_logprob(context, {4});
  std::vector<TokenId> extended{1, 2, 3, 4};
  const double second = model.option_logprob(extended, {5});
  EXPECT_NEAR(joint, first + second, 1e-4);
  EXPECT_LT(joint, 0.0);
}

TEST_P(TransformerFamilies, RejectsOverlongSequence) {
  TransformerLM model(tiny_config(GetParam()));
  std::vector<TokenId> tokens(20, 1);
  EXPECT_THROW(model.logits(tokens), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(BothFamilies, TransformerFamilies,
                         ::testing::Values(ArchFamily::kOptStyle,
                                           ArchFamily::kLlamaStyle));

TEST(Transformer, RejectsBadConfig) {
  ModelConfig config = tiny_config(ArchFamily::kOptStyle);
  config.vocab_size = 0;
  EXPECT_THROW(TransformerLM{config}, std::invalid_argument);
  config = tiny_config(ArchFamily::kOptStyle);
  config.n_heads = 3;  // 16 % 3 != 0
  EXPECT_THROW(TransformerLM{config}, std::invalid_argument);
}

TEST(Transformer, ParameterCountsDifferByFamily) {
  TransformerLM opt(tiny_config(ArchFamily::kOptStyle));
  TransformerLM llama(tiny_config(ArchFamily::kLlamaStyle));
  EXPECT_GT(opt.parameter_count(), 0);
  EXPECT_GT(llama.parameter_count(), 0);
  EXPECT_NE(opt.parameter_count(), llama.parameter_count());
}

TEST(Transformer, FamilyToString) {
  EXPECT_STREQ(to_string(ArchFamily::kOptStyle), "opt-style");
  EXPECT_STREQ(to_string(ArchFamily::kLlamaStyle), "llama-style");
}

}  // namespace
}  // namespace emmark
