// End-to-end gradient verification: analytic parameter gradients of the
// full transformer loss vs central finite differences, for both families.
// This is the single most load-bearing test of the NN substrate.
#include <gtest/gtest.h>

#include "nn/transformer.h"

namespace emmark {
namespace {

ModelConfig micro_config(ArchFamily family) {
  ModelConfig config;
  config.family = family;
  config.vocab_size = 11;
  config.d_model = 8;
  config.n_layers = 1;
  config.n_heads = 2;
  config.ffn_hidden = 12;
  config.max_seq = 6;
  config.init_seed = 77;
  return config;
}

Batch micro_batch(uint64_t seed) {
  Rng rng(seed);
  Batch batch;
  batch.batch_size = 2;
  batch.seq_len = 5;
  batch.inputs.resize(10);
  batch.targets.resize(10);
  for (auto& t : batch.inputs) t = static_cast<TokenId>(rng.next_below(11));
  for (auto& t : batch.targets) t = static_cast<TokenId>(rng.next_below(11));
  return batch;
}

void expect_gradients_match_finite_differences(TransformerLM& model) {
  const Batch batch = micro_batch(3);

  for (Parameter* p : model.parameters()) p->zero_grad();
  (void)model.forward_loss(batch);
  model.backward();

  auto loss_at = [&]() { return model.forward_loss(batch).mean_nll(); };

  const float h = 5e-3f;
  Rng pick(9);
  auto params = model.parameters();
  int checked = 0;
  for (Parameter* p : params) {
    // Two random elements per parameter tensor.
    for (int trial = 0; trial < 2; ++trial) {
      const int64_t idx =
          static_cast<int64_t>(pick.next_below(static_cast<uint64_t>(p->numel())));
      const float saved = p->value.flat()[idx];
      p->value.flat()[idx] = saved + h;
      const double up = loss_at();
      p->value.flat()[idx] = saved - h;
      const double down = loss_at();
      p->value.flat()[idx] = saved;

      const double numeric = (up - down) / (2.0 * h);
      const double analytic = p->grad.flat()[idx];
      const double tol = 2e-2 + 0.05 * std::fabs(numeric);
      EXPECT_NEAR(analytic, numeric, tol)
          << p->name << "[" << idx << "]";
      ++checked;
    }
  }
  EXPECT_GT(checked, 20);
}

class GradCheck : public ::testing::TestWithParam<ArchFamily> {};

TEST_P(GradCheck, ParameterGradientsMatchFiniteDifferences) {
  TransformerLM model(micro_config(GetParam()));
  expect_gradients_match_finite_differences(model);
}

TEST_P(GradCheck, CloneGradientsMatchFiniteDifferences) {
  // A clone is a trainable model: it keeps one activation cache per block
  // (the shared-buffer rule is for eval-only views), even when its source
  // has already run forwards. Two blocks, so a shared cache would show.
  ModelConfig config = micro_config(GetParam());
  config.n_layers = 2;
  TransformerLM model(config);
  (void)model.forward_loss(micro_batch(5));
  const std::unique_ptr<TransformerLM> copy = model.clone();
  expect_gradients_match_finite_differences(*copy);
}

TEST_P(GradCheck, GradientsAreFiniteAndMostlyNonzero) {
  TransformerLM model(micro_config(GetParam()));
  const Batch batch = micro_batch(4);
  for (Parameter* p : model.parameters()) p->zero_grad();
  (void)model.forward_loss(batch);
  model.backward();
  int64_t nonzero_tensors = 0;
  for (Parameter* p : model.parameters()) {
    EXPECT_FALSE(p->grad.has_non_finite()) << p->name;
    if (p->grad.abs_max() > 0.0f) ++nonzero_tensors;
  }
  // Every parameter tensor should receive gradient from a dense LM loss
  // (token embedding rows of unused tokens are the exception, but the
  // tensor as a whole still gets gradient).
  EXPECT_EQ(nonzero_tensors, static_cast<int64_t>(model.parameters().size()));
}

INSTANTIATE_TEST_SUITE_P(BothFamilies, GradCheck,
                         ::testing::Values(ArchFamily::kOptStyle,
                                           ArchFamily::kLlamaStyle));

}  // namespace
}  // namespace emmark
