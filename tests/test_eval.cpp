// Perplexity and zero-shot evaluators.
#include <gtest/gtest.h>

#include "data/corpus.h"
#include "eval/perplexity.h"
#include "eval/report.h"
#include "eval/zeroshot.h"
#include "nn/trainer.h"
#include "quant/calib.h"
#include "quant/qmodel.h"
#include "util/threadpool.h"

namespace emmark {
namespace {

struct EvalFixture {
  EvalFixture() {
    ModelConfig config;
    config.family = ArchFamily::kOptStyle;
    config.vocab_size = synth_vocab().size();
    config.d_model = 16;
    config.n_layers = 1;
    config.n_heads = 2;
    config.ffn_hidden = 32;
    config.max_seq = 24;
    config.init_seed = 8;
    model = std::make_unique<TransformerLM>(config);
    CorpusConfig cc;
    cc.train_tokens = 20'000;
    corpus = make_corpus(synth_vocab(), cc);
  }
  void train_briefly() {
    TrainConfig config;
    config.steps = 150;
    config.seq_len = 24;
    Trainer trainer(*model, corpus.train, config);
    trainer.train();
  }
  std::unique_ptr<TransformerLM> model;
  Corpus corpus;
};

TEST(Perplexity, UntrainedNearUniform) {
  EvalFixture f;
  PplConfig config;
  config.seq_len = 16;
  const double ppl = perplexity(*f.model, f.corpus.valid, config);
  EXPECT_NEAR(ppl, static_cast<double>(synth_vocab().size()), 12.0);
}

TEST(Perplexity, DropsAfterTraining) {
  EvalFixture f;
  PplConfig config;
  config.seq_len = 16;
  const double before = perplexity(*f.model, f.corpus.valid, config);
  f.train_briefly();
  const double after = perplexity(*f.model, f.corpus.valid, config);
  EXPECT_LT(after, before * 0.5);
  EXPECT_GT(after, 1.0);
}

TEST(Perplexity, EmptyStreamGivesZero) {
  EvalFixture f;
  EXPECT_EQ(perplexity(*f.model, {}, {}), 0.0);
}

TEST(Perplexity, BatchMergingInvariant) {
  // Merging consecutive eval windows into one forward pass leaves every
  // per-row activation and per-token log-probability bit-identical (rows
  // are independent through every layer), and the per-token values are
  // summed once in stream order after the last forward, so the perplexity
  // is the same double at every merge cap -- including caps smaller than
  // one window (which still evaluate one tile at a time) and 0 (merging
  // disabled) -- with the forward's ops on one thread or fanned out on four.
  EvalFixture f;
  f.train_briefly();
  PplConfig config;
  config.batch_size = 2;
  config.seq_len = 16;
  config.max_tokens_per_forward = 0;
  const double unmerged = perplexity(*f.model, f.corpus.valid, config);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    ThreadPool::ScopedOverride over(pool);
    for (const int64_t cap : {int64_t{0}, int64_t{1}, int64_t{32}, int64_t{96},
                              int64_t{4096}}) {
      config.max_tokens_per_forward = cap;
      EXPECT_EQ(perplexity(*f.model, f.corpus.valid, config), unmerged)
          << "cap=" << cap << " threads=" << threads;
    }
  }
}

TEST(Perplexity, WindowSharesKeepEdgeCases) {
  // perplexity(QuantizedModel) fans the windows out to pool workers; the
  // edges must not move with it. On a 4-thread pool a stream with no
  // target still scores 0, and a window longer than the model's max_seq
  // still throws std::invalid_argument, rethrown on the calling thread --
  // through the fused shares and through the TransformerLM overload alike.
  EvalFixture f;
  CalibConfig calib;
  calib.batches = 2;
  calib.seq_len = 16;
  const ActivationStats stats =
      collect_activation_stats(*f.model, f.corpus.train, calib);
  const QuantizedModel qm(*f.model, stats, QuantMethod::kRtnInt8);
  ThreadPool pool(4);
  ThreadPool::ScopedOverride over(pool);
  const std::vector<TokenId> one_token(f.corpus.valid.begin(),
                                       f.corpus.valid.begin() + 1);
  EXPECT_EQ(perplexity(qm, {}, {}), 0.0);
  EXPECT_EQ(perplexity(qm, one_token, {}), 0.0);
  EXPECT_EQ(perplexity(*f.model, one_token, {}), 0.0);

  PplConfig too_long;
  too_long.seq_len = f.model->config().max_seq + 1;
  EXPECT_THROW(perplexity(qm, f.corpus.valid, too_long), std::invalid_argument);
  EXPECT_THROW(perplexity(*f.model, f.corpus.valid, too_long),
               std::invalid_argument);
  // A window of no tokens would never advance through the stream.
  PplConfig empty_window;
  empty_window.seq_len = 0;
  EXPECT_THROW(perplexity(qm, f.corpus.valid, empty_window), std::invalid_argument);
}

TEST(ZeroShot, UntrainedNearChance) {
  EvalFixture f;
  const auto suite = make_task_suite(synth_vocab(), 40, 3);
  const ZeroShotResult result = evaluate_zeroshot(*f.model, suite);
  ASSERT_EQ(result.tasks.size(), 4u);
  double chance = 0.0;
  for (const auto& t : suite) chance += t.chance_accuracy;
  chance = 100.0 * chance / 4.0;
  EXPECT_NEAR(result.mean_accuracy_pct, chance, 20.0);
}

TEST(ZeroShot, ImprovesWithTraining) {
  EvalFixture f;
  const auto suite = make_task_suite(synth_vocab(), 40, 3);
  const double before = evaluate_zeroshot(*f.model, suite).mean_accuracy_pct;
  f.train_briefly();
  const double after = evaluate_zeroshot(*f.model, suite).mean_accuracy_pct;
  EXPECT_GT(after, before + 10.0);
  EXPECT_GT(after, 60.0);
}

TEST(ZeroShot, PerTaskResultsPopulated) {
  EvalFixture f;
  const auto suite = make_task_suite(synth_vocab(), 10, 4);
  const ZeroShotResult result = evaluate_zeroshot(*f.model, suite);
  for (const auto& task : result.tasks) {
    EXPECT_EQ(task.items, 10);
    EXPECT_GE(task.accuracy, 0.0);
    EXPECT_LE(task.accuracy, 1.0);
  }
  EXPECT_EQ(result.tasks[0].name, "s-lambada");
}

TEST(Report, TableRendersAlignedRows) {
  TablePrinter table({"Model", "PPL", "WER"});
  table.add_row({"opt-125m-sim", "33.96", "100"});
  table.add_row({"llama2-70b-sim", TablePrinter::fmt(4.94), "100"});
  const std::string out = table.render();
  EXPECT_NE(out.find("opt-125m-sim"), std::string::npos);
  EXPECT_NE(out.find("4.94"), std::string::npos);
  EXPECT_NE(out.find("|----"), std::string::npos);
  // Every line has the same length (aligned columns).
  size_t line_len = out.find('\n');
  size_t pos = 0;
  while (pos < out.size()) {
    const size_t next = out.find('\n', pos);
    if (next == std::string::npos) break;
    EXPECT_EQ(next - pos, line_len);
    pos = next + 1;
  }
}

TEST(Report, FmtPrecision) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(3.14159, 4), "3.1416");
  EXPECT_EQ(TablePrinter::fmt(-0.5, 1), "-0.5");
}

TEST(Report, ShortRowsPadded) {
  TablePrinter table({"A", "B", "C"});
  table.add_row({"x"});
  EXPECT_NO_THROW(table.render());
}

}  // namespace
}  // namespace emmark
