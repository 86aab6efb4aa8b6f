// QuantizedModel: construction across all six methods, materialization
// fidelity, copy semantics.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>

#include "data/corpus.h"
#include "eval/perplexity.h"
#include "kernels/kernels.h"
#include "quant/qmodel.h"
#include "util/threadpool.h"

namespace emmark {
namespace {

struct QmFixture {
  QmFixture() {
    ModelConfig config;
    config.family = ArchFamily::kOptStyle;
    config.vocab_size = synth_vocab().size();
    config.d_model = 32;
    config.n_layers = 2;
    config.n_heads = 2;
    config.ffn_hidden = 64;
    config.max_seq = 24;
    config.init_seed = 21;
    model = std::make_unique<TransformerLM>(config);
    CorpusConfig cc;
    cc.train_tokens = 6000;
    corpus = make_corpus(synth_vocab(), cc);
    CalibConfig calib;
    calib.batches = 4;
    calib.seq_len = 16;
    stats = collect_activation_stats(*model, corpus.train, calib);
  }
  std::unique_ptr<TransformerLM> model;
  Corpus corpus;
  ActivationStats stats;
};

class AllMethods : public ::testing::TestWithParam<QuantMethod> {};

TEST_P(AllMethods, ConstructsWithOneTensorPerLinear) {
  QmFixture f;
  const QuantizedModel qm(*f.model, f.stats, GetParam());
  EXPECT_EQ(qm.num_layers(),
            static_cast<int64_t>(f.model->quantizable_linears().size()));
  EXPECT_EQ(qm.method(), GetParam());
  EXPECT_EQ(qm.bits(), bits_of(GetParam()));
  EXPECT_GT(qm.quantized_param_count(), 0);
}

TEST_P(AllMethods, MaterializedModelStaysClose) {
  QmFixture f;
  const QuantizedModel qm(*f.model, f.stats, GetParam());
  auto deq = qm.materialize();
  // Fake-quant perplexity should stay in the same ballpark as FP.
  PplConfig ppl_config;
  ppl_config.seq_len = 16;
  const double fp_ppl = perplexity(*f.model, f.corpus.valid, ppl_config);
  const double q_ppl = perplexity(*deq, f.corpus.valid, ppl_config);
  EXPECT_LT(q_ppl, fp_ppl * 1.5) << to_string(GetParam());
  EXPECT_GT(q_ppl, fp_ppl * 0.5) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Methods, AllMethods,
    ::testing::Values(QuantMethod::kRtnInt8, QuantMethod::kSmoothQuantInt8,
                      QuantMethod::kLlmInt8, QuantMethod::kRtnInt4,
                      QuantMethod::kAwqInt4, QuantMethod::kGptqInt4),
    [](const ::testing::TestParamInfo<QuantMethod>& info) {
      std::string name = to_string(info.param);
      for (char& c : name) {
        if (c == '-' || c == '.') c = '_';
      }
      return name;
    });

TEST_P(AllMethods, FusedViewPerplexityEqualsMaterialize) {
  // materialize_view() streams codes through the fused dequant-GEMM; the
  // kernel contract says forwards are bit-identical to materialize(), so
  // perplexity must match exactly -- not approximately.
  QmFixture f;
  const QuantizedModel qm(*f.model, f.stats, GetParam());
  PplConfig ppl_config;
  ppl_config.seq_len = 16;
  auto deq = qm.materialize();
  const double materialized = perplexity(*deq, f.corpus.valid, ppl_config);
  const double fused = perplexity(qm, f.corpus.valid, ppl_config);
  EXPECT_EQ(fused, materialized) << to_string(GetParam());
}

class ForwardFamilies : public ::testing::TestWithParam<ArchFamily> {};

TEST_P(ForwardFamilies, FusedViewBitIdenticalAtEveryPoolSizeAndLevel) {
  // Shaped like opt-30b-sim (d_model 96, ffn_hidden 384), so the fused
  // dequantizing packer feeds a GEMM that accumulates across two K-slices
  // (down projection, k = 384 > kGemmPanelK) and packs three N-tiles (up
  // and gate projections); two blocks exercise the view's shared
  // activation buffers. perplexity(QuantizedModel) splits the windows into
  // one share per pool thread, so the streams cover every way a split can
  // fall: 75 windows with a short last one (a merged 1024-token forward
  // plus a short one on one thread; a count 2, 4 and 8 do not divide), 6
  // full windows (more threads than windows at 8), 3 windows with a short
  // last one, and a single short window. The scalar, one-thread
  // materialize() run is the reference every pool size and kernel level
  // must reproduce bit for bit. The views and the materialized model
  // through the TransformerLM overload, whose 1024-token forward crosses
  // every op fan-out threshold (GEMM row blocks, attention (batch, head)
  // pairs, norm rows, the FFN activation), must reproduce it too.
  ModelConfig config;
  config.family = GetParam();
  config.vocab_size = synth_vocab().size();
  config.d_model = 96;
  config.n_layers = 2;
  config.n_heads = 4;
  config.ffn_hidden = 384;
  config.max_seq = 16;
  config.init_seed = 31;
  TransformerLM model(config);
  CorpusConfig cc;
  cc.train_tokens = 4000;
  cc.test_tokens = 1200;
  const Corpus corpus = make_corpus(synth_vocab(), cc);
  CalibConfig calib;
  calib.batches = 2;
  calib.seq_len = 16;
  const ActivationStats stats =
      collect_activation_stats(model, corpus.train, calib);
  const QuantizedModel qm(model, stats,
                          GetParam() == ArchFamily::kOptStyle
                              ? QuantMethod::kSmoothQuantInt8
                              : QuantMethod::kAwqInt4);
  PplConfig ppl_config;
  ppl_config.seq_len = 16;

  for (const size_t tokens : {size_t{1200}, size_t{97}, size_t{41}, size_t{10}}) {
    const std::vector<TokenId> stream(corpus.test.begin(),
                                      corpus.test.begin() + static_cast<ptrdiff_t>(tokens));
    double reference = 0.0;
    {
      kernels::ScopedLevelOverride kernel(kernels::Level::kScalar);
      ThreadPool pool(1);
      ThreadPool::ScopedOverride over(pool);
      reference = perplexity(*qm.materialize(), stream, ppl_config);
    }
    ASSERT_GT(reference, 1.0) << tokens << " tokens";
    for (kernels::Level level : kernels::supported_levels()) {
      for (const size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{8}}) {
        kernels::ScopedLevelOverride kernel(level);
        ThreadPool pool(threads);
        ThreadPool::ScopedOverride over(pool);
        EXPECT_EQ(perplexity(qm, stream, ppl_config), reference)
            << tokens << " tokens, " << kernels::to_string(level)
            << " threads=" << threads;
      }
    }
    ThreadPool pool(4);
    ThreadPool::ScopedOverride over(pool);
    EXPECT_EQ(perplexity(*qm.materialize_view(), stream, ppl_config), reference)
        << tokens << " tokens";
    EXPECT_EQ(perplexity(*qm.materialize(), stream, ppl_config), reference)
        << tokens << " tokens";
  }
}

INSTANTIATE_TEST_SUITE_P(BothFamilies, ForwardFamilies,
                         ::testing::Values(ArchFamily::kOptStyle,
                                           ArchFamily::kLlamaStyle));

TEST(QModel, PackedInt4CodeBytesHalfOfInt8Twin) {
  // code_bytes() reports RESIDENT storage (what ModelStore budgets and
  // the resident-bytes gauge exports): int4 models pack two codes per
  // byte, so the same architecture quantized at int4 must charge half
  // the int8 twin's bytes (exactly half here -- every quantizable layer
  // in the fixture has even column counts).
  QmFixture f;
  const QuantizedModel q8(*f.model, f.stats, QuantMethod::kRtnInt8);
  const QuantizedModel q4(*f.model, f.stats, QuantMethod::kRtnInt4);
  EXPECT_EQ(q8.quantized_param_count(), q4.quantized_param_count());
  EXPECT_EQ(q8.code_bytes(),
            static_cast<uint64_t>(q8.quantized_param_count()));
  EXPECT_EQ(q4.code_bytes(), q8.code_bytes() / 2);
}

TEST(QModel, FusedViewBackwardThrows) {
  QmFixture f;
  const QuantizedModel qm(*f.model, f.stats, QuantMethod::kRtnInt8);
  auto view = qm.materialize_view();
  auto linears = view->quantizable_linears();
  ASSERT_FALSE(linears.empty());
  Linear* linear = linears[0].linear;
  EXPECT_TRUE(linear->has_quantized_weight());
  Tensor x({2, linear->in_features()});
  Tensor y;
  linear->forward(x, y);
  Tensor dy({2, linear->out_features()});
  Tensor dx;
  EXPECT_THROW(linear->backward(dy, dx), TensorError);
}

TEST(QModel, Int8TighterThanInt4) {
  QmFixture f;
  const QuantizedModel q8(*f.model, f.stats, QuantMethod::kRtnInt8);
  const QuantizedModel q4(*f.model, f.stats, QuantMethod::kRtnInt4);
  auto m8 = q8.materialize();
  auto m4 = q4.materialize();
  // Average per-layer weight reconstruction error: INT8 must be far lower.
  double e8 = 0.0, e4 = 0.0;
  auto fp = f.model->quantizable_linears();
  auto l8 = m8->quantizable_linears();
  auto l4 = m4->quantizable_linears();
  for (size_t i = 0; i < fp.size(); ++i) {
    Tensor d8 = l8[i].linear->weight().value;
    d8.axpy_(-1.0f, fp[i].linear->weight().value);
    Tensor d4 = l4[i].linear->weight().value;
    d4.axpy_(-1.0f, fp[i].linear->weight().value);
    e8 += d8.squared_norm();
    e4 += d4.squared_norm();
  }
  EXPECT_LT(e8 * 5.0, e4);
}

TEST(QModel, CopyIsDeep) {
  QmFixture f;
  QuantizedModel a(*f.model, f.stats, QuantMethod::kAwqInt4);
  QuantizedModel b = a;
  // Mutate the copy; the original's codes must not move.
  const int8_t original_code = a.layer(0).weights.code_flat(0);
  int8_t new_code = original_code < a.layer(0).weights.qmax()
                        ? static_cast<int8_t>(original_code + 1)
                        : static_cast<int8_t>(original_code - 1);
  b.layer(0).weights.set_code_flat(0, new_code);
  EXPECT_EQ(a.layer(0).weights.code_flat(0), original_code);
  EXPECT_NE(b.layer(0).weights.code_flat(0), original_code);
}

TEST(QModel, FindLayerByName) {
  QmFixture f;
  const QuantizedModel qm(*f.model, f.stats, QuantMethod::kRtnInt8);
  EXPECT_NO_THROW(qm.find_layer("lm_head"));
  EXPECT_NO_THROW(qm.find_layer("blocks.0.attn.q_proj"));
  EXPECT_THROW(qm.find_layer("blocks.9.attn.q_proj"), std::out_of_range);
}

TEST(QModel, MethodNames) {
  EXPECT_STREQ(to_string(QuantMethod::kAwqInt4), "awq-int4");
  EXPECT_STREQ(to_string(QuantMethod::kSmoothQuantInt8), "smoothquant-int8");
  EXPECT_EQ(bits_of(QuantMethod::kGptqInt4), QuantBits::kInt4);
  EXPECT_EQ(bits_of(QuantMethod::kLlmInt8), QuantBits::kInt8);
}

// --- codes snapshots: load_codes rejects what save_codes never writes -----

std::string codes_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("emmark_qm_" + name + ".codes"))
      .string();
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Writes `model`'s codes in the snapshot format, passing each layer's
/// unpacked codes through `edit` first.
void write_codes(const std::string& path, const QuantizedModel& model,
                 const std::function<void(int64_t, std::vector<int8_t>&)>& edit) {
  BinaryWriter w(path, "EMMQCODE", 1);
  w.write_string(to_string(model.method()));
  w.write_u64(static_cast<uint64_t>(model.num_layers()));
  for (int64_t i = 0; i < model.num_layers(); ++i) {
    const QuantizedLayer& layer = model.layer(i);
    w.write_string(layer.name);
    w.write_i64(layer.weights.rows());
    w.write_i64(layer.weights.cols());
    std::vector<int8_t> codes = layer.weights.codes();
    edit(i, codes);
    w.write_vector(codes);
  }
  w.close();
}

TEST(QModelCodes, WriterHelperMatchesSaveCodes) {
  QmFixture f;
  const QuantizedModel qm(*f.model, f.stats, QuantMethod::kRtnInt4);
  const std::string ours = codes_path("helper"), theirs = codes_path("saved");
  write_codes(ours, qm, [](int64_t, std::vector<int8_t>&) {});
  qm.save_codes(theirs);
  EXPECT_EQ(file_bytes(ours), file_bytes(theirs));
  std::remove(ours.c_str());
  std::remove(theirs.c_str());
}

TEST(QModelCodes, LoadRejectsOffGridCodesAndWrongSizedLayers) {
  QmFixture f;
  const std::string path = codes_path("reject");
  for (const QuantMethod method : {QuantMethod::kRtnInt4, QuantMethod::kRtnInt8}) {
    const QuantizedModel qm(*f.model, f.stats, method);
    const int8_t bad = method == QuantMethod::kRtnInt4 ? int8_t{8} : int8_t{-128};
    write_codes(path, qm, [&](int64_t layer, std::vector<int8_t>& codes) {
      if (layer == 1) codes[3] = bad;
    });
    QuantizedModel suspect = qm;
    try {
      suspect.load_codes(path);
      ADD_FAILURE() << "accepted an off-grid code for " << to_string(method);
    } catch (const std::out_of_range& e) {
      EXPECT_EQ(std::string(e.what()), std::string("quantized code out of range for ") +
                                           to_string(bits_of(method)));
    }
  }
  const QuantizedModel qm(*f.model, f.stats, QuantMethod::kRtnInt4);
  write_codes(path, qm, [](int64_t layer, std::vector<int8_t>& codes) {
    if (layer == 0) codes.pop_back();
  });
  QuantizedModel suspect = qm;
  try {
    suspect.load_codes(path);
    ADD_FAILURE() << "accepted a short layer";
  } catch (const SerializeError& e) {
    EXPECT_EQ(std::string(e.what()),
              "codes snapshot size mismatch in " + qm.layer(0).name);
  }
  std::remove(path.c_str());
}

TEST(QModelCodes, LoadRejectsAForgedLayerLengthBeforeAllocating) {
  // A snapshot of under 100 bytes whose first layer claims 4 GiB of codes:
  // the length is checked against the bytes left before any buffer exists.
  QmFixture f;
  const QuantizedModel qm(*f.model, f.stats, QuantMethod::kRtnInt4);
  const std::string path = codes_path("forged");
  {
    BinaryWriter w(path, "EMMQCODE", 1);
    w.write_string(to_string(qm.method()));
    w.write_u64(static_cast<uint64_t>(qm.num_layers()));
    w.write_string(qm.layer(0).name);
    w.write_i64(qm.layer(0).weights.rows());
    w.write_i64(qm.layer(0).weights.cols());
    w.write_u64(4ull << 30);
    w.close();
  }
  EXPECT_LT(std::filesystem::file_size(path), 100u);
  QuantizedModel suspect = qm;
  EXPECT_THROW(suspect.load_codes(path), SerializeError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace emmark
