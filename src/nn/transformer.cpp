#include "nn/transformer.h"

#include <algorithm>
#include <stdexcept>

#include "kernels/kernels.h"
#include "tensor/ops.h"
#include "util/phaseprof.h"

namespace emmark {

const char* to_string(ArchFamily family) {
  switch (family) {
    case ArchFamily::kOptStyle: return "opt-style";
    case ArchFamily::kLlamaStyle: return "llama-style";
  }
  return "?";
}

void ModelConfig::save(BinaryWriter& w) const {
  w.write_u32(family == ArchFamily::kOptStyle ? 0u : 1u);
  w.write_i64(vocab_size);
  w.write_i64(d_model);
  w.write_i64(n_layers);
  w.write_i64(n_heads);
  w.write_i64(ffn_hidden);
  w.write_i64(max_seq);
  w.write_u64(init_seed);
}

ModelConfig ModelConfig::load(BinaryReader& r) {
  ModelConfig c;
  c.family = r.read_u32() == 0u ? ArchFamily::kOptStyle : ArchFamily::kLlamaStyle;
  c.vocab_size = r.read_i64();
  c.d_model = r.read_i64();
  c.n_layers = r.read_i64();
  c.n_heads = r.read_i64();
  c.ffn_hidden = r.read_i64();
  c.max_seq = r.read_i64();
  c.init_seed = r.read_u64();
  return c;
}

TransformerBlock::TransformerBlock(const std::string& name,
                                   const ModelConfig& config, Rng& rng)
    : use_rms_(config.family == ArchFamily::kLlamaStyle),
      ln1_(name + ".ln1", config.d_model),
      ln2_(name + ".ln2", config.d_model),
      rms1_(name + ".rms1", config.d_model),
      rms2_(name + ".rms2", config.d_model),
      attn_(name + ".attn", config.d_model, config.n_heads,
            /*use_rope=*/config.family == ArchFamily::kLlamaStyle,
            config.max_seq, /*bias=*/config.family == ArchFamily::kOptStyle, rng),
      ffn_(name + ".ffn",
           config.family == ArchFamily::kOptStyle ? FfnKind::kRelu : FfnKind::kSwiGlu,
           config.d_model, config.ffn_hidden,
           /*bias=*/config.family == ArchFamily::kOptStyle, rng) {}

void TransformerBlock::forward(Tensor& x, int64_t batch, int64_t seq,
                               Cache& cache) {
  if (use_rms_) {
    rms1_.forward(x, cache.normed, cache.rms1);
  } else {
    ln1_.forward(x, cache.normed, cache.ln1);
  }
  attn_.forward(cache.normed, batch, seq, cache.branch, cache.attn);
  x.add_(cache.branch);

  if (use_rms_) {
    rms2_.forward(x, cache.normed, cache.rms2);
  } else {
    ln2_.forward(x, cache.normed, cache.ln2);
  }
  ffn_.forward(cache.normed, cache.branch, cache.ffn);
  x.add_(cache.branch);
}

void TransformerBlock::backward(const Tensor& dy, Tensor& dx,
                                const Cache& cache) {
  // Second residual: y = mid + ffn(norm2(mid))
  Tensor dnorm2;
  ffn_.backward(dy, dnorm2, cache.ffn);
  Tensor dmid;
  if (use_rms_) {
    rms2_.backward(dnorm2, dmid, cache.rms2);
  } else {
    ln2_.backward(dnorm2, dmid, cache.ln2);
  }
  dmid.add_(dy);

  // First residual: mid = x + attn(norm1(x))
  Tensor dnorm1;
  attn_.backward(dmid, dnorm1, cache.attn);
  if (use_rms_) {
    rms1_.backward(dnorm1, dx, cache.rms1);
  } else {
    ln1_.backward(dnorm1, dx, cache.ln1);
  }
  dx.add_(dmid);
}

std::vector<Parameter*> TransformerBlock::parameters() {
  std::vector<Parameter*> out;
  if (use_rms_) {
    out.push_back(&rms1_.gamma());
    out.push_back(&rms2_.gamma());
  } else {
    out.push_back(&ln1_.gamma());
    out.push_back(&ln1_.beta());
    out.push_back(&ln2_.gamma());
    out.push_back(&ln2_.beta());
  }
  for (Parameter* p : attn_.parameters()) out.push_back(p);
  for (Parameter* p : ffn_.parameters()) out.push_back(p);
  return out;
}

std::vector<Linear*> TransformerBlock::linears() {
  std::vector<Linear*> out = attn_.linears();
  for (Linear* l : ffn_.linears()) out.push_back(l);
  return out;
}

namespace {
Rng make_init_rng(const ModelConfig& config) { return Rng(config.init_seed); }
}  // namespace

TransformerLM::TransformerLM(const ModelConfig& config)
    : config_([&] {
        if (config.vocab_size <= 0) throw std::invalid_argument("vocab_size must be set");
        if (config.d_model % config.n_heads != 0) {
          throw std::invalid_argument("d_model must be divisible by n_heads");
        }
        return config;
      }()),
      tok_emb_([&] {
        Rng rng = make_init_rng(config_);
        return Embedding("tok_emb", config_.vocab_size, config_.d_model, rng);
      }()),
      pos_emb_([&] {
        Rng rng(config_.init_seed + 1);
        return Embedding("pos_emb", config_.max_seq, config_.d_model, rng);
      }()),
      final_ln_("final_ln", config_.d_model),
      final_rms_("final_rms", config_.d_model),
      lm_head_([&] {
        Rng rng(config_.init_seed + 2);
        return Linear("lm_head", config_.d_model, config_.vocab_size,
                      /*bias=*/false, rng);
      }()) {
  Rng rng(config_.init_seed + 3);
  blocks_.reserve(static_cast<size_t>(config_.n_layers));
  for (int64_t i = 0; i < config_.n_layers; ++i) {
    blocks_.push_back(std::make_unique<TransformerBlock>(
        "blocks." + std::to_string(i), config_, rng));
  }
}

TransformerLM::TransformerLM(const TransformerLM& other)
    : config_(other.config_),
      tok_emb_(other.tok_emb_),
      pos_emb_(other.pos_emb_),
      final_ln_(other.final_ln_),
      final_rms_(other.final_rms_),
      lm_head_(other.lm_head_) {
  blocks_.reserve(other.blocks_.size());
  for (const auto& block : other.blocks_) {
    blocks_.push_back(std::make_unique<TransformerBlock>(*block));
  }
}

bool TransformerLM::eval_only() {
  if (!lm_head_.has_quantized_weight()) return false;
  for (auto& block : blocks_) {
    for (Linear* l : block->linears()) {
      if (!l->has_quantized_weight()) return false;
    }
  }
  return true;
}

void TransformerLM::forward_hidden(std::span<const TokenId> tokens, int64_t batch,
                                   int64_t seq) {
  if (seq > config_.max_seq) {
    throw std::invalid_argument("sequence length exceeds model max_seq");
  }
  batch_ = batch;
  seq_ = seq;
  cached_tokens_.assign(tokens.begin(), tokens.end());

  tok_emb_.forward(tokens, hidden_);
  if (config_.family == ArchFamily::kOptStyle) {
    cached_positions_.resize(tokens.size());
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t t = 0; t < seq; ++t) {
        cached_positions_[static_cast<size_t>(b * seq + t)] = static_cast<TokenId>(t);
      }
    }
    pos_emb_.forward(cached_positions_, positional_);
    hidden_.add_(positional_);
  }

  const bool shared = eval_only();
  block_caches_.resize(shared ? 1 : blocks_.size());
  for (size_t i = 0; i < blocks_.size(); ++i) {
    blocks_[i]->forward(hidden_, batch, seq, block_caches_[shared ? 0 : i]);
  }
  if (config_.family == ArchFamily::kLlamaStyle) {
    final_rms_.forward(hidden_, final_normed_, final_rms_cache_);
  } else {
    final_ln_.forward(hidden_, final_normed_, final_ln_cache_);
  }
  lm_head_.forward(final_normed_, logits_);
}

LossStats LossStats::of(std::span<const float> target_logprobs) {
  LossStats stats;
  for (const float logp : target_logprobs) stats.nll_sum -= logp;
  stats.tokens = static_cast<int64_t>(target_logprobs.size());
  return stats;
}

size_t TransformerLM::forward_logprobs(const Batch& batch, std::span<float> out) {
  forward_hidden(batch.inputs, batch.batch_size, batch.seq_len);
  cached_targets_ = batch.targets;

  phaseprof::ScopedTimer timer(phaseprof::Phase::kSoftmaxNll);
  const int64_t rows = batch.batch_size * batch.seq_len;
  std::vector<float> logp(static_cast<size_t>(config_.vocab_size));
  size_t written = 0;
  for (int64_t i = 0; i < rows; ++i) {
    const TokenId target = cached_targets_[static_cast<size_t>(i)];
    if (target < 0) continue;
    if (written == out.size()) {
      throw std::length_error("forward_logprobs: more targets than output slots");
    }
    log_softmax({logits_.data() + i * config_.vocab_size,
                 static_cast<size_t>(config_.vocab_size)},
                logp);
    out[written++] = logp[static_cast<size_t>(target)];
  }
  return written;
}

LossStats TransformerLM::forward_loss(const Batch& batch) {
  std::vector<float> logp(batch.targets.size());
  logp.resize(forward_logprobs(batch, logp));
  return LossStats::of(logp);
}

void TransformerLM::backward() {
  const int64_t rows = batch_ * seq_;
  int64_t count = 0;
  for (TokenId t : cached_targets_) {
    if (t >= 0) ++count;
  }
  if (count == 0) return;

  // dL/dlogits = (softmax - onehot) / count on real targets, 0 on padding.
  Tensor dlogits({rows, config_.vocab_size});
  const float inv = 1.0f / static_cast<float>(count);
  for (int64_t i = 0; i < rows; ++i) {
    const TokenId target = cached_targets_[static_cast<size_t>(i)];
    if (target < 0) continue;
    float* drow = dlogits.data() + i * config_.vocab_size;
    const float* lrow = logits_.data() + i * config_.vocab_size;
    // softmax(lrow) into drow
    float hi = lrow[0];
    for (int64_t j = 1; j < config_.vocab_size; ++j) hi = std::max(hi, lrow[j]);
    kernels::active_ops().exp_span_f32(lrow, hi, drow, config_.vocab_size);
    float total = 0.0f;
    for (int64_t j = 0; j < config_.vocab_size; ++j) total += drow[j];
    const float norm = 1.0f / total;
    for (int64_t j = 0; j < config_.vocab_size; ++j) drow[j] *= norm * inv;
    drow[target] -= inv;
  }

  Tensor dfinal;
  lm_head_.backward(dlogits, dfinal);
  Tensor dhidden;
  if (config_.family == ArchFamily::kLlamaStyle) {
    final_rms_.backward(dfinal, dhidden, final_rms_cache_);
  } else {
    final_ln_.backward(dfinal, dhidden, final_ln_cache_);
  }

  // An eval-only forward shares one cache set across blocks; lm_head_'s
  // backward already threw above in that case, so this is a safety net.
  if (block_caches_.size() != blocks_.size()) {
    throw std::logic_error("backward: last forward kept no per-block caches");
  }
  for (size_t i = blocks_.size(); i-- > 0;) {
    Tensor dx;
    blocks_[i]->backward(dhidden, dx, block_caches_[i]);
    dhidden = std::move(dx);
  }

  tok_emb_.backward(cached_tokens_, dhidden);
  if (config_.family == ArchFamily::kOptStyle) {
    pos_emb_.backward(cached_positions_, dhidden);
  }
}

Tensor TransformerLM::logits(std::span<const TokenId> tokens) {
  forward_hidden(tokens, /*batch=*/1, static_cast<int64_t>(tokens.size()));
  return logits_;
}

double TransformerLM::option_logprob(const std::vector<TokenId>& context,
                                     const std::vector<TokenId>& option) {
  if (context.empty()) throw std::invalid_argument("option_logprob: empty context");
  std::vector<TokenId> seq = context;
  seq.insert(seq.end(), option.begin(), option.end());
  const Tensor all_logits = logits(seq);

  double total = 0.0;
  std::vector<float> logp(static_cast<size_t>(config_.vocab_size));
  // Logits at position i predict token i+1; option tokens sit at positions
  // [context.size(), seq.size()).
  for (size_t i = context.size(); i < seq.size(); ++i) {
    const int64_t row = static_cast<int64_t>(i) - 1;
    log_softmax({all_logits.data() + row * config_.vocab_size,
                 static_cast<size_t>(config_.vocab_size)},
                logp);
    total += logp[static_cast<size_t>(seq[i])];
  }
  return total;
}

std::vector<Parameter*> TransformerLM::parameters() {
  std::vector<Parameter*> out;
  out.push_back(&tok_emb_.table());
  if (config_.family == ArchFamily::kOptStyle) out.push_back(&pos_emb_.table());
  for (auto& block : blocks_) {
    for (Parameter* p : block->parameters()) out.push_back(p);
  }
  if (config_.family == ArchFamily::kLlamaStyle) {
    out.push_back(&final_rms_.gamma());
  } else {
    out.push_back(&final_ln_.gamma());
    out.push_back(&final_ln_.beta());
  }
  for (Parameter* p : lm_head_.parameters()) out.push_back(p);
  return out;
}

int64_t TransformerLM::parameter_count() {
  int64_t total = 0;
  for (Parameter* p : parameters()) total += p->numel();
  return total;
}

std::vector<LinearRef> TransformerLM::quantizable_linears() {
  std::vector<LinearRef> out;
  for (auto& block : blocks_) {
    for (Linear* l : block->linears()) out.push_back({l->name(), l});
  }
  out.push_back({lm_head_.name(), &lm_head_});
  return out;
}

std::unique_ptr<TransformerLM> TransformerLM::clone() const {
  return std::unique_ptr<TransformerLM>(new TransformerLM(*this));
}

void TransformerLM::attach_lora_all(int64_t rank, float alpha, uint64_t seed) {
  uint64_t salt = 0;
  for (LinearRef& ref : quantizable_linears()) {
    ref.linear->set_frozen(true);
    ref.linear->attach_lora(rank, alpha, seed + (++salt));
  }
}

namespace {
constexpr const char* kCheckpointMagic = "EMMCKPT";
// Version 3: training's exp became the repo's own (kernels/exp_lanes.h),
// which moves every trained weight, so older checkpoints retrain.
constexpr uint32_t kCheckpointVersion = 3;
}  // namespace

void TransformerLM::save(const std::string& path) const {
  BinaryWriter writer(path, kCheckpointMagic, kCheckpointVersion);
  config_.save(writer);
  auto* self = const_cast<TransformerLM*>(this);
  auto params = self->parameters();
  writer.write_u64(params.size());
  for (Parameter* p : params) {
    writer.write_string(p->name);
    p->value.save(writer);
  }
  writer.close();
}

std::unique_ptr<TransformerLM> TransformerLM::load(const std::string& path) {
  BinaryReader reader(path, kCheckpointMagic, kCheckpointVersion);
  const ModelConfig config = ModelConfig::load(reader);
  auto model = std::make_unique<TransformerLM>(config);
  auto params = model->parameters();
  const uint64_t count = reader.read_u64();
  if (count != params.size()) {
    throw SerializeError("checkpoint parameter count mismatch in " + path);
  }
  for (Parameter* p : params) {
    const std::string name = reader.read_string();
    if (name != p->name) {
      throw SerializeError("checkpoint parameter order mismatch: " + name +
                           " vs " + p->name);
    }
    Tensor value = Tensor::load(reader);
    if (!value.same_shape(p->value)) {
      throw SerializeError("checkpoint shape mismatch for " + name);
    }
    p->value = std::move(value);
  }
  return model;
}

}  // namespace emmark
