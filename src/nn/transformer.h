// Decoder-only transformer language models in two architecture families:
//
//   kOptStyle   : learned positional embeddings, LayerNorm, ReLU FFN,
//                 biased projections -- a scaled-down OPT.
//   kLlamaStyle : RoPE, RMSNorm, SwiGLU FFN, bias-free projections -- a
//                 scaled-down LLaMA-2.
//
// Both use pre-norm residual blocks and an untied LM head. Forward/backward
// are hand-written; activations flow as rank-2 [B*T, D] tensors.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/corpus.h"
#include "data/vocab.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/ffn.h"
#include "nn/norm.h"
#include "util/serialize.h"

namespace emmark {

enum class ArchFamily { kOptStyle, kLlamaStyle };

const char* to_string(ArchFamily family);

struct ModelConfig {
  ArchFamily family = ArchFamily::kOptStyle;
  int64_t vocab_size = 0;
  int64_t d_model = 64;
  int64_t n_layers = 2;
  int64_t n_heads = 2;
  int64_t ffn_hidden = 128;
  int64_t max_seq = 64;
  uint64_t init_seed = 1;

  int64_t head_dim() const { return d_model / n_heads; }
  void save(BinaryWriter& w) const;
  static ModelConfig load(BinaryReader& r);
};

/// A named reference to one quantizable weight matrix ("quantization layer"
/// in the paper's terms).
struct LinearRef {
  std::string name;
  Linear* linear = nullptr;
};

/// Result of a loss forward pass.
struct LossStats {
  double nll_sum = 0.0;   // summed negative log-likelihood over real targets
  int64_t tokens = 0;     // number of real (non-padding) targets

  double mean_nll() const { return tokens > 0 ? nll_sum / static_cast<double>(tokens) : 0.0; }

  /// The NLL of a run of per-target log-probabilities, summed in order in
  /// double: the one summation forward_loss() and perplexity() share.
  static LossStats of(std::span<const float> target_logprobs);
};

class TransformerBlock {
 public:
  /// The activation buffers of one block forward: the scratch its
  /// sub-layers hand each other plus every cache backward() reads.
  struct Cache {
    Tensor normed;  // norm output feeding attention, then the FFN
    Tensor branch;  // attention output, then FFN output
    LayerNorm::Cache ln1, ln2;
    RmsNorm::Cache rms1, rms2;
    MultiHeadAttention::Cache attn;
    FeedForward::Cache ffn;
  };

  TransformerBlock(const std::string& name, const ModelConfig& config, Rng& rng);

  /// Updates the residual stream x [B*T, D] in place:
  /// x += attn(norm1(x)); x += ffn(norm2(x)).
  void forward(Tensor& x, int64_t batch, int64_t seq, Cache& cache);
  /// `cache` must hold this block's most recent forward.
  void backward(const Tensor& dy, Tensor& dx, const Cache& cache);

  std::vector<Parameter*> parameters();
  std::vector<Linear*> linears();

 private:
  // Exactly one of each norm pair is active per family; both are
  // constructed to keep the type simple, only the active ones own
  // parameters that are exposed.
  bool use_rms_;
  LayerNorm ln1_, ln2_;
  RmsNorm rms1_, rms2_;
  MultiHeadAttention attn_;
  FeedForward ffn_;
};

class TransformerLM {
 public:
  explicit TransformerLM(const ModelConfig& config);

  // -- training ---------------------------------------------------------
  /// Forward pass computing mean NLL over batch targets (targets of -1 are
  /// padding and excluded). Caches everything needed by backward().
  LossStats forward_loss(const Batch& batch);
  /// The same forward, keeping each real target's log-probability instead
  /// of their sum: writes them in row order to the front of `out` and
  /// returns how many it wrote (std::length_error when `out` is short).
  size_t forward_logprobs(const Batch& batch, std::span<float> out);
  /// Backpropagates from the last forward_loss() into parameter grads.
  void backward();

  // -- inference --------------------------------------------------------
  /// Logits [T, vocab] for a single sequence.
  Tensor logits(std::span<const TokenId> tokens);
  /// Sum of log P(option | context) under teacher forcing.
  double option_logprob(const std::vector<TokenId>& context,
                        const std::vector<TokenId>& option);

  // -- structure --------------------------------------------------------
  std::vector<Parameter*> parameters();
  int64_t parameter_count();
  /// All quantizable weight matrices, in deterministic order:
  /// per block (q, k, v, o, [gate,] up, down), then lm_head.
  std::vector<LinearRef> quantizable_linears();
  const ModelConfig& config() const { return config_; }

  /// Deep copy of every parameter (values and gradients), LoRA adapter and
  /// fused-weight binding, matched by name and shape; none of the model's
  /// activation caches. Draws nothing from the init RNG.
  std::unique_ptr<TransformerLM> clone() const;

  /// QLoRA-style setup: freeze every linear and attach LoRA adapters.
  void attach_lora_all(int64_t rank, float alpha, uint64_t seed);

  // -- persistence ------------------------------------------------------
  void save(const std::string& path) const;
  static std::unique_ptr<TransformerLM> load(const std::string& path);

 private:
  TransformerLM(const TransformerLM& other);  // clone()

  void forward_hidden(std::span<const TokenId> tokens, int64_t batch, int64_t seq);
  /// True when every quantizable linear streams quantized codes
  /// (QuantizedModel::materialize_view): backward() throws, so no forward
  /// cache is ever read again.
  bool eval_only();

  ModelConfig config_;
  Embedding tok_emb_;
  Embedding pos_emb_;  // OPT-style only
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
  LayerNorm final_ln_;
  RmsNorm final_rms_;
  Linear lm_head_;

  // caches, reused across forwards
  int64_t batch_ = 0, seq_ = 0;
  std::vector<TokenId> cached_tokens_;
  std::vector<TokenId> cached_positions_;
  Tensor hidden_;        // residual stream [B*T, D], updated by every block
  Tensor positional_;    // OPT-style positional embeddings [B*T, D]
  /// One per block -- or, in an eval-only view, one set every block
  /// shares, so a forward touches one block's worth of activations.
  std::vector<TransformerBlock::Cache> block_caches_;
  LayerNorm::Cache final_ln_cache_;
  RmsNorm::Cache final_rms_cache_;
  Tensor final_normed_;  // [B*T, D]
  Tensor logits_;        // [B*T, V]
  std::vector<TokenId> cached_targets_;
};

}  // namespace emmark
