// Perplexity evaluation (the paper's PPL metric, WikiText -> SynthText).
#pragma once

#include <cstdint>
#include <vector>

#include "data/corpus.h"
#include "nn/transformer.h"

namespace emmark {

struct PplConfig {
  int64_t batch_size = 8;
  int64_t seq_len = 32;
  // Consecutive eval windows are merged into one forward pass until the
  // activation matrix reaches this many tokens (rows * seq_len), so every
  // per-layer weight-panel pack is amortized across the whole batch instead
  // of being redone per window. 0 disables merging (one forward per tiled
  // batch, the pre-batching behavior). Merging never changes the result:
  // forward_loss sums NLL over rows independently, so the partition of
  // windows into forward calls is invisible in the returned perplexity.
  // Default 1024: swept end-to-end on the zoo sim models -- batch-1
  // streaming callers gain ~2x (panel packs amortize over 32 windows'
  // rows instead of one), while larger merges start spilling the merged
  // [tokens, d_model] and [tokens, ffn_hidden] activations out of L2 and
  // give the win back. Attention is not what spills: each (window, head)
  // task works on its own seq_len x seq_len probability block.
  int64_t max_tokens_per_forward = 1024;
};

/// Exact token-level perplexity of `model` over `stream`:
/// exp(mean NLL) across consecutive windows.
double perplexity(TransformerLM& model, const std::vector<TokenId>& stream,
                  const PplConfig& config = {});

class QuantizedModel;

/// Perplexity of an embedded model through the fused dequant-GEMM eval
/// path (QuantizedModel::materialize_view): no per-layer dequantize()
/// temporaries, numerically identical to materialize() + perplexity().
double perplexity(const QuantizedModel& deployed,
                  const std::vector<TokenId>& stream,
                  const PplConfig& config = {});

}  // namespace emmark
