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
  // batch, the pre-batching behavior). Merging never changes the result,
  // bit for bit: every layer computes each row on its own with a fixed
  // summation order, so a target's log-probability does not depend on the
  // forward its window ran in, and perplexity() sums the per-target values
  // once, in stream order, after the last forward.
  // Default 1024: swept end-to-end on the zoo sim models -- batch-1
  // streaming callers gain ~2x (panel packs amortize over 32 windows'
  // rows instead of one), while larger merges start spilling the merged
  // [tokens, d_model] and [tokens, ffn_hidden] activations out of L2 and
  // give the win back. Attention is not what spills: each (window, head)
  // task works on its own seq_len x seq_len probability block.
  int64_t max_tokens_per_forward = 1024;
};

/// Exact token-level perplexity of `model` over `stream`:
/// exp(mean NLL) across consecutive windows. Runs on the calling thread;
/// each forward's ops fan out on the active pool. Throws
/// std::invalid_argument when batch_size or seq_len is not positive, or
/// seq_len exceeds the model's max_seq.
double perplexity(TransformerLM& model, const std::vector<TokenId>& stream,
                  const PplConfig& config = {});

class QuantizedModel;

/// Perplexity of an embedded model through the fused dequant-GEMM eval
/// path (QuantizedModel::materialize_view): no per-layer dequantize()
/// temporaries, bit-identical to materialize() + perplexity(). One fan-out
/// per call: the windows are split into one contiguous share per thread of
/// the active pool (at most one per window), and each share runs whole
/// forwards on a pool worker through its own view.
double perplexity(const QuantizedModel& deployed,
                  const std::vector<TokenId>& stream,
                  const PplConfig& config = {});

}  // namespace emmark
