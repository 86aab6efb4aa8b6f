#include "eval/perplexity.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <stdexcept>

#include "quant/qmodel.h"
#include "util/threadpool.h"

namespace emmark {

namespace {

// Greedily merges consecutive equal-seq_len tiles into one Batch while the
// merged token count stays within `max_tokens` (a merge always keeps at
// least one tile, so a cap smaller than one window still evaluates).
// Single-tile runs are moved through untouched -- no token copies.
std::vector<Batch> merge_eval_batches(std::vector<Batch> tiles,
                                      int64_t max_tokens) {
  if (max_tokens <= 0) return tiles;
  std::vector<Batch> merged;
  for (size_t i = 0; i < tiles.size();) {
    Batch run = std::move(tiles[i]);
    size_t j = i + 1;
    while (j < tiles.size() && tiles[j].seq_len == run.seq_len &&
           (run.batch_size + tiles[j].batch_size) * run.seq_len <= max_tokens) {
      const Batch& next = tiles[j];
      run.batch_size += next.batch_size;
      run.inputs.insert(run.inputs.end(), next.inputs.begin(), next.inputs.end());
      run.targets.insert(run.targets.end(), next.targets.begin(),
                         next.targets.end());
      ++j;
    }
    merged.push_back(std::move(run));
    i = j;
  }
  return merged;
}

/// Runs `batches` through `model`, filling `logprobs` -- one slot per
/// real target of the batches -- in stream order.
void score(TransformerLM& model, const std::vector<Batch>& batches,
           std::span<float> logprobs) {
  for (const Batch& batch : batches) {
    logprobs = logprobs.subspan(model.forward_logprobs(batch, logprobs));
  }
}

/// Scores one share: its windows, tiled and merged per PplConfig, and its
/// slice of the stream's per-target log-probabilities.
using ShareScorer =
    std::function<void(const std::vector<Batch>&, std::span<float>)>;

/// The one perplexity driver. tile_eval_batches cuts a stream of n tokens
/// into windows starting at 0, seq_len, 2 * seq_len, ... while start + 1 < n,
/// so window w scores targets [w * seq_len, (w + 1) * seq_len) of the
/// stream's n - 1, and consecutive windows are a contiguous substream. The
/// windows are split into at most `max_shares` contiguous shares whose
/// sizes differ by at most one window; each share is tiled and merged as
/// PplConfig says and scored by `score_share`, on the active pool when
/// there are several. Shares write disjoint slices of one stream-ordered
/// array, which is summed once after every share is done, so neither the
/// share count nor the forward a window merged into can change a bit of
/// the result.
double drive(const std::vector<TokenId>& stream, const PplConfig& config,
             size_t max_shares, const ShareScorer& score_share) {
  const int64_t seq = config.seq_len;
  if (seq <= 0 || config.batch_size <= 0) {
    throw std::invalid_argument("perplexity: batch_size and seq_len must be positive");
  }
  const int64_t targets = static_cast<int64_t>(stream.size()) - 1;
  if (targets <= 0) return 0.0;
  const int64_t windows = (targets + seq - 1) / seq;
  const int64_t shares = std::min(windows, static_cast<int64_t>(max_shares));
  std::vector<float> logprobs(static_cast<size_t>(targets));
  parallel_for_index(static_cast<size_t>(shares), [&](size_t s) {
    const int64_t w0 = windows * static_cast<int64_t>(s) / shares;
    const int64_t w1 = windows * static_cast<int64_t>(s + 1) / shares;
    const int64_t t1 = std::min(w1 * seq, targets);
    const std::vector<TokenId> part(stream.begin() + w0 * seq,
                                    stream.begin() + t1 + 1);
    score_share(merge_eval_batches(
                    tile_eval_batches(part, config.batch_size, seq),
                    config.max_tokens_per_forward),
                std::span<float>(logprobs).subspan(
                    static_cast<size_t>(w0 * seq), static_cast<size_t>(t1 - w0 * seq)));
  });
  return std::exp(LossStats::of(logprobs).mean_nll());
}

}  // namespace

double perplexity(TransformerLM& model, const std::vector<TokenId>& stream,
                  const PplConfig& config) {
  // One share: a trainable model's per-block caches and its linears'
  // input caches belong to one forward at a time. Its op fan-outs (GEMM
  // row blocks, attention heads, norm and activation rows) use the pool.
  return drive(stream, config, 1,
               [&](const std::vector<Batch>& batches, std::span<float> out) {
                 score(model, batches, out);
               });
}

double perplexity(const QuantizedModel& deployed,
                  const std::vector<TokenId>& stream, const PplConfig& config) {
  // One share per pool thread, each through its own view: the views read
  // the codes and share nothing writable, and every op fan-out inside a
  // share's forward runs inline on its worker.
  return drive(stream, config, ThreadPool::active().size(),
               [&](const std::vector<Batch>& batches, std::span<float> out) {
                 score(*deployed.materialize_view(), batches, out);
               });
}

}  // namespace emmark
