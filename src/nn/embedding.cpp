#include "nn/embedding.h"

#include <cstring>
#include <stdexcept>

namespace emmark {

Embedding::Embedding(std::string name, int64_t num_embeddings, int64_t dim, Rng& rng)
    : name_(std::move(name)), num_embeddings_(num_embeddings), dim_(dim) {
  Tensor table({num_embeddings, dim});
  for (float& v : table.flat()) v = rng.next_normal_f(0.0f, 0.02f);
  table_ = Parameter(name_ + ".weight", std::move(table));
}

void Embedding::forward(std::span<const TokenId> tokens, Tensor& y) {
  const int64_t n = static_cast<int64_t>(tokens.size());
  y.resize({n, dim_});  // every row is overwritten below
  for (int64_t i = 0; i < n; ++i) {
    const TokenId t = tokens[static_cast<size_t>(i)];
    if (t < 0 || t >= num_embeddings_) {
      throw std::out_of_range(name_ + ": token id out of range");
    }
    std::memcpy(y.data() + i * dim_, table_.value.data() + t * dim_,
                static_cast<size_t>(dim_) * sizeof(float));
  }
}

void Embedding::backward(std::span<const TokenId> tokens, const Tensor& dy) {
  const int64_t n = static_cast<int64_t>(tokens.size());
  for (int64_t i = 0; i < n; ++i) {
    const TokenId t = tokens[static_cast<size_t>(i)];
    float* grad_row = table_.grad.data() + t * dim_;
    const float* dy_row = dy.data() + i * dim_;
    for (int64_t j = 0; j < dim_; ++j) grad_row[j] += dy_row[j];
  }
}

}  // namespace emmark
