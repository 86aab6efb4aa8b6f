#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.h"

namespace emmark {

float relu(float x) { return x > 0.0f ? x : 0.0f; }

float silu(float x) { return x / (1.0f + kernels::exp_f32(-x)); }

float silu_grad(float x) {
  const float sig = 1.0f / (1.0f + kernels::exp_f32(-x));
  return sig * (1.0f + x * (1.0f - sig));
}

void softmax_inplace(std::span<float> row) {
  if (row.empty()) return;
  const float hi = *std::max_element(row.begin(), row.end());
  kernels::active_ops().exp_span_f32(row.data(), hi, row.data(),
                                     static_cast<int64_t>(row.size()));
  float total = 0.0f;
  for (const float x : row) total += x;
  const float inv = 1.0f / total;
  for (float& x : row) x *= inv;
}

void log_softmax(std::span<const float> row, std::span<float> out) {
  if (row.size() != out.size()) throw TensorError("log_softmax: size mismatch");
  if (row.empty()) return;
  const float hi = *std::max_element(row.begin(), row.end());
  // `out` holds the exps until the sum is taken.
  kernels::active_ops().exp_span_f32(row.data(), hi, out.data(),
                                     static_cast<int64_t>(row.size()));
  float total = 0.0f;
  for (const float e : out) total += e;
  const float log_z = hi + std::log(total);
  for (size_t i = 0; i < row.size(); ++i) out[i] = row[i] - log_z;
}

std::vector<float> column_abs_mean(const Tensor& x) {
  if (x.rank() != 2) throw TensorError("column_abs_mean: rank-2 tensor required");
  const int64_t rows = x.dim(0);
  const int64_t cols = x.dim(1);
  std::vector<float> out(static_cast<size_t>(cols), 0.0f);
  for (int64_t i = 0; i < rows; ++i) {
    const auto row = x.row(i);
    for (int64_t j = 0; j < cols; ++j) out[static_cast<size_t>(j)] += std::fabs(row[static_cast<size_t>(j)]);
  }
  if (rows > 0) {
    const float inv = 1.0f / static_cast<float>(rows);
    for (float& v : out) v *= inv;
  }
  return out;
}

std::vector<float> column_abs_max(const Tensor& x) {
  if (x.rank() != 2) throw TensorError("column_abs_max: rank-2 tensor required");
  const int64_t rows = x.dim(0);
  const int64_t cols = x.dim(1);
  std::vector<float> out(static_cast<size_t>(cols), 0.0f);
  for (int64_t i = 0; i < rows; ++i) {
    const auto row = x.row(i);
    for (int64_t j = 0; j < cols; ++j) {
      auto& slot = out[static_cast<size_t>(j)];
      slot = std::max(slot, std::fabs(row[static_cast<size_t>(j)]));
    }
  }
  return out;
}

std::vector<float> row_abs_max(const Tensor& x) {
  if (x.rank() != 2) throw TensorError("row_abs_max: rank-2 tensor required");
  const int64_t rows = x.dim(0);
  std::vector<float> out(static_cast<size_t>(rows), 0.0f);
  for (int64_t i = 0; i < rows; ++i) {
    const auto row = x.row(i);
    float best = 0.0f;
    for (float v : row) best = std::max(best, std::fabs(v));
    out[static_cast<size_t>(i)] = best;
  }
  return out;
}

int64_t argmax(std::span<const float> xs) {
  if (xs.empty()) return -1;
  return static_cast<int64_t>(
      std::distance(xs.begin(), std::max_element(xs.begin(), xs.end())));
}

double mse(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) throw TensorError("mse: shape mismatch");
  if (a.numel() == 0) return 0.0;
  double total = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    const double d = static_cast<double>(pa[i]) - pb[i];
    total += d * d;
  }
  return total / static_cast<double>(a.numel());
}

double cosine_similarity(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) throw TensorError("cosine_similarity: size mismatch");
  double dot = 0.0, na = 0.0, nb = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    dot += static_cast<double>(pa[i]) * pb[i];
    na += static_cast<double>(pa[i]) * pa[i];
    nb += static_cast<double>(pb[i]) * pb[i];
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

}  // namespace emmark
