// Elementwise and reduction operations shared by the NN and quantization
// layers. All functions either write into caller-provided tensors/spans or
// return by value; nothing aliases silently.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace emmark {

// -- activations -------------------------------------------------------------
// Every exp below is the repo's own (kernels::exp_f32 and the dispatched
// exp ops), so results do not depend on the host's libm.
float relu(float x);
/// x / (1 + exp(-x)); kernels::Ops::swiglu_f32 is the vector form.
float silu(float x);
/// d/dx silu(x)
float silu_grad(float x);

// -- softmax / log-softmax ----------------------------------------------------
/// Numerically stable in-place softmax over a single row: max, exp(x -
/// max), ascending sum, one reciprocal, multiply.
void softmax_inplace(std::span<float> row);
/// Stable log-softmax of `row` written to `out` (same length, no overlap).
void log_softmax(std::span<const float> row, std::span<float> out);

// -- reductions ---------------------------------------------------------------
/// Per-column mean of |X| for a rank-2 [rows, cols] tensor. This is the
/// per-channel activation magnitude statistic used by AWQ / SmoothQuant /
/// EmMark's saliency score.
std::vector<float> column_abs_mean(const Tensor& x);
/// Per-column max of |X|.
std::vector<float> column_abs_max(const Tensor& x);
/// Per-row max of |X|.
std::vector<float> row_abs_max(const Tensor& x);

/// argmax over a span (first max wins).
int64_t argmax(std::span<const float> xs);

/// Mean squared error between two equal-shaped tensors.
double mse(const Tensor& a, const Tensor& b);

/// Cosine similarity of two flattened tensors (0 if either has zero norm).
double cosine_similarity(const Tensor& a, const Tensor& b);

}  // namespace emmark
