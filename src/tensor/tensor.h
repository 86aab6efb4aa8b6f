// Dense FP32 row-major tensor.
//
// The reproduction only needs ranks 1..3 (vectors, weight matrices, and
// [batch, seq, dim] activations). Data lives in a contiguous
// std::vector<float>; views are expressed with std::span to keep ownership
// obvious. Shape errors throw TensorError -- silent broadcasting is a bug
// farm in numerical code.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace emmark {

class TensorError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class BinaryReader;
class BinaryWriter;

class Tensor {
 public:
  Tensor() = default;
  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<int64_t> shape);
  Tensor(std::initializer_list<int64_t> shape)
      : Tensor(std::vector<int64_t>(shape)) {}

  static Tensor zeros(std::vector<int64_t> shape) { return Tensor(std::move(shape)); }
  static Tensor full(std::vector<int64_t> shape, float value);
  /// 1-D tensor wrapping a copy of `values`.
  static Tensor from_vector(std::vector<float> values);
  /// 2-D tensor from row-major `values` (size must be rows*cols).
  static Tensor from_matrix(int64_t rows, int64_t cols, std::vector<float> values);

  // -- shape ---------------------------------------------------------------
  int64_t rank() const { return static_cast<int64_t>(shape_.size()); }
  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t dim(int64_t axis) const;
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }
  std::string shape_string() const;

  /// Reshape in place; total element count must be preserved.
  void reshape(std::vector<int64_t> shape);
  /// Takes `shape`, reusing the storage when it already holds enough
  /// elements (no reallocation). Element values are unspecified afterwards:
  /// for output buffers that the caller overwrites in full.
  void resize(std::vector<int64_t> shape);

  // -- element access ------------------------------------------------------
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() { return {data_.data(), data_.size()}; }
  std::span<const float> flat() const { return {data_.data(), data_.size()}; }

  float& at(int64_t i);
  float at(int64_t i) const;
  float& at(int64_t i, int64_t j);
  float at(int64_t i, int64_t j) const;
  float& at(int64_t i, int64_t j, int64_t k);
  float at(int64_t i, int64_t j, int64_t k) const;

  /// Row view of a rank-2 tensor.
  std::span<float> row(int64_t i);
  std::span<const float> row(int64_t i) const;
  /// Row view of the [i, j, :] fiber of a rank-3 tensor.
  std::span<float> fiber(int64_t i, int64_t j);
  std::span<const float> fiber(int64_t i, int64_t j) const;

  // -- whole-tensor ops ----------------------------------------------------
  void fill(float value);
  void zero() { fill(0.0f); }
  /// this += other (shapes must match).
  void add_(const Tensor& other);
  /// this += alpha * other.
  void axpy_(float alpha, const Tensor& other);
  /// this *= alpha.
  void scale_(float alpha);
  /// Sum of all elements.
  double sum() const;
  /// Maximum absolute element (0 for empty tensors).
  float abs_max() const;
  /// Squared L2 norm.
  double squared_norm() const;
  /// True if any element is NaN or infinite.
  bool has_non_finite() const;

  // -- serialization -------------------------------------------------------
  void save(BinaryWriter& writer) const;
  static Tensor load(BinaryReader& reader);

 private:
  void check_rank(int64_t expected) const;

  std::vector<int64_t> shape_;
  std::vector<float> data_;
};

}  // namespace emmark
