#include "tensor/tensor.h"

#include <cmath>
#include <numeric>
#include <sstream>

#include "util/serialize.h"

namespace emmark {
namespace {
int64_t checked_numel(const std::vector<int64_t>& shape) {
  // Rank 0 denotes "no tensor" (the default-constructed state), not a
  // scalar; it holds zero elements so that save/load round-trips.
  if (shape.empty()) return 0;
  int64_t total = 1;
  for (int64_t d : shape) {
    if (d < 0) throw TensorError("negative dimension in tensor shape");
    total *= d;
  }
  return total;
}
}  // namespace

Tensor::Tensor(std::vector<int64_t> shape) : shape_(std::move(shape)) {
  data_.assign(static_cast<size_t>(checked_numel(shape_)), 0.0f);
}

Tensor Tensor::full(std::vector<int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::from_vector(std::vector<float> values) {
  Tensor t;
  t.shape_ = {static_cast<int64_t>(values.size())};
  t.data_ = std::move(values);
  return t;
}

Tensor Tensor::from_matrix(int64_t rows, int64_t cols, std::vector<float> values) {
  if (static_cast<int64_t>(values.size()) != rows * cols) {
    throw TensorError("from_matrix: value count does not match rows*cols");
  }
  Tensor t;
  t.shape_ = {rows, cols};
  t.data_ = std::move(values);
  return t;
}

int64_t Tensor::dim(int64_t axis) const {
  if (axis < 0 || axis >= rank()) throw TensorError("dim: axis out of range");
  return shape_[static_cast<size_t>(axis)];
}

std::string Tensor::shape_string() const {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i) out << ", ";
    out << shape_[i];
  }
  out << "]";
  return out.str();
}

void Tensor::reshape(std::vector<int64_t> shape) {
  if (checked_numel(shape) != numel()) {
    throw TensorError("reshape: element count mismatch");
  }
  shape_ = std::move(shape);
}

void Tensor::resize(std::vector<int64_t> shape) {
  data_.resize(static_cast<size_t>(checked_numel(shape)));
  shape_ = std::move(shape);
}

void Tensor::check_rank(int64_t expected) const {
  if (rank() != expected) {
    throw TensorError("rank mismatch: have " + std::to_string(rank()) +
                      ", want " + std::to_string(expected));
  }
}

float& Tensor::at(int64_t i) {
  check_rank(1);
  return data_[static_cast<size_t>(i)];
}
float Tensor::at(int64_t i) const {
  check_rank(1);
  return data_[static_cast<size_t>(i)];
}
float& Tensor::at(int64_t i, int64_t j) {
  check_rank(2);
  return data_[static_cast<size_t>(i * shape_[1] + j)];
}
float Tensor::at(int64_t i, int64_t j) const {
  check_rank(2);
  return data_[static_cast<size_t>(i * shape_[1] + j)];
}
float& Tensor::at(int64_t i, int64_t j, int64_t k) {
  check_rank(3);
  return data_[static_cast<size_t>((i * shape_[1] + j) * shape_[2] + k)];
}
float Tensor::at(int64_t i, int64_t j, int64_t k) const {
  check_rank(3);
  return data_[static_cast<size_t>((i * shape_[1] + j) * shape_[2] + k)];
}

std::span<float> Tensor::row(int64_t i) {
  check_rank(2);
  return {data_.data() + i * shape_[1], static_cast<size_t>(shape_[1])};
}
std::span<const float> Tensor::row(int64_t i) const {
  check_rank(2);
  return {data_.data() + i * shape_[1], static_cast<size_t>(shape_[1])};
}
std::span<float> Tensor::fiber(int64_t i, int64_t j) {
  check_rank(3);
  return {data_.data() + (i * shape_[1] + j) * shape_[2], static_cast<size_t>(shape_[2])};
}
std::span<const float> Tensor::fiber(int64_t i, int64_t j) const {
  check_rank(3);
  return {data_.data() + (i * shape_[1] + j) * shape_[2], static_cast<size_t>(shape_[2])};
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::add_(const Tensor& other) { axpy_(1.0f, other); }

void Tensor::axpy_(float alpha, const Tensor& other) {
  if (!same_shape(other)) throw TensorError("axpy_: shape mismatch");
  const float* src = other.data();
  float* dst = data();
  const size_t n = data_.size();
  for (size_t i = 0; i < n; ++i) dst[i] += alpha * src[i];
}

void Tensor::scale_(float alpha) {
  for (float& v : data_) v *= alpha;
}

double Tensor::sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

float Tensor::abs_max() const {
  float best = 0.0f;
  for (float v : data_) best = std::max(best, std::fabs(v));
  return best;
}

double Tensor::squared_norm() const {
  double total = 0.0;
  for (float v : data_) total += static_cast<double>(v) * v;
  return total;
}

bool Tensor::has_non_finite() const {
  for (float v : data_) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

void Tensor::save(BinaryWriter& writer) const {
  writer.write_u64(shape_.size());
  for (int64_t d : shape_) writer.write_i64(d);
  writer.write_vector(data_);
}

Tensor Tensor::load(BinaryReader& reader) {
  const uint64_t rank = reader.read_u64();
  if (rank > 8) throw SerializeError("tensor rank implausibly large");
  std::vector<int64_t> shape(rank);
  for (auto& d : shape) d = reader.read_i64();
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = reader.read_vector<float>();
  if (static_cast<int64_t>(t.data_.size()) != checked_numel(t.shape_)) {
    throw SerializeError("tensor payload does not match shape");
  }
  return t;
}

}  // namespace emmark
