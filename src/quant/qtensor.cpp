#include "quant/qtensor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "kernels/kernels.h"
#include "tensor/gemm.h"
#include "util/phaseprof.h"

namespace emmark {

const char* to_string(QuantBits bits) {
  return bits == QuantBits::kInt4 ? "INT4" : "INT8";
}

int32_t qmax_for(QuantBits bits) {
  return bits == QuantBits::kInt4 ? 7 : 127;
}

namespace {

[[noreturn]] void throw_code_out_of_range(QuantBits bits) {
  throw std::out_of_range("quantized code out of range for " +
                          std::string(to_string(bits)));
}

}  // namespace

QuantizedTensor::QuantizedTensor(int64_t rows, int64_t cols, QuantBits bits,
                                 int64_t group_size)
    : rows_(rows), cols_(cols), bits_(bits), group_size_(group_size) {
  if (rows <= 0 || cols <= 0) throw std::invalid_argument("QuantizedTensor: empty shape");
  if (group_size < 0 || (group_size > 0 && cols % group_size != 0)) {
    throw std::invalid_argument("QuantizedTensor: cols must be a multiple of group_size");
  }
  groups_per_row_ = group_size > 0 ? cols / group_size : 1;
  row_stride_ = packed() ? kernels::int4_row_bytes(cols) : cols;
  codes_.assign(static_cast<size_t>(rows * row_stride_), 0);
  scales_ = Tensor({rows, groups_per_row_});
}

int8_t QuantizedTensor::code(int64_t row, int64_t col) const {
  if (packed()) {
    const uint8_t byte =
        static_cast<uint8_t>(codes_[static_cast<size_t>(storage_offset(row, col))]);
    return (col & 1) ? kernels::int4_unpack_hi(byte)
                     : kernels::int4_unpack_lo(byte);
  }
  return codes_[static_cast<size_t>(row * cols_ + col)];
}

void QuantizedTensor::set_code(int64_t row, int64_t col, int8_t value) {
  set_code_flat(row * cols_ + col, value);
}

void QuantizedTensor::set_code_flat(int64_t index, int8_t value) {
  if (value < qmin() || value > qmax()) throw_code_out_of_range(bits_);
  if (packed()) {
    const int64_t row = index / cols_;
    const int64_t col = index % cols_;
    int8_t& slot = codes_[static_cast<size_t>(storage_offset(row, col))];
    const uint8_t byte = static_cast<uint8_t>(slot);
    const uint8_t updated =
        (col & 1)
            ? kernels::int4_pack(kernels::int4_unpack_lo(byte), value)
            : kernels::int4_pack(value, kernels::int4_unpack_hi(byte));
    slot = static_cast<int8_t>(updated);
    return;
  }
  codes_[static_cast<size_t>(index)] = value;
}

void QuantizedTensor::set_codes(std::span<const int8_t> unpacked) {
  if (static_cast<int64_t>(unpacked.size()) != numel()) {
    throw std::invalid_argument("QuantizedTensor::set_codes: code count does not match the grid");
  }
  // Branch-free min/max reduction: the compiler vectorizes it, which is
  // what lets a suspect's codes load at memory speed.
  int8_t lo = 0;
  int8_t hi = 0;
  for (const int8_t c : unpacked) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  if (lo < qmin() || hi > qmax()) throw_code_out_of_range(bits_);
  if (packed()) {
    pack_from(unpacked.data());
  } else {
    std::copy(unpacked.begin(), unpacked.end(), codes_.begin());
  }
}

std::vector<int8_t> QuantizedTensor::codes() const {
  if (!packed()) return codes_;
  std::vector<int8_t> out(static_cast<size_t>(rows_ * cols_));
  unpack_into(out.data());
  return out;
}

QuantizedTensor::CodesView QuantizedTensor::codes_view() const {
  CodesView view;
  if (packed()) {
    view.scratch_.resize(static_cast<size_t>(rows_ * cols_));
    unpack_into(view.scratch_.data());
    view.ptr_ = view.scratch_.data();
  } else {
    view.ptr_ = codes_.data();
  }
  return view;
}

QuantizedTensor::CodesMut QuantizedTensor::codes_mut() {
  CodesMut guard;
  if (packed()) {
    guard.scratch_.resize(static_cast<size_t>(rows_ * cols_));
    unpack_into(guard.scratch_.data());
    guard.ptr_ = guard.scratch_.data();
    guard.owner_ = this;
  } else {
    guard.ptr_ = codes_.data();
  }
  return guard;
}

void QuantizedTensor::unpack_into(int8_t* out) const {
  for (int64_t r = 0; r < rows_; ++r) {
    const uint8_t* row =
        reinterpret_cast<const uint8_t*>(codes_.data()) + r * row_stride_;
    int8_t* dst = out + r * cols_;
    const int64_t pairs = cols_ / 2;
    for (int64_t b = 0; b < pairs; ++b) {
      dst[2 * b] = kernels::int4_unpack_lo(row[b]);
      dst[2 * b + 1] = kernels::int4_unpack_hi(row[b]);
    }
    if (cols_ & 1) dst[cols_ - 1] = kernels::int4_unpack_lo(row[pairs]);
  }
}

void QuantizedTensor::pack_from(const int8_t* unpacked) {
  for (int64_t r = 0; r < rows_; ++r) {
    uint8_t* row = reinterpret_cast<uint8_t*>(codes_.data()) + r * row_stride_;
    const int8_t* src = unpacked + r * cols_;
    const int64_t pairs = cols_ / 2;
    for (int64_t b = 0; b < pairs; ++b) {
      row[b] = kernels::int4_pack(src[2 * b], src[2 * b + 1]);
    }
    // Odd tail: the unused high nibble stays zero so packed buffers of
    // equal grids compare equal byte-for-byte.
    if (cols_ & 1) row[pairs] = kernels::int4_pack(src[cols_ - 1], 0);
  }
}

bool QuantizedTensor::is_saturated(int64_t row, int64_t col) const {
  const int8_t c = code(row, col);
  return c <= qmin() || c >= qmax();
}

bool QuantizedTensor::is_saturated_flat(int64_t index) const {
  const int8_t c = code_flat(index);
  return c <= qmin() || c >= qmax();
}

float QuantizedTensor::scale(int64_t row, int64_t col) const {
  return scales_.at(row, group_index(col));
}

void QuantizedTensor::set_scale(int64_t row, int64_t group, float value) {
  scales_.at(row, group) = value;
}

void QuantizedTensor::set_input_scale(std::vector<float> s) {
  if (static_cast<int64_t>(s.size()) != cols_) {
    throw std::invalid_argument("input_scale size must equal cols");
  }
  input_scale_ = std::move(s);
}

void QuantizedTensor::set_outliers(std::vector<int32_t> cols, Tensor weights) {
  if (weights.rank() != 2 || weights.dim(0) != rows_ ||
      weights.dim(1) != static_cast<int64_t>(cols.size())) {
    throw std::invalid_argument("outlier weights shape mismatch");
  }
  outlier_cols_ = std::move(cols);
  outlier_weights_ = std::move(weights);
}

bool QuantizedTensor::is_outlier_col(int64_t col) const {
  return std::find(outlier_cols_.begin(), outlier_cols_.end(),
                   static_cast<int32_t>(col)) != outlier_cols_.end();
}

float QuantizedTensor::dequantize_at(int64_t row, int64_t col) const {
  for (size_t k = 0; k < outlier_cols_.size(); ++k) {
    if (outlier_cols_[k] == static_cast<int32_t>(col)) {
      return outlier_weights_.at(row, static_cast<int64_t>(k));
    }
  }
  float w = static_cast<float>(code(row, col)) * scale(row, col);
  if (!input_scale_.empty()) w /= input_scale_[static_cast<size_t>(col)];
  return w;
}

Tensor QuantizedTensor::dequantize() const {
  phaseprof::ScopedTimer timer(phaseprof::Phase::kDequant);
  Tensor out({rows_, cols_});
  for (int64_t r = 0; r < rows_; ++r) {
    dequant_row_span(r, 0, cols_, out.data() + r * cols_);
  }
  return out;
}

void QuantizedTensor::dequant_row_span(int64_t row, int64_t col0, int64_t len,
                                       float* out) const {
  const kernels::Ops& ops = kernels::active_ops();
  const float* in_scale =
      input_scale_.empty() ? nullptr : input_scale_.data() + col0;
  const int64_t gs = group_size_ > 0 ? group_size_ : cols_;
  if (packed()) {
    // Packed int4: nibbles decode inside the kernel, straight from the
    // resident bytes -- half the code traffic of the unpacked layout.
    const uint8_t* row_codes =
        reinterpret_cast<const uint8_t*>(codes_.data()) + row * row_stride_;
    int64_t done = 0;
    while (done < len) {
      const int64_t col = col0 + done;
      const int64_t group_end = (col / gs + 1) * gs;
      const int64_t span = std::min(len - done, group_end - col);
      ops.dequant_packed_span_f32(
          row_codes, col, scales_.at(row, col / gs),
          in_scale != nullptr ? in_scale + done : nullptr, out + done, span);
      done += span;
    }
  } else {
    const int8_t* codes = codes_.data() + row * cols_ + col0;
    int64_t done = 0;
    while (done < len) {
      const int64_t col = col0 + done;
      const int64_t group_end = (col / gs + 1) * gs;
      const int64_t span = std::min(len - done, group_end - col);
      ops.dequant_span_f32(codes + done, scales_.at(row, col / gs),
                           in_scale != nullptr ? in_scale + done : nullptr,
                           out + done, span);
      done += span;
    }
  }
  // Outlier columns overwrite the quantized path.
  for (size_t k = 0; k < outlier_cols_.size(); ++k) {
    const int64_t c = outlier_cols_[k];
    if (c >= col0 && c < col0 + len) {
      out[c - col0] = outlier_weights_.at(row, static_cast<int64_t>(k));
    }
  }
}

void QuantizedTensor::save(BinaryWriter& w) const {
  w.write_i64(rows_);
  w.write_i64(cols_);
  w.write_u32(static_cast<uint32_t>(bits_));
  w.write_i64(group_size_);
  // The wire format stays one int8 per code for every bit width: packed
  // int4 is a resident-layout optimization, not a format change, so old
  // checkpoints load unmodified and new ones load on old builds.
  w.write_vector(codes());
  scales_.save(w);
  w.write_vector(input_scale_);
  w.write_vector(outlier_cols_);
  outlier_weights_.save(w);
}

QuantizedTensor QuantizedTensor::load(BinaryReader& r) {
  const int64_t rows = r.read_i64();
  const int64_t cols = r.read_i64();
  const uint32_t bits_raw = r.read_u32();
  if (bits_raw != 4 && bits_raw != 8) throw SerializeError("bad quant bit width");
  const int64_t group_size = r.read_i64();
  // The code vector's count is already checked against the bytes left in
  // the file, so the shape is checked against it before the grid and the
  // scales are sized from the file's rows x cols.
  const std::vector<int8_t> unpacked = r.read_vector<int8_t>();
  if (rows <= 0 || cols <= 0) throw SerializeError("quantized tensor has an empty shape");
  int64_t numel = 0;
  if (__builtin_mul_overflow(rows, cols, &numel) ||
      static_cast<uint64_t>(numel) != unpacked.size()) {
    throw SerializeError("quantized code payload mismatch");
  }
  if (group_size < 0 || (group_size > 0 && cols % group_size != 0)) {
    throw SerializeError("quantized tensor group size does not divide its columns");
  }
  QuantizedTensor q(rows, cols, static_cast<QuantBits>(bits_raw), group_size);
  q.set_codes(unpacked);
  // The decorations are read by dequantization without bounds checks, so
  // each must fit the grid it decorates.
  q.scales_ = Tensor::load(r);
  if (q.scales_.rank() != 2 || q.scales_.dim(0) != rows ||
      q.scales_.dim(1) != q.groups_per_row_) {
    throw SerializeError("quantized tensor scales do not match its shape");
  }
  q.input_scale_ = r.read_vector<float>();
  if (!q.input_scale_.empty() && static_cast<int64_t>(q.input_scale_.size()) != cols) {
    throw SerializeError("quantized tensor input scale does not match its columns");
  }
  q.outlier_cols_ = r.read_vector<int32_t>();
  q.outlier_weights_ = Tensor::load(r);
  for (const int32_t c : q.outlier_cols_) {
    if (c < 0 || c >= cols) throw SerializeError("quantized tensor outlier column out of range");
  }
  if (!q.outlier_cols_.empty() &&
      (q.outlier_weights_.rank() != 2 || q.outlier_weights_.dim(0) != rows ||
       q.outlier_weights_.dim(1) != static_cast<int64_t>(q.outlier_cols_.size()))) {
    throw SerializeError("quantized tensor outlier weights do not match its shape");
  }
  return q;
}

QuantizedTensor quantize_rtn(const Tensor& w, QuantBits bits, int64_t group_size) {
  if (w.rank() != 2) throw TensorError("quantize_rtn: rank-2 weight required");
  const int64_t rows = w.dim(0);
  const int64_t cols = w.dim(1);
  QuantizedTensor q(rows, cols, bits, group_size);
  const int64_t gs = group_size > 0 ? group_size : cols;
  const float qmax = static_cast<float>(q.qmax());
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = w.data() + r * cols;
    for (int64_t g = 0; g * gs < cols; ++g) {
      const int64_t begin = g * gs;
      const int64_t end = std::min(cols, begin + gs);
      float absmax = 0.0f;
      for (int64_t c = begin; c < end; ++c) absmax = std::max(absmax, std::fabs(row[c]));
      // A zero group keeps scale tiny-positive so dequantization is exact 0.
      const float scale = absmax > 0.0f ? absmax / qmax : 1e-8f;
      q.set_scale(r, g, scale);
      for (int64_t c = begin; c < end; ++c) {
        const float scaled = row[c] / scale;
        const int32_t code = std::clamp<int32_t>(
            static_cast<int32_t>(std::lround(scaled)), q.qmin(), q.qmax());
        q.set_code(r, c, static_cast<int8_t>(code));
      }
    }
  }
  return q;
}

void dequant_gemm_nt(const float* x, const QuantizedTensor& w, float* y,
                     int64_t m, bool accumulate) {
  gemm_nt_packed(
      x, y, m, w.cols(), w.rows(), accumulate,
      [&w](int64_t p0, int64_t pb, int64_t j0, int64_t jb, float* panel) {
        // Dequantize each weight row's K-slice (contiguous codes), then
        // transpose into the K-major panel the tile kernel expects.
        // Timed as kDequant nested inside the driver's kGemm scope;
        // consumers subtract to get GEMM-exclusive time.
        phaseprof::ScopedTimer timer(phaseprof::Phase::kDequant);
        float rowbuf[kGemmPanelK];
        for (int64_t j = 0; j < jb; ++j) {
          // Pull the next weight row's code bytes toward L1 while this
          // row dequantizes.
          w.prefetch_row_span(j0 + j + 1, p0);
          w.dequant_row_span(j0 + j, p0, pb, rowbuf);
          for (int64_t p = 0; p < pb; ++p) panel[p * jb + j] = rowbuf[p];
        }
      });
}

}  // namespace emmark
