// Quantized weight tensor: the object EmMark watermarks.
//
// Symmetric integer quantization following Eq. 1 of the paper:
//     q = round(w / scale),  scale = absmax / qmax
// with group-wise scales along the input (column) dimension. INT4 codes use
// the range [-7, 7] (symmetric, no -8, matching AWQ-style symmetric grids)
// and are stored PACKED, two codes per byte: even column in the low nibble,
// odd column in the high nibble, row stride (cols + 1) / 2 bytes (see the
// nibble codec in kernels/kernels.h). INT8 codes stay one byte per code.
// Element accessors and the unpacked views below hide the layout; the
// dequant path reads packed rows directly through the dispatched
// dequant_packed_span_f32 kernel, so fused eval panels move half the code
// bytes an unpacked layout would. Two optional decorations cover the
// paper's quantizer families:
//   * input_scale (SmoothQuant / AWQ): effective weight is
//     dequant(q) / s per column -- i.e. y = (x/s) . (s o W)_q^T.
//   * outlier columns (LLM.int8()): listed columns bypass quantization and
//     keep FP weights.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/serialize.h"

namespace emmark {

enum class QuantBits : int32_t { kInt4 = 4, kInt8 = 8 };

const char* to_string(QuantBits bits);

/// Largest positive code for a bit width (symmetric grid: [-qmax, qmax]).
int32_t qmax_for(QuantBits bits);

class QuantizedTensor {
 public:
  QuantizedTensor() = default;
  /// Allocates codes/scales for a [rows, cols] weight with `group_size`
  /// columns per scale group (group_size == 0 means one group per row).
  QuantizedTensor(int64_t rows, int64_t cols, QuantBits bits, int64_t group_size);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t numel() const { return rows_ * cols_; }
  QuantBits bits() const { return bits_; }
  int32_t qmin() const { return -qmax_for(bits_); }
  int32_t qmax() const { return qmax_for(bits_); }
  int64_t group_size() const { return group_size_; }
  int64_t groups_per_row() const { return groups_per_row_; }

  // -- codes -----------------------------------------------------------
  int8_t code(int64_t row, int64_t col) const;
  void set_code(int64_t row, int64_t col, int8_t value);
  /// Flat accessors (index = row * cols + col) used by the watermark.
  int8_t code_flat(int64_t index) const {
    return code(index / cols_, index % cols_);
  }
  void set_code_flat(int64_t index, int8_t value);
  /// Bulk twin of set_code_flat and the one decoder behind both code
  /// loaders: overwrites the whole grid from `unpacked`, rows * cols codes
  /// in row-major order, one int8 per code. One range scan runs before
  /// anything is written, so an off-grid code throws set_code_flat's
  /// std::out_of_range and leaves the tensor unchanged; a count other than
  /// rows * cols throws std::invalid_argument.
  void set_codes(std::span<const int8_t> unpacked);
  /// The full code grid, UNPACKED to one int8 per code regardless of the
  /// storage layout (a copy for int4; serialization and the attack suite
  /// compare grids through this).
  std::vector<int8_t> codes() const;

  /// Read-only unpacked view of the contiguous [rows * cols] code grid for
  /// the SIMD kernels (src/kernels/). For int8 it aliases the resident
  /// buffer (zero copy); for packed int4 it owns an unpacked scratch copy.
  /// Keep the view alive for as long as data() is dereferenced.
  class CodesView {
   public:
    const int8_t* data() const { return ptr_; }

    CodesView(CodesView&&) noexcept = default;
    CodesView(const CodesView&) = delete;
    CodesView& operator=(const CodesView&) = delete;
    CodesView& operator=(CodesView&&) = delete;

   private:
    friend class QuantizedTensor;
    CodesView() = default;
    std::vector<int8_t> scratch_;  // int4 only; ptr_ targets its heap buffer
    const int8_t* ptr_ = nullptr;
  };
  CodesView codes_view() const;

  /// Mutable unpacked view. For int8 it writes through to the resident
  /// buffer; for packed int4 it unpacks into scratch at construction and
  /// REPACKS AT DESTRUCTION -- finish all writes before the guard dies,
  /// and never hold two mutable views of one tensor. Like the old raw
  /// pointer it replaces, writes bypass the per-element grid check:
  /// callers must keep every value within [qmin, qmax] (the watermark
  /// stamp does -- derivation never selects a saturated weight -- as does
  /// pruning to 0).
  class CodesMut {
   public:
    int8_t* data() const { return ptr_; }

    ~CodesMut() {
      if (owner_ != nullptr) owner_->pack_from(scratch_.data());
    }
    CodesMut(CodesMut&& other) noexcept
        : owner_(other.owner_),
          scratch_(std::move(other.scratch_)),
          ptr_(other.ptr_) {
      other.owner_ = nullptr;
      other.ptr_ = nullptr;
    }
    CodesMut(const CodesMut&) = delete;
    CodesMut& operator=(const CodesMut&) = delete;
    CodesMut& operator=(CodesMut&&) = delete;

   private:
    friend class QuantizedTensor;
    CodesMut() = default;
    QuantizedTensor* owner_ = nullptr;  // int4 only: repack target
    std::vector<int8_t> scratch_;
    int8_t* ptr_ = nullptr;
  };
  CodesMut codes_mut();

  /// Bytes the resident code buffer actually occupies: rows * cols for
  /// int8, rows * ceil(cols / 2) for packed int4. This is the number the
  /// ModelStore residency budget and the resident-bytes gauge charge.
  uint64_t storage_bytes() const { return static_cast<uint64_t>(codes_.size()); }
  /// The resident code bytes themselves, in the layout described above.
  std::span<const int8_t> storage() const { return codes_; }

  /// Hints the cache that `row`'s packed K-slice starting at col0 is about
  /// to stream through dequant_row_span (panel packers call it one row
  /// ahead). No-op past the last row; never changes results.
  void prefetch_row_span(int64_t row, int64_t col0) const {
    if (row >= rows_) return;
    __builtin_prefetch(codes_.data() + storage_offset(row, col0));
  }

  /// True when the code sits at the min or max quantization level; EmMark
  /// excludes such weights so +-1 never clips.
  bool is_saturated(int64_t row, int64_t col) const;
  bool is_saturated_flat(int64_t index) const;

  // -- scales / decorations ---------------------------------------------
  float scale(int64_t row, int64_t col) const;
  void set_scale(int64_t row, int64_t group, float value);

  bool has_input_scale() const { return !input_scale_.empty(); }
  const std::vector<float>& input_scale() const { return input_scale_; }
  void set_input_scale(std::vector<float> s);

  const std::vector<int32_t>& outlier_cols() const { return outlier_cols_; }
  /// Marks `cols` as FP outliers with the given weights [rows, cols.size()].
  void set_outliers(std::vector<int32_t> cols, Tensor weights);
  bool is_outlier_col(int64_t col) const;

  // -- reconstruction ----------------------------------------------------
  /// Effective FP weight W_eff with all decorations folded in, such that
  /// y = x . W_eff^T reproduces the quantized layer's forward.
  Tensor dequantize() const;
  /// Dequantized value of a single element (0 contribution path for
  /// outlier columns returns the FP outlier weight).
  float dequantize_at(int64_t row, int64_t col) const;
  /// Dequantizes W_eff[row][col0 .. col0+len) into `out` through the
  /// dispatched dequant kernel: group-aligned segments stream through
  /// dequant_span_f32 (int8) or dequant_packed_span_f32 (packed int4 --
  /// nibbles decode straight out of the resident bytes, no unpack copy),
  /// then in-range outlier columns overwrite. The
  /// building block both dequantize() and the fused dequant-GEMM share,
  /// which is what makes fused == materialize-then-multiply bitwise.
  void dequant_row_span(int64_t row, int64_t col0, int64_t len,
                        float* out) const;

  // -- persistence --------------------------------------------------------
  void save(BinaryWriter& w) const;
  static QuantizedTensor load(BinaryReader& r);

 private:
  int64_t group_index(int64_t col) const {
    return group_size_ > 0 ? col / group_size_ : 0;
  }
  bool packed() const { return bits_ == QuantBits::kInt4; }
  /// Byte offset of (row, col)'s storage slot in codes_.
  int64_t storage_offset(int64_t row, int64_t col) const {
    return packed() ? row * row_stride_ + (col >> 1) : row * cols_ + col;
  }
  /// Decodes the whole grid into out[rows * cols], one int8 per code.
  void unpack_into(int8_t* out) const;
  /// Encodes unpacked[rows * cols] into the resident layout (no grid
  /// check; see CodesMut).
  void pack_from(const int8_t* unpacked);

  int64_t rows_ = 0;
  int64_t cols_ = 0;
  QuantBits bits_ = QuantBits::kInt8;
  int64_t group_size_ = 0;
  int64_t groups_per_row_ = 1;
  int64_t row_stride_ = 0;          // bytes per row of codes_
  std::vector<int8_t> codes_;       // [rows * row_stride] (int4: packed)
  Tensor scales_;                   // [rows, groups_per_row]
  std::vector<float> input_scale_;  // [cols] or empty
  std::vector<int32_t> outlier_cols_;
  Tensor outlier_weights_;          // [rows, outlier_cols.size()]
};

/// Plain round-to-nearest group-wise quantization of `w` [rows, cols].
QuantizedTensor quantize_rtn(const Tensor& w, QuantBits bits, int64_t group_size);

/// Fused dequantize-GEMM: Y(M,N) += X(M, w.cols) * W_eff(w.rows, w.cols)^T
/// without materializing W_eff. Codes dequantize straight into
/// gemm_nt_packed's panels, one K-slice (<= kGemmPanelK columns of
/// W) at a time and each weight exactly once per call, so eval-path
/// forwards touch O(K-slice) float temporaries instead of an
/// O(rows * cols) dequantize() tensor. Bit-identical to w.dequantize() +
/// gemm_nt (same per-element dequant ops, same ascending-K summation
/// order).
void dequant_gemm_nt(const float* x, const QuantizedTensor& w, float* y,
                     int64_t m, bool accumulate = false);

}  // namespace emmark
