// QuantizedTensor: grids, scales, saturation, decorations, persistence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "quant/qtensor.h"
#include "util/rng.h"

namespace emmark {
namespace {

Tensor random_weight(int64_t rows, int64_t cols, uint64_t seed, float scale = 0.1f) {
  Rng rng(seed);
  Tensor w({rows, cols});
  for (float& v : w.flat()) v = rng.next_normal_f(0.0f, scale);
  return w;
}

TEST(QTensor, GridBoundsPerBitWidth) {
  QuantizedTensor q8(2, 4, QuantBits::kInt8, 0);
  EXPECT_EQ(q8.qmin(), -127);
  EXPECT_EQ(q8.qmax(), 127);
  QuantizedTensor q4(2, 4, QuantBits::kInt4, 0);
  EXPECT_EQ(q4.qmin(), -7);
  EXPECT_EQ(q4.qmax(), 7);
}

TEST(QTensor, SetCodeRejectsOutOfRange) {
  QuantizedTensor q(1, 4, QuantBits::kInt4, 0);
  EXPECT_NO_THROW(q.set_code(0, 0, 7));
  EXPECT_NO_THROW(q.set_code(0, 1, -7));
  EXPECT_THROW(q.set_code(0, 2, 8), std::out_of_range);
  EXPECT_THROW(q.set_code(0, 3, -8), std::out_of_range);
}

TEST(QTensor, SaturationDetection) {
  QuantizedTensor q(1, 3, QuantBits::kInt4, 0);
  q.set_code(0, 0, 7);
  q.set_code(0, 1, -7);
  q.set_code(0, 2, 3);
  EXPECT_TRUE(q.is_saturated(0, 0));
  EXPECT_TRUE(q.is_saturated(0, 1));
  EXPECT_FALSE(q.is_saturated(0, 2));
}

TEST(QTensor, GroupGeometryValidation) {
  EXPECT_NO_THROW(QuantizedTensor(2, 32, QuantBits::kInt4, 16));
  EXPECT_THROW(QuantizedTensor(2, 30, QuantBits::kInt4, 16), std::invalid_argument);
  EXPECT_THROW(QuantizedTensor(0, 4, QuantBits::kInt8, 0), std::invalid_argument);
}

TEST(QTensor, RtnRoundTripErrorBounded) {
  const Tensor w = random_weight(8, 32, 1);
  for (QuantBits bits : {QuantBits::kInt8, QuantBits::kInt4}) {
    for (int64_t group : {int64_t{0}, int64_t{16}}) {
      const QuantizedTensor q = quantize_rtn(w, bits, group);
      const Tensor recon = q.dequantize();
      // Max error is half a step = absmax/(2*qmax) per group.
      for (int64_t r = 0; r < w.dim(0); ++r) {
        for (int64_t c = 0; c < w.dim(1); ++c) {
          const float step = q.scale(r, c);
          EXPECT_LE(std::fabs(recon.at(r, c) - w.at(r, c)), 0.5f * step + 1e-7f)
              << to_string(bits) << " g" << group;
        }
      }
    }
  }
}

TEST(QTensor, RtnInt8MuchTighterThanInt4) {
  const Tensor w = random_weight(16, 64, 2);
  const Tensor r8 = quantize_rtn(w, QuantBits::kInt8, 0).dequantize();
  const Tensor r4 = quantize_rtn(w, QuantBits::kInt4, 0).dequantize();
  double e8 = 0.0, e4 = 0.0;
  for (int64_t i = 0; i < w.numel(); ++i) {
    e8 += std::pow(r8.flat()[i] - w.flat()[i], 2.0f);
    e4 += std::pow(r4.flat()[i] - w.flat()[i], 2.0f);
  }
  EXPECT_LT(e8 * 10.0, e4);
}

TEST(QTensor, GroupingReducesInt4Error) {
  // A weight row with one huge outlier: per-row scale wrecks the small
  // weights, group-wise scales confine the damage.
  Tensor w({1, 32});
  Rng rng(3);
  for (float& v : w.flat()) v = rng.next_normal_f(0.0f, 0.05f);
  w.at(0, 0) = 5.0f;
  const Tensor per_row = quantize_rtn(w, QuantBits::kInt4, 0).dequantize();
  const Tensor grouped = quantize_rtn(w, QuantBits::kInt4, 16).dequantize();
  // The outlier sits in group 0 (cols 0..15); group 1 (cols 16..31) must be
  // rescued by group-wise scales while per-row scales wreck it.
  double e_row = 0.0, e_group = 0.0;
  for (int64_t i = 16; i < 32; ++i) {
    e_row += std::pow(per_row.at(0, i) - w.at(0, i), 2.0f);
    e_group += std::pow(grouped.at(0, i) - w.at(0, i), 2.0f);
  }
  EXPECT_LT(e_group, e_row * 0.25);
}

TEST(QTensor, ZeroWeightQuantizesToZero) {
  Tensor w({2, 4});
  const QuantizedTensor q = quantize_rtn(w, QuantBits::kInt4, 0);
  const Tensor recon = q.dequantize();
  for (int64_t i = 0; i < recon.numel(); ++i) EXPECT_EQ(recon.flat()[i], 0.0f);
}

TEST(QTensor, InputScaleFoldsIntoDequant) {
  Tensor w = Tensor::from_matrix(1, 2, {1.0f, 2.0f});
  QuantizedTensor q = quantize_rtn(w, QuantBits::kInt8, 0);
  q.set_input_scale({2.0f, 4.0f});
  const Tensor recon = q.dequantize();
  // dequantize divides by the input scale.
  EXPECT_NEAR(recon.at(0, 0), 0.5f, 0.01f);
  EXPECT_NEAR(recon.at(0, 1), 0.5f, 0.01f);
  EXPECT_THROW(q.set_input_scale({1.0f}), std::invalid_argument);
}

TEST(QTensor, OutlierColumnsBypassQuantization) {
  Tensor w = random_weight(4, 8, 5);
  QuantizedTensor q = quantize_rtn(w, QuantBits::kInt4, 0);
  Tensor outlier_w({4, 1});
  for (int64_t r = 0; r < 4; ++r) outlier_w.at(r, 0) = w.at(r, 3);
  q.set_outliers({3}, outlier_w);
  EXPECT_TRUE(q.is_outlier_col(3));
  EXPECT_FALSE(q.is_outlier_col(2));
  const Tensor recon = q.dequantize();
  for (int64_t r = 0; r < 4; ++r) {
    EXPECT_EQ(recon.at(r, 3), w.at(r, 3));  // exact FP passthrough
    EXPECT_EQ(q.dequantize_at(r, 3), w.at(r, 3));
  }
}

TEST(QTensor, SaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "emmark_qt_rt.bin").string();
  Tensor w = random_weight(4, 32, 6);
  QuantizedTensor q = quantize_rtn(w, QuantBits::kInt4, 16);
  q.set_input_scale(std::vector<float>(32, 1.5f));
  {
    BinaryWriter writer(path, "QTEST", 1);
    q.save(writer);
    writer.close();
  }
  BinaryReader reader(path, "QTEST", 1);
  const QuantizedTensor back = QuantizedTensor::load(reader);
  EXPECT_EQ(back.rows(), q.rows());
  EXPECT_EQ(back.cols(), q.cols());
  EXPECT_EQ(back.bits(), q.bits());
  EXPECT_EQ(back.codes(), q.codes());
  EXPECT_EQ(back.input_scale(), q.input_scale());
  std::remove(path.c_str());
}

TEST(QTensorPacked, Int4PackRoundTripIncludingOddTail) {
  // Odd column count: the last packed byte carries one real code plus a
  // zero pad nibble. Every write must read back exactly, through both the
  // per-element accessor and the unpacked codes() view.
  Rng rng(97);
  QuantizedTensor q(3, 33, QuantBits::kInt4, 0);
  std::vector<int8_t> want(static_cast<size_t>(q.numel()));
  for (int64_t i = 0; i < q.numel(); ++i) {
    const int8_t c = static_cast<int8_t>(static_cast<int64_t>(rng.next_u64() % 15) - 7);
    want[static_cast<size_t>(i)] = c;
    q.set_code_flat(i, c);
  }
  EXPECT_EQ(q.codes(), want);
  for (int64_t r = 0; r < q.rows(); ++r) {
    for (int64_t c = 0; c < q.cols(); ++c) {
      ASSERT_EQ(q.code(r, c), want[static_cast<size_t>(r * q.cols() + c)])
          << "r=" << r << " c=" << c;
    }
  }
  // Writing one element must not disturb its byte-mate (nibble RMW).
  q.set_code(1, 6, -7);
  q.set_code(1, 7, 7);
  EXPECT_EQ(q.code(1, 6), -7);
  EXPECT_EQ(q.code(1, 7), 7);
  q.set_code(1, 6, 3);
  EXPECT_EQ(q.code(1, 7), 7);
}

TEST(QTensorPacked, GroupBoundaryCodesSurvivePackAndDequant) {
  // Codes straddling a group boundary sit in one shared byte (columns 15
  // and 16 with group_size 16): each must dequantize with its own group's
  // scale after the packed round trip.
  Tensor w = random_weight(2, 32, 11);
  QuantizedTensor q = quantize_rtn(w, QuantBits::kInt4, 16);
  q.set_code(0, 15, 5);
  q.set_code(0, 16, -6);
  EXPECT_EQ(q.code(0, 15), 5);
  EXPECT_EQ(q.code(0, 16), -6);
  EXPECT_EQ(q.dequantize_at(0, 15), 5.0f * q.scale(0, 15));
  EXPECT_EQ(q.dequantize_at(0, 16), -6.0f * q.scale(0, 16));
}

TEST(QTensorPacked, CodesMutGuardRepacksOnDestruction) {
  QuantizedTensor q(2, 5, QuantBits::kInt4, 0);
  {
    QuantizedTensor::CodesMut codes = q.codes_mut();
    codes.data()[0] = 7;
    codes.data()[9] = -7;  // last element: odd-tail byte of row 1
  }
  EXPECT_EQ(q.code(0, 0), 7);
  EXPECT_EQ(q.code(1, 4), -7);
  const QuantizedTensor::CodesView view = q.codes_view();
  EXPECT_EQ(view.data()[0], 7);
  EXPECT_EQ(view.data()[9], -7);
}

TEST(QTensorPacked, Int4StorageHalfOfInt8Twin) {
  // Same logical shape, same group geometry: packed int4 must occupy
  // ceil(cols / 2) bytes per row against the int8 twin's cols.
  for (const int64_t cols : {int64_t{32}, int64_t{33}}) {
    QuantizedTensor q4(7, cols, QuantBits::kInt4, 0);
    QuantizedTensor q8(7, cols, QuantBits::kInt8, 0);
    EXPECT_EQ(q8.storage_bytes(), static_cast<size_t>(7 * cols));
    EXPECT_EQ(q4.storage_bytes(), static_cast<size_t>(7 * ((cols + 1) / 2)));
  }
}

TEST(QTensorPacked, SaveLoadKeepsUnpackedWireFormat) {
  // The on-disk codes vector stays one int8 per logical element at every
  // bit width, so snapshots written before packing still load.
  const std::string path =
      (std::filesystem::temp_directory_path() / "emmark_qt_packed_rt.bin").string();
  Tensor w = random_weight(3, 33, 13);
  QuantizedTensor q = quantize_rtn(w, QuantBits::kInt4, 0);
  {
    BinaryWriter writer(path, "QTEST", 1);
    q.save(writer);
    writer.close();
  }
  BinaryReader reader(path, "QTEST", 1);
  const QuantizedTensor back = QuantizedTensor::load(reader);
  EXPECT_EQ(back.codes(), q.codes());
  EXPECT_EQ(back.storage_bytes(), q.storage_bytes());
  const Tensor a = q.dequantize();
  const Tensor b = back.dequantize();
  EXPECT_EQ(std::vector<float>(a.flat().begin(), a.flat().end()),
            std::vector<float>(b.flat().begin(), b.flat().end()));
  std::remove(path.c_str());
}

/// In-grid codes drawn uniformly from [qmin, qmax].
std::vector<int8_t> random_codes(const QuantizedTensor& q, uint64_t seed) {
  Rng rng(seed);
  const uint64_t levels = static_cast<uint64_t>(q.qmax() - q.qmin() + 1);
  std::vector<int8_t> codes(static_cast<size_t>(q.numel()));
  for (int8_t& c : codes) {
    c = static_cast<int8_t>(q.qmin() + static_cast<int32_t>(rng.next_u64() % levels));
  }
  return codes;
}

TEST(QTensorBulk, SetCodesEqualsPerElementWritesByteForByte) {
  struct Case {
    QuantBits bits;
    int64_t cols;
  };
  for (const Case& c : {Case{QuantBits::kInt8, 33}, Case{QuantBits::kInt4, 32},
                        Case{QuantBits::kInt4, 33}}) {
    QuantizedTensor per_element(5, c.cols, c.bits, 0);
    QuantizedTensor bulk(5, c.cols, c.bits, 0);
    const std::vector<int8_t> codes = random_codes(bulk, 41 + c.cols);
    for (int64_t i = 0; i < per_element.numel(); ++i) {
      per_element.set_code_flat(i, codes[static_cast<size_t>(i)]);
    }
    bulk.set_codes(codes);
    const std::span<const int8_t> a = per_element.storage();
    const std::span<const int8_t> b = bulk.storage();
    ASSERT_EQ(a.size(), b.size()) << to_string(c.bits) << " cols=" << c.cols;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
        << to_string(c.bits) << " cols=" << c.cols;
    EXPECT_EQ(bulk.codes(), codes);
    if (c.bits == QuantBits::kInt4 && c.cols % 2 == 1) {
      // The odd tail's unused high nibble stays zero.
      const size_t row_bytes = static_cast<size_t>((c.cols + 1) / 2);
      for (size_t r = 0; r < 5; ++r) {
        EXPECT_EQ(static_cast<uint8_t>(b[r * row_bytes + row_bytes - 1]) >> 4, 0) << r;
      }
    }
  }
}

TEST(QTensorBulk, SetCodesRejectsOffGridCodesBeforeWriting) {
  for (const auto& [bits, bad] :
       {std::pair{QuantBits::kInt4, int8_t{8}}, std::pair{QuantBits::kInt4, int8_t{-8}},
        std::pair{QuantBits::kInt8, int8_t{-128}}}) {
    QuantizedTensor q(2, 7, bits, 0);
    const std::vector<int8_t> good = random_codes(q, 5);
    q.set_codes(good);
    std::vector<int8_t> codes = good;
    codes[9] = bad;
    try {
      q.set_codes(codes);
      ADD_FAILURE() << "accepted code " << int{bad} << " for " << to_string(bits);
    } catch (const std::out_of_range& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("quantized code out of range for ") + to_string(bits));
    }
    EXPECT_EQ(q.codes(), good);  // nothing was written
  }
  QuantizedTensor q(2, 7, QuantBits::kInt8, 0);
  EXPECT_THROW(q.set_codes(std::vector<int8_t>(13, 0)), std::invalid_argument);
}

TEST(QTensorBulk, LoadRejectsOffGridWireCodes) {
  // QuantizedTensor::load decodes through the same validated setter as
  // load_codes: an int4 code of 9 is not silently truncated by the nibble
  // pack, and int8's -128 (outside the symmetric grid) is not accepted.
  const std::string path =
      (std::filesystem::temp_directory_path() / "emmark_qt_offgrid.bin").string();
  for (const auto& [bits, bad] :
       {std::pair{QuantBits::kInt4, int8_t{9}}, std::pair{QuantBits::kInt8, int8_t{-128}}}) {
    {
      BinaryWriter writer(path, "QTEST", 1);
      quantize_rtn(random_weight(3, 16, 8), bits, 0).save(writer);
      writer.close();
    }
    {
      // The first code byte follows magic, version, rows, cols, bits,
      // group_size and the codes vector's count.
      std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
      file.seekp(8 + 4 + 8 + 8 + 4 + 8 + 8);
      file.put(static_cast<char>(bad));
    }
    BinaryReader reader(path, "QTEST", 1);
    EXPECT_THROW(QuantizedTensor::load(reader), std::out_of_range) << to_string(bits);
  }
  std::remove(path.c_str());
}

TEST(QTensorBulk, LoadChecksTheShapeBeforeSizingTheGrid) {
  // A forged header must fail on its shape, not allocate from it: a
  // 2^31 x 2^31 grid with an empty payload (which would ask for 2 EiB of
  // codes and ~1 EiB of scales), a shape whose element count overflows,
  // an empty shape, and a group size that does not divide the columns.
  const std::string path =
      (std::filesystem::temp_directory_path() / "emmark_qt_forged.bin").string();
  struct Header {
    int64_t rows, cols, group_size;
    size_t payload;
  };
  const int64_t big = int64_t{1} << 31;
  for (const Header& h : {Header{big, big, 0, 0}, Header{big, big * 4, 0, 0},
                          Header{0, 16, 0, 0}, Header{2, 16, 5, 32}}) {
    {
      BinaryWriter writer(path, "QTEST", 1);
      writer.write_i64(h.rows);
      writer.write_i64(h.cols);
      writer.write_u32(8);
      writer.write_i64(h.group_size);
      writer.write_vector(std::vector<int8_t>(h.payload, 0));
      writer.close();
    }
    BinaryReader reader(path, "QTEST", 1);
    EXPECT_THROW(QuantizedTensor::load(reader), SerializeError)
        << h.rows << " x " << h.cols << " / " << h.group_size;
  }
  std::remove(path.c_str());
}

TEST(QTensorBulk, LoadRejectsDecorationsThatDoNotFitTheGrid) {
  // Dequantization indexes the scales, the input scale and the outlier
  // columns without bounds checks, so a file whose decorations do not fit
  // its 2 x 16 grid must fail to load. The first case fits and loads.
  const std::string path =
      (std::filesystem::temp_directory_path() / "emmark_qt_decor.bin").string();
  struct Decorations {
    Tensor scales;
    std::vector<float> input_scale;
    std::vector<int32_t> outlier_cols;
    Tensor outlier_weights;
  };
  const std::vector<Decorations> cases = {
      {Tensor({2, 1}), {}, {3}, Tensor({2, 1})},
      {Tensor({1, 1}), {}, {}, Tensor()},
      {Tensor({2, 1}), std::vector<float>(3, 1.0f), {}, Tensor()},
      {Tensor({2, 1}), {}, {16}, Tensor({2, 1})},
      {Tensor({2, 1}), {}, {3}, Tensor({2, 2})},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    {
      BinaryWriter writer(path, "QTEST", 1);
      writer.write_i64(2);
      writer.write_i64(16);
      writer.write_u32(8);
      writer.write_i64(0);
      writer.write_vector(std::vector<int8_t>(32, 1));
      cases[i].scales.save(writer);
      writer.write_vector(cases[i].input_scale);
      writer.write_vector(cases[i].outlier_cols);
      cases[i].outlier_weights.save(writer);
      writer.close();
    }
    BinaryReader reader(path, "QTEST", 1);
    if (i == 0) {
      EXPECT_EQ(QuantizedTensor::load(reader).outlier_cols(), cases[0].outlier_cols);
    } else {
      EXPECT_THROW(QuantizedTensor::load(reader), SerializeError) << "case " << i;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace emmark
