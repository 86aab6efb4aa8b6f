// Round-trip and corruption behaviour of the binary archive layer.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "util/serialize.h"

namespace emmark {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("emmark_ser_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(SerializeTest, PodRoundTrip) {
  {
    BinaryWriter w(path_, "TEST", 1);
    w.write_u32(0xdeadbeef);
    w.write_i64(-123456789);
    w.write_f32(1.5f);
    w.write_f64(-2.25);
    w.close();
  }
  BinaryReader r(path_, "TEST", 1);
  EXPECT_EQ(r.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.read_i64(), -123456789);
  EXPECT_EQ(r.read_f32(), 1.5f);
  EXPECT_EQ(r.read_f64(), -2.25);
}

TEST_F(SerializeTest, StringAndVectorRoundTrip) {
  const std::vector<float> values{1.0f, -2.0f, 3.5f};
  const std::vector<int8_t> bytes{-1, 0, 1, 127, -128};
  {
    BinaryWriter w(path_, "TEST", 3);
    w.write_string("hello emmark");
    w.write_string("");
    w.write_vector(values);
    w.write_vector(bytes);
    w.close();
  }
  BinaryReader r(path_, "TEST", 3);
  EXPECT_EQ(r.read_string(), "hello emmark");
  EXPECT_EQ(r.read_string(), "");
  EXPECT_EQ(r.read_vector<float>(), values);
  EXPECT_EQ(r.read_vector<int8_t>(), bytes);
}

TEST_F(SerializeTest, RejectsWrongMagic) {
  {
    BinaryWriter w(path_, "AAAA", 1);
    w.write_u32(5);
    w.close();
  }
  EXPECT_THROW(BinaryReader(path_, "BBBB", 1), SerializeError);
}

TEST_F(SerializeTest, RejectsWrongVersion) {
  {
    BinaryWriter w(path_, "TEST", 1);
    w.close();
  }
  EXPECT_THROW(BinaryReader(path_, "TEST", 2), SerializeError);
}

TEST_F(SerializeTest, RejectsTruncatedArchive) {
  {
    BinaryWriter w(path_, "TEST", 1);
    w.write_u64(1000);  // claims 1000 elements, writes none
    w.close();
  }
  BinaryReader r(path_, "TEST", 1);
  EXPECT_THROW(r.read_vector<float>(), SerializeError);
}

TEST_F(SerializeTest, RejectsCountsTheFileCannotHoldBeforeAllocating) {
  // A few bytes that claim 4 GiB must fail as a truncated archive before a
  // buffer is sized from the claim (the ASan lane caps allocations, so a
  // regression aborts there instead of allocating).
  {
    BinaryWriter w(path_, "TEST", 1);
    w.write_u64(4ull << 30);
    w.write_u64(4ull << 30);
    w.write_u64(4ull << 30);
    w.close();
  }
  {
    BinaryReader r(path_, "TEST", 1);
    EXPECT_THROW(r.read_vector<int8_t>(), SerializeError);
  }
  {
    BinaryReader r(path_, "TEST", 1);
    EXPECT_THROW(r.read_string(), SerializeError);
  }
  {
    BinaryReader r(path_, "TEST", 1);
    EXPECT_THROW(r.read_count(1), SerializeError);
  }
}

TEST_F(SerializeTest, ReadCountAcceptsExactlyWhatTheBytesLeftHold) {
  {
    BinaryWriter w(path_, "TEST", 1);
    w.write_u64(2);  // two items of >= 8 bytes: exactly what follows
    w.write_u64(7);
    w.write_u64(9);
    w.close();
  }
  {
    BinaryReader r(path_, "TEST", 1);
    EXPECT_EQ(r.read_count(sizeof(uint64_t)), 2u);
    EXPECT_EQ(r.read_u64(), 7u);
    EXPECT_EQ(r.read_u64(), 9u);
  }
  BinaryReader r(path_, "TEST", 1);
  EXPECT_THROW(r.read_count(sizeof(uint64_t) + 1), SerializeError);
}

TEST_F(SerializeTest, RejectsMissingFile) {
  EXPECT_THROW(BinaryReader("/nonexistent/emmark.bin", "TEST", 1), SerializeError);
}

TEST_F(SerializeTest, FileExists) {
  EXPECT_FALSE(file_exists(path_));
  {
    BinaryWriter w(path_, "TEST", 1);
    w.close();
  }
  EXPECT_TRUE(file_exists(path_));
}

}  // namespace
}  // namespace emmark
