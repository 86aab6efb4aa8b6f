// Binary serialization for model checkpoints and watermark records.
//
// Format: little-endian, length-prefixed. Every archive starts with a
// 8-byte magic + 4-byte version so stale cache files are rejected instead
// of mis-read. Only trivially-copyable scalar types plus strings/vectors
// are supported -- enough for tensors, configs and watermark keys.
#pragma once

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace emmark {

/// Thrown on malformed or truncated archives.
class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class BinaryWriter {
 public:
  /// Opens `path` for writing and emits the archive header.
  /// `magic` identifies the archive kind (e.g. "EMMCKPT1").
  BinaryWriter(const std::string& path, const std::string& magic, uint32_t version);
  ~BinaryWriter();

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  template <typename T>
  void write_pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>, "write_pod needs a POD type");
    write_bytes(&value, sizeof(T));
  }

  void write_u32(uint32_t v) { write_pod(v); }
  void write_u64(uint64_t v) { write_pod(v); }
  void write_i64(int64_t v) { write_pod(v); }
  void write_f32(float v) { write_pod(v); }
  void write_f64(double v) { write_pod(v); }

  void write_string(const std::string& s);

  template <typename T>
  void write_vector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>, "write_vector needs POD elements");
    write_u64(values.size());
    if (!values.empty()) write_bytes(values.data(), values.size() * sizeof(T));
  }

  /// Flushes and closes; throws on I/O failure. Called by the destructor
  /// (which swallows errors), so call explicitly when you care.
  void close();

 private:
  void write_bytes(const void* data, size_t size);

  std::ofstream out_;
  std::string path_;
  bool closed_ = false;
};

class BinaryReader {
 public:
  /// Opens `path`, validates magic and version.
  BinaryReader(const std::string& path, const std::string& magic, uint32_t expected_version);

  /// Version-tolerant variant: accepts any archive version in
  /// [min_version, max_version]. Callers branch on version() to parse older
  /// layouts (e.g. evidence bundles written before the scheme tag existed).
  BinaryReader(const std::string& path, const std::string& magic,
               uint32_t min_version, uint32_t max_version);

  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  template <typename T>
  T read_pod() {
    static_assert(std::is_trivially_copyable_v<T>, "read_pod needs a POD type");
    T value{};
    read_bytes(&value, sizeof(T));
    return value;
  }

  uint32_t read_u32() { return read_pod<uint32_t>(); }
  uint64_t read_u64() { return read_pod<uint64_t>(); }
  int64_t read_i64() { return read_pod<int64_t>(); }
  float read_f32() { return read_pod<float>(); }
  double read_f64() { return read_pod<double>(); }

  std::string read_string();

  /// Length-prefixed vector. The count is checked against the bytes left
  /// in the file before anything is allocated, so a forged length field
  /// fails as a truncated archive instead of sizing a huge buffer.
  template <typename T>
  std::vector<T> read_vector() {
    static_assert(std::is_trivially_copyable_v<T>, "read_vector needs POD elements");
    const uint64_t count = read_u64();
    if (count > max_reasonable_elements(sizeof(T))) {
      throw SerializeError("archive element count implausibly large");
    }
    require_bytes(count, sizeof(T));
    std::vector<T> values(count);
    if (count > 0) read_bytes(values.data(), count * sizeof(T));
    return values;
  }

  /// Reads the length of a sequence whose items each occupy at least
  /// `min_item_bytes` in the archive, and rejects one the bytes left cannot
  /// hold: callers may reserve() the result without trusting the file.
  uint64_t read_count(uint64_t min_item_bytes) {
    const uint64_t count = read_u64();
    require_bytes(count, min_item_bytes);
    return count;
  }

  uint32_t version() const { return version_; }

 private:
  void read_bytes(void* data, size_t size);
  /// Throws the truncated-archive error unless `count` items of
  /// `item_bytes` each fit in the bytes left.
  void require_bytes(uint64_t count, uint64_t item_bytes) const;
  static uint64_t max_reasonable_elements(size_t elem_size) {
    return (8ull << 30) / elem_size;  // refuse >8 GiB payloads
  }

  std::ifstream in_;
  std::string path_;
  uint32_t version_ = 0;
  uint64_t size_ = 0;    // file size at open
  uint64_t offset_ = 0;  // bytes consumed so far
};

/// True if a regular file exists at `path`.
bool file_exists(const std::string& path);

}  // namespace emmark
