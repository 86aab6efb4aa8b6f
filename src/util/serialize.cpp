#include "util/serialize.h"

#include <array>
#include <filesystem>

namespace emmark {
namespace {
constexpr size_t kMagicSize = 8;

std::array<char, kMagicSize> pad_magic(const std::string& magic) {
  std::array<char, kMagicSize> out{};
  for (size_t i = 0; i < kMagicSize && i < magic.size(); ++i) out[i] = magic[i];
  return out;
}
}  // namespace

BinaryWriter::BinaryWriter(const std::string& path, const std::string& magic, uint32_t version)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path) {
  if (!out_) throw SerializeError("cannot open for writing: " + path);
  const auto m = pad_magic(magic);
  write_bytes(m.data(), m.size());
  write_u32(version);
}

BinaryWriter::~BinaryWriter() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; an explicit close() surfaces the error.
  }
}

void BinaryWriter::close() {
  if (closed_) return;
  closed_ = true;
  out_.flush();
  if (!out_) throw SerializeError("write failure on close: " + path_);
  out_.close();
}

void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  if (!s.empty()) write_bytes(s.data(), s.size());
}

void BinaryWriter::write_bytes(const void* data, size_t size) {
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  if (!out_) throw SerializeError("write failure: " + path_);
}

BinaryReader::BinaryReader(const std::string& path, const std::string& magic,
                           uint32_t expected_version)
    : BinaryReader(path, magic, expected_version, expected_version) {}

BinaryReader::BinaryReader(const std::string& path, const std::string& magic,
                           uint32_t min_version, uint32_t max_version)
    : in_(path, std::ios::binary), path_(path) {
  if (!in_) throw SerializeError("cannot open for reading: " + path);
  in_.seekg(0, std::ios::end);
  const std::streamoff size = in_.tellg();
  in_.seekg(0, std::ios::beg);
  if (size < 0 || !in_) throw SerializeError("cannot open for reading: " + path);
  size_ = static_cast<uint64_t>(size);
  std::array<char, kMagicSize> found{};
  read_bytes(found.data(), found.size());
  if (found != pad_magic(magic)) {
    throw SerializeError("bad magic in " + path + " (expected " + magic + ")");
  }
  version_ = read_u32();
  if (version_ < min_version || version_ > max_version) {
    throw SerializeError(
        "version mismatch in " + path + ": have " + std::to_string(version_) +
        ", want " +
        (min_version == max_version
             ? std::to_string(min_version)
             : std::to_string(min_version) + ".." + std::to_string(max_version)));
  }
}

std::string BinaryReader::read_string() {
  const uint64_t size = read_u64();
  if (size > max_reasonable_elements(1)) throw SerializeError("string too large in " + path_);
  require_bytes(size, 1);
  std::string s(size, '\0');
  if (size > 0) read_bytes(s.data(), size);
  return s;
}

void BinaryReader::read_bytes(void* data, size_t size) {
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (static_cast<size_t>(in_.gcount()) != size) {
    throw SerializeError("truncated archive: " + path_);
  }
  offset_ += size;
}

void BinaryReader::require_bytes(uint64_t count, uint64_t item_bytes) const {
  const uint64_t left = size_ > offset_ ? size_ - offset_ : 0;
  if (count > left / item_bytes) throw SerializeError("truncated archive: " + path_);
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_regular_file(path, ec);
}

}  // namespace emmark
