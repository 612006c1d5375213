// Byte-buffer serialization primitives.
//
// Protocol messages are kept as typed C++ objects inside the simulator for
// speed, but request payloads and digests are computed over a canonical
// little-endian wire encoding produced by ByteWriter, so message identity
// (and therefore MAC coverage) matches what a real deployment would sign.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace avd::util {

using Bytes = std::vector<std::uint8_t>;

/// Appends fixed-width little-endian scalars and length-prefixed blobs to a
/// growable byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { appendLe(v); }
  void u32(std::uint32_t v) { appendLe(v); }
  void u64(std::uint64_t v) { appendLe(v); }
  void i64(std::int64_t v) { appendLe(static_cast<std::uint64_t>(v)); }

  /// Length-prefixed (u32) raw bytes.
  void blob(std::span<const std::uint8_t> data);
  /// Length-prefixed (u32) string.
  void str(std::string_view s);

  const Bytes& bytes() const noexcept { return buf_; }
  Bytes take() noexcept { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  /// Makes room for the whole value first, so the buffer grows at most
  /// once per value (geometrically), not once per byte.
  template <typename T>
  void appendLe(T v) {
    if (buf_.capacity() - buf_.size() < sizeof(T)) {
      buf_.reserve(std::max(2 * buf_.capacity(), buf_.size() + sizeof(T)));
    }
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

/// Reads back values written by ByteWriter. All accessors return
/// std::nullopt on truncated input instead of reading out of bounds.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] std::optional<std::uint8_t> u8() noexcept;
  [[nodiscard]] std::optional<std::uint16_t> u16() noexcept;
  [[nodiscard]] std::optional<std::uint32_t> u32() noexcept;
  [[nodiscard]] std::optional<std::uint64_t> u64() noexcept;
  [[nodiscard]] std::optional<std::int64_t> i64() noexcept;
  [[nodiscard]] std::optional<Bytes> blob();
  [[nodiscard]] std::optional<std::string> str();

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool exhausted() const noexcept { return remaining() == 0; }

 private:
  template <typename T>
  [[nodiscard]] std::optional<T> readLe() noexcept {
    if (remaining() < sizeof(T)) return std::nullopt;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace avd::util
