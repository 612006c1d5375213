#include "common/bytes.h"

namespace avd::util {

void ByteWriter::blob(std::span<const std::uint8_t> data) {
  u32(static_cast<std::uint32_t>(data.size()));
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::str(std::string_view s) {
  blob(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

std::optional<std::uint8_t> ByteReader::u8() noexcept {
  return readLe<std::uint8_t>();
}
std::optional<std::uint16_t> ByteReader::u16() noexcept {
  return readLe<std::uint16_t>();
}
std::optional<std::uint32_t> ByteReader::u32() noexcept {
  return readLe<std::uint32_t>();
}
std::optional<std::uint64_t> ByteReader::u64() noexcept {
  return readLe<std::uint64_t>();
}
std::optional<std::int64_t> ByteReader::i64() noexcept {
  auto v = readLe<std::uint64_t>();
  if (!v) return std::nullopt;
  return static_cast<std::int64_t>(*v);
}

std::optional<Bytes> ByteReader::blob() {
  const auto len = u32();
  if (!len || remaining() < *len) return std::nullopt;
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + *len));
  pos_ += *len;
  return out;
}

std::optional<std::string> ByteReader::str() {
  auto raw = blob();
  if (!raw) return std::nullopt;
  return std::string(raw->begin(), raw->end());
}

}  // namespace avd::util
