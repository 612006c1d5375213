// Non-cryptographic hashing used for digests, deduplication keys and
// deterministic seed derivation. Cryptographic-strength MACs live in
// src/crypto; this header is for identity, not authentication.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace avd::util {

/// Streaming 64-bit FNV-1a. FNV-1a consumes one byte at a time, so feeding
/// a byte sequence in pieces gives the same digest as fnv1a() over the
/// whole of it — which lets a digest of a canonical encoding be computed
/// without building the encoding.
class Fnv1a {
 public:
  constexpr void byte(std::uint8_t b) noexcept { h_ = (h_ ^ b) * kPrime; }

  constexpr void bytes(std::span<const std::uint8_t> data) noexcept {
    for (const std::uint8_t b : data) byte(b);
  }

  /// The bytes ByteWriter writes for `v`: sizeof(T) of them, little-endian.
  template <typename T>
  constexpr void le(T v) noexcept {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  constexpr std::uint64_t digest() const noexcept { return h_; }

 private:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h_ = kOffset;
};

/// 64-bit FNV-1a over raw bytes.
inline std::uint64_t fnv1a(std::span<const std::uint8_t> data) noexcept {
  Fnv1a h;
  h.bytes(data);
  return h.digest();
}

/// 64-bit FNV-1a over the bytes of `s`; usable in constant expressions, so
/// domain-separation tags can be hashed at compile time.
constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  Fnv1a h;
  for (const char c : s) h.byte(static_cast<std::uint8_t>(c));
  return h.digest();
}

/// Order-sensitive combination of two 64-bit hashes: the 64-bit variant of
/// boost::hash_combine, with the golden-ratio constant.
constexpr std::uint64_t hashCombine(std::uint64_t seed,
                                    std::uint64_t value) noexcept {
  return seed ^ (value + 0x9E3779B97F4A7C15ULL + (seed << 12) + (seed >> 4));
}

}  // namespace avd::util
