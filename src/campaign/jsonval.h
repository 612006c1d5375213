// Shared helpers for the campaign's fixed-schema JSON lines.
//
// The journal (journal.cpp) and the fleet wire protocol
// (fleet/protocol.cpp) write the same deliberately restricted JSON shape:
// one object per line, fixed key order, %.17g doubles, keys matched on
// decode as the literal byte pattern `"key":`. Quotes inside string
// *values* are always written escaped (`\"`), so the pattern can only match
// at a real key. Keeping encoder and extractor in one header keeps the two
// formats byte-compatible by construction.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

#include "avd/hyperspace.h"

namespace avd::campaign::jsonl {

/// %.17g survives a text round trip bit-exactly for every finite double, so
/// a replayed journal reconstructs µ and the plugin gain sums to the bit.
inline void appendDouble(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

inline void appendEscaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[(c >> 4) & 0xF]);
          out.push_back(kHex[c & 0xF]);
        } else {
          out.push_back(c);
        }
    }
  }
  out += '"';
}

inline void appendKey(std::string& out, std::string_view key) {
  out += '"';
  out += key;
  out += "\":";
}

inline void appendBool(std::string& out, bool value) {
  out += value ? "true" : "false";
}

inline std::size_t findKey(std::string_view line, std::string_view key) {
  std::string pattern;
  pattern.reserve(key.size() + 3);
  pattern += '"';
  pattern += key;
  pattern += "\":";
  const std::size_t at = line.find(pattern);
  return at == std::string_view::npos ? std::string_view::npos
                                      : at + pattern.size();
}

// Each getter returns `absent` when `key` is missing (a key older writers
// omit) and nullopt when its value is malformed.

/// Finite values only: appendDouble never writes nan or inf for a value
/// the campaign accepts, so such text is corruption or a lying peer.
[[nodiscard]] inline std::optional<double> getDouble(
    std::string_view line, std::string_view key,
    std::optional<double> absent = std::nullopt) {
  const std::size_t at = findKey(line, key);
  if (at == std::string_view::npos) return absent;
  const std::string value(line.substr(at, 64));
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || !std::isfinite(parsed)) return std::nullopt;
  return parsed;
}

/// Parses the decimal digits at `at`, as std::to_string writes them: no
/// sign, and nothing that overflows 64 bits. Advances `at` past them.
[[nodiscard]] inline std::optional<std::uint64_t> parseU64(
    std::string_view line, std::size_t& at) {
  std::uint64_t parsed = 0;
  const char* first = line.data() + at;
  const auto [end, ec] =
      std::from_chars(first, line.data() + line.size(), parsed);
  if (ec != std::errc{}) return std::nullopt;
  at += static_cast<std::size_t>(end - first);
  return parsed;
}

[[nodiscard]] inline std::optional<std::uint64_t> getU64(
    std::string_view line, std::string_view key,
    std::optional<std::uint64_t> absent = std::nullopt) {
  std::size_t at = findKey(line, key);
  if (at == std::string_view::npos) return absent;
  return parseU64(line, at);
}

/// As parseU64, with the one sign std::to_string writes: a leading '-'.
[[nodiscard]] inline std::optional<std::int64_t> getI64(
    std::string_view line, std::string_view key) {
  const std::size_t at = findKey(line, key);
  if (at == std::string_view::npos) return std::nullopt;
  std::int64_t parsed = 0;
  const auto [end, ec] = std::from_chars(line.data() + at,
                                         line.data() + line.size(), parsed);
  if (ec != std::errc{}) return std::nullopt;
  return parsed;
}

[[nodiscard]] inline std::optional<bool> getBool(std::string_view line,
                                                 std::string_view key) {
  const std::size_t at = findKey(line, key);
  if (at == std::string_view::npos) return std::nullopt;
  if (line.substr(at, 4) == "true") return true;
  if (line.substr(at, 5) == "false") return false;
  return std::nullopt;
}

[[nodiscard]] inline std::optional<std::string> getString(
    std::string_view line, std::string_view key,
    std::optional<std::string> absent = std::nullopt) {
  std::size_t at = findKey(line, key);
  if (at == std::string_view::npos) return absent;
  if (at >= line.size() || line[at] != '"') return std::nullopt;
  ++at;
  std::string out;
  while (at < line.size() && line[at] != '"') {
    char c = line[at];
    if (c == '\\' && at + 1 < line.size()) {
      const char next = line[at + 1];
      at += 2;
      switch (next) {
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'u': {
          if (at + 4 > line.size()) return std::nullopt;
          const std::string hex(line.substr(at, 4));
          at += 4;
          c = static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16));
          break;
        }
        default: return std::nullopt;
      }
      out.push_back(c);
      continue;
    }
    out.push_back(c);
    ++at;
  }
  if (at >= line.size()) return std::nullopt;  // unterminated string
  return out;
}

[[nodiscard]] inline std::optional<core::Point> getPoint(
    std::string_view line, std::string_view key) {
  std::size_t at = findKey(line, key);
  if (at == std::string_view::npos || at >= line.size() || line[at] != '[') {
    return std::nullopt;
  }
  ++at;
  core::Point point;
  while (at < line.size() && line[at] != ']') {
    const auto parsed = parseU64(line, at);
    if (!parsed) return std::nullopt;
    point.push_back(*parsed);
    if (at < line.size() && line[at] == ',') ++at;
  }
  if (at >= line.size()) return std::nullopt;  // unterminated array
  return point;
}

}  // namespace avd::campaign::jsonl
