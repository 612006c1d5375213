// The hyperspace of test parameters (§3).
//
// "Each dimension in the hyperspace represents the set of values that can be
// assigned to a particular parameter in the test." A point in the space is
// one test scenario. Dimensions come in three flavours:
//
//  * range      — evenly spaced integers [lo, lo+step, ..., <= hi], e.g. the
//                 number of correct clients (10..250 step 10);
//  * grayBitmask— a b-bit bitmask addressed through reflected Gray code, so
//                 that adjacent indices differ in exactly one mask bit (§6:
//                 "the 12-bit number is encoded in Gray code");
//  * choice     — an explicit list of values, e.g. {1, 2} malicious clients.
//
// Points are index vectors; dimension objects translate indices to concrete
// parameter values. Index space (not value space) is what mutation plugins
// step through, which is the whole purpose of the Gray encoding.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace avd::core {

/// A point: one index per dimension.
using Point = std::vector<std::uint64_t>;

class Dimension {
 public:
  enum class Kind { kRange, kGrayBitmask, kChoice };

  static Dimension range(std::string name, std::int64_t lo, std::int64_t hi,
                         std::int64_t step = 1);
  static Dimension grayBitmask(std::string name, std::uint32_t bits);
  static Dimension choice(std::string name, std::vector<std::int64_t> values);

  const std::string& name() const noexcept { return name_; }
  Kind kind() const noexcept { return kind_; }

  /// Number of distinct indices.
  std::uint64_t cardinality() const noexcept { return cardinality_; }

  /// Concrete parameter value at `index` (< cardinality()).
  std::int64_t value(std::uint64_t index) const;

  /// Width of a grayBitmask dimension (0 otherwise).
  std::uint32_t bits() const noexcept { return bits_; }

 private:
  Dimension() = default;

  std::string name_;
  Kind kind_ = Kind::kRange;
  std::uint64_t cardinality_ = 0;
  std::int64_t lo_ = 0;
  std::int64_t step_ = 1;
  std::uint32_t bits_ = 0;
  std::vector<std::int64_t> choices_;
};

class Hyperspace {
 public:
  /// Adds a dimension; returns its index.
  std::size_t add(Dimension dimension);

  std::size_t dimensionCount() const noexcept { return dimensions_.size(); }
  const Dimension& dimension(std::size_t index) const {
    return dimensions_.at(index);
  }
  /// Index of the dimension with `name`; -1 when absent.
  std::ptrdiff_t indexOf(std::string_view name) const noexcept;

  /// Product of cardinalities, saturating at UINT64_MAX.
  std::uint64_t totalScenarios() const noexcept;

  bool valid(const Point& point) const noexcept;

  /// Uniformly random point.
  Point samplePoint(util::Rng& rng) const;

  /// Order-sensitive hash of a point, for visited-set bookkeeping.
  std::uint64_t pointHash(const Point& point) const noexcept;

  /// Concrete value of dimension `name` at `point`; `fallback` when the
  /// space has no such dimension.
  std::int64_t valueOf(const Point& point, std::string_view name,
                       std::int64_t fallback) const;

 private:
  std::vector<Dimension> dimensions_;
};

}  // namespace avd::core
