#include "avd/hyperspace.h"

#include <cassert>
#include <stdexcept>

#include "common/gray_code.h"
#include "common/hash.h"

namespace avd::core {

Dimension Dimension::range(std::string name, std::int64_t lo, std::int64_t hi,
                           std::int64_t step) {
  if (step <= 0 || hi < lo) throw std::invalid_argument("bad range dimension");
  Dimension dimension;
  dimension.name_ = std::move(name);
  dimension.kind_ = Kind::kRange;
  dimension.lo_ = lo;
  dimension.step_ = step;
  dimension.cardinality_ = static_cast<std::uint64_t>((hi - lo) / step) + 1;
  return dimension;
}

Dimension Dimension::grayBitmask(std::string name, std::uint32_t bits) {
  if (bits == 0 || bits > 63) throw std::invalid_argument("bad bitmask width");
  Dimension dimension;
  dimension.name_ = std::move(name);
  dimension.kind_ = Kind::kGrayBitmask;
  dimension.bits_ = bits;
  dimension.cardinality_ = std::uint64_t{1} << bits;
  return dimension;
}

Dimension Dimension::choice(std::string name,
                            std::vector<std::int64_t> values) {
  if (values.empty()) throw std::invalid_argument("empty choice dimension");
  Dimension dimension;
  dimension.name_ = std::move(name);
  dimension.kind_ = Kind::kChoice;
  dimension.choices_ = std::move(values);
  dimension.cardinality_ = dimension.choices_.size();
  return dimension;
}

std::int64_t Dimension::value(std::uint64_t index) const {
  assert(index < cardinality_);
  switch (kind_) {
    case Kind::kRange:
      return lo_ + static_cast<std::int64_t>(index) * step_;
    case Kind::kGrayBitmask:
      // Index space is Gray-decoded: stepping the index by one flips exactly
      // one bit of the produced mask.
      return static_cast<std::int64_t>(util::toGray(index));
    case Kind::kChoice:
      return choices_[index];
  }
  return 0;
}

std::size_t Hyperspace::add(Dimension dimension) {
  dimensions_.push_back(std::move(dimension));
  return dimensions_.size() - 1;
}

std::ptrdiff_t Hyperspace::indexOf(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < dimensions_.size(); ++i) {
    if (dimensions_[i].name() == name) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

std::uint64_t Hyperspace::totalScenarios() const noexcept {
  std::uint64_t total = 1;
  for (const Dimension& dimension : dimensions_) {
    const std::uint64_t cardinality = dimension.cardinality();
    if (cardinality != 0 && total > UINT64_MAX / cardinality) {
      return UINT64_MAX;  // saturate
    }
    total *= cardinality;
  }
  return total;
}

bool Hyperspace::valid(const Point& point) const noexcept {
  if (point.size() != dimensions_.size()) return false;
  for (std::size_t i = 0; i < point.size(); ++i) {
    if (point[i] >= dimensions_[i].cardinality()) return false;
  }
  return true;
}

Point Hyperspace::samplePoint(util::Rng& rng) const {
  Point point(dimensions_.size());
  for (std::size_t i = 0; i < dimensions_.size(); ++i) {
    point[i] = rng.below(dimensions_[i].cardinality());
  }
  return point;
}

std::uint64_t Hyperspace::pointHash(const Point& point) const noexcept {
  std::uint64_t h = util::fnv1a("avd.point");
  for (const std::uint64_t index : point) h = util::hashCombine(h, index);
  return h;
}

std::int64_t Hyperspace::valueOf(const Point& point, std::string_view name,
                                 std::int64_t fallback) const {
  const std::ptrdiff_t index = indexOf(name);
  if (index < 0) return fallback;
  return dimensions_[static_cast<std::size_t>(index)].value(
      point.at(static_cast<std::size_t>(index)));
}

}  // namespace avd::core
