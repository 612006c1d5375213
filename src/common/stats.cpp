#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace avd::util {

double SampleSet::mean() const noexcept {
  if (samples_.empty()) return 0.0;
  double total = 0.0;
  for (double s : samples_) total += s;
  return total / static_cast<double>(samples_.size());
}

double SampleSet::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  p = std::clamp(p, 0.0, 100.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples_.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  return samples_[std::min(index, samples_.size() - 1)];
}

}  // namespace avd::util
