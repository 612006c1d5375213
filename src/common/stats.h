// Percentile statistics for performance measurement.
//
// pbft::Deployment collects each run's request latencies in a SampleSet and
// reports their p50 and p99.
#pragma once

#include <cstddef>
#include <vector>

namespace avd::util {

/// Reservoir of raw samples for percentile queries. Stores everything; the
/// workloads in this repository produce at most a few hundred thousand
/// samples per run.
class SampleSet {
 public:
  void add(double sample) { samples_.push_back(sample); }

  std::size_t count() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }
  double mean() const noexcept;
  /// Nearest-rank percentile, p in [0, 100]. Returns 0 on empty set.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace avd::util
