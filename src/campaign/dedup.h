// Vulnerability dedup/triage for campaign results.
//
// A long campaign rediscovers the same attack hundreds of times through
// slightly different points (a different client count, a neighbouring Gray
// index). Re-reporting each as a separate finding buries the signal, so
// high-impact scenarios are clustered by *behavioral signature* — what the
// attack did to the correct nodes and which fault dimensions were active —
// into distinct vulnerability classes, each represented by its
// highest-impact exemplar (the Twins-style "distinct failure scenario"
// view of a fuzzing corpus).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "avd/controller.h"
#include "avd/hyperspace.h"

namespace avd::campaign {

/// Bands of an outcome counter in a signature and its label. The edges and
/// names are part of the classes.json format: change them only on purpose.
struct OutcomeBand {
  std::string_view label;  // e.g. "view changes"
  std::uint64_t lo;        // value <= lo -> band 1
  std::uint64_t hi;        // value <= hi -> band 2, else 3
  std::array<std::string_view, 4> names;
};

inline constexpr OutcomeBand kViewChangeBand{
    "view changes", 3, 10, {{"none", "1-3", "4-10", ">10"}}};
inline constexpr OutcomeBand kRestartBand{
    "restarts", 2, 8, {{"none", "1-2", "3-8", ">8"}}};
inline constexpr OutcomeBand kResourceBand{
    "resource drops", 100, 10000, {{"none", "1-100", "101-10k", ">10k"}}};

/// Band index of `value` under `band` (0 = none).
inline constexpr int bandOf(const OutcomeBand& band, std::uint64_t value) {
  if (value == 0) return 0;
  if (value <= band.lo) return 1;
  if (value <= band.hi) return 2;
  return 3;
}

/// Leads the label of a class whose scenarios violated safety.
inline constexpr std::string_view kSafetyLabel = "SAFETY VIOLATED";

/// The behavioral fingerprint of one executed scenario. Two scenarios with
/// equal signatures are treated as the same vulnerability class.
struct VulnSignature {
  /// floor(impact * 10) clamped to [0, 10]: 0.82 and 0.86 are the same
  /// attack strength, 0.3 and 0.9 are not.
  int impactBand = 0;
  /// 0: no view changes, 1: 1-3 (a recovery), 2: 4-10 (thrashing),
  /// 3: >10 (view-change storm).
  int viewChangeBand = 0;
  /// 0: no restarts, 1: 1-2 (a crash or two), 2: 3-8 (sustained churn),
  /// 3: >8 (crash-loop). Splits churn-found classes from pure message-level
  /// attacks with the same impact profile.
  int restartBand = 0;
  /// Over queueDrops + quotaDrops: 0: none, 1: 1-100 (pressure), 2: 101-10k
  /// (sustained overload), 3: >10k (outright flood). Splits
  /// resource-exhaustion classes from timing attacks with the same impact.
  int resourceBand = 0;
  bool safetyViolated = false;
  /// Per hyperspace dimension: 1 when the scenario's concrete value differs
  /// from the dimension's index-0 (baseline/off) value — i.e. this fault
  /// dimension participated in the attack.
  std::vector<std::uint8_t> activeDims;

  auto operator<=>(const VulnSignature&) const = default;
};

VulnSignature signatureOf(const core::Hyperspace& space,
                          const core::TestRecord& record);

/// Human-readable one-liner, e.g.
/// "impact 0.8-0.9, view changes 1-3, dims {mac_mask, correct_clients}".
std::string signatureLabel(const core::Hyperspace& space,
                           const VulnSignature& signature);

struct VulnClass {
  VulnSignature signature;
  std::size_t count = 0;         // scenarios in this class
  std::size_t exemplarTest = 0;  // 1-based history index of the exemplar
  core::TestRecord exemplar;     // highest-impact member (earliest on ties)
};

/// Clusters every history record with impact >= minImpact, and every
/// record with a SAFETY verdict whatever its impact. Returns classes with
/// the SAFETY ones first, each group sorted by exemplar impact descending
/// (ties: signature order), so the triage report is deterministic.
std::vector<VulnClass> dedupVulnerabilities(
    const core::Hyperspace& space,
    const std::vector<core::TestRecord>& history, double minImpact = 0.5);

/// JSON array of classes (signature, count, exemplar point by dimension
/// name, exemplar outcome) for machine-readable triage reports.
std::string vulnClassesJson(const core::Hyperspace& space,
                            const std::vector<VulnClass>& classes);

}  // namespace avd::campaign
