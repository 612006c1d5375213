#include "campaign/dedup.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace avd::campaign {

namespace {

int impactBandOf(double impact) {
  const int band = static_cast<int>(std::floor(impact * 10.0));
  return std::clamp(band, 0, 10);
}

void appendDouble(std::string& out, double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  out += buffer;
}

void appendBand(std::string& out, const OutcomeBand& band, int index) {
  out += ", ";
  out += band.label;
  out += " ";
  out += band.names[static_cast<std::size_t>(std::clamp(index, 0, 3))];
}

}  // namespace

VulnSignature signatureOf(const core::Hyperspace& space,
                          const core::TestRecord& record) {
  VulnSignature signature;
  signature.impactBand = impactBandOf(record.outcome.impact);
  signature.viewChangeBand =
      bandOf(kViewChangeBand, record.outcome.viewChanges);
  signature.restartBand = bandOf(kRestartBand, record.outcome.restarts);
  signature.resourceBand = bandOf(
      kResourceBand, record.outcome.queueDrops + record.outcome.quotaDrops);
  signature.safetyViolated = record.outcome.safetyViolated;
  signature.activeDims.reserve(space.dimensionCount());
  for (std::size_t d = 0; d < space.dimensionCount(); ++d) {
    const core::Dimension& dimension = space.dimension(d);
    const bool active = dimension.value(record.point[d]) != dimension.value(0);
    signature.activeDims.push_back(active ? 1 : 0);
  }
  return signature;
}

std::string signatureLabel(const core::Hyperspace& space,
                           const VulnSignature& signature) {
  std::string out;
  // Safety leads: a correctness break outranks any liveness/perf band.
  if (signature.safetyViolated) {
    out += kSafetyLabel;
    out += ", ";
  }
  out += "impact ";
  if (signature.impactBand >= 10) {
    out += "1.0";
  } else {
    out += "0." + std::to_string(signature.impactBand) + "-";
    out += signature.impactBand == 9
               ? "1.0"
               : "0." + std::to_string(signature.impactBand + 1);
  }
  appendBand(out, kViewChangeBand, signature.viewChangeBand);
  if (signature.restartBand > 0) {
    appendBand(out, kRestartBand, signature.restartBand);
  }
  if (signature.resourceBand > 0) {
    appendBand(out, kResourceBand, signature.resourceBand);
  }
  out += ", dims {";
  bool first = true;
  for (std::size_t d = 0; d < signature.activeDims.size(); ++d) {
    if (!signature.activeDims[d]) continue;
    if (!first) out += ", ";
    first = false;
    out += d < space.dimensionCount() ? space.dimension(d).name()
                                      : "dim" + std::to_string(d);
  }
  out += "}";
  return out;
}

std::vector<VulnClass> dedupVulnerabilities(
    const core::Hyperspace& space,
    const std::vector<core::TestRecord>& history, double minImpact) {
  std::map<VulnSignature, VulnClass> classes;
  for (std::size_t i = 0; i < history.size(); ++i) {
    const core::TestRecord& record = history[i];
    // A safety break is a finding at any impact: twins can fork committed
    // state while throughput barely moves.
    if (record.outcome.impact < minImpact && !record.outcome.safetyViolated) {
      continue;
    }
    const VulnSignature signature = signatureOf(space, record);
    auto [it, inserted] = classes.try_emplace(signature);
    VulnClass& cls = it->second;
    if (inserted) {
      cls.signature = signature;
      cls.exemplarTest = i + 1;
      cls.exemplar = record;
    } else if (record.outcome.impact > cls.exemplar.outcome.impact) {
      cls.exemplarTest = i + 1;
      cls.exemplar = record;
    }
    ++cls.count;
  }

  std::vector<VulnClass> out;
  out.reserve(classes.size());
  for (auto& [signature, cls] : classes) out.push_back(std::move(cls));
  std::sort(out.begin(), out.end(), [](const VulnClass& a, const VulnClass& b) {
    // Safety-violation classes lead the report regardless of impact: a
    // correctness break is the headline finding of any campaign.
    if (a.signature.safetyViolated != b.signature.safetyViolated) {
      return a.signature.safetyViolated;
    }
    if (a.exemplar.outcome.impact != b.exemplar.outcome.impact) {
      return a.exemplar.outcome.impact > b.exemplar.outcome.impact;
    }
    return a.signature < b.signature;
  });
  return out;
}

std::string vulnClassesJson(const core::Hyperspace& space,
                            const std::vector<VulnClass>& classes) {
  std::string out = "[";
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const VulnClass& cls = classes[i];
    if (i != 0) out += ",";
    out += "\n  {\"label\": \"" + signatureLabel(space, cls.signature) +
           "\", \"count\": " + std::to_string(cls.count) +
           ", \"exemplarTest\": " + std::to_string(cls.exemplarTest) +
           ", \"impact\": ";
    appendDouble(out, cls.exemplar.outcome.impact);
    out += ", \"restarts\": ";
    out += std::to_string(cls.exemplar.outcome.restarts);
    out += ", \"recoveryLatencySec\": ";
    appendDouble(out, cls.exemplar.outcome.recoveryLatencySec);
    out += ", \"queueDrops\": ";
    out += std::to_string(cls.exemplar.outcome.queueDrops);
    out += ", \"quotaDrops\": ";
    out += std::to_string(cls.exemplar.outcome.quotaDrops);
    // Witness only for safety classes, so non-safety reports keep the
    // pre-twins byte format. The format (pbft::formatSafetyWitness) uses
    // no quotes or backslashes, so plain quoting is JSON-safe.
    if (!cls.exemplar.outcome.safetyWitness.empty()) {
      out += ", \"safetyWitness\": \"";
      out += cls.exemplar.outcome.safetyWitness;
      out += '"';
    }
    out += ", \"point\": {";
    for (std::size_t d = 0; d < space.dimensionCount(); ++d) {
      if (d != 0) out += ", ";
      out += "\"" + space.dimension(d).name() + "\": " +
             std::to_string(space.dimension(d).value(cls.exemplar.point[d]));
    }
    out += "}}";
  }
  out += classes.empty() ? "]" : "\n]";
  out += "\n";
  return out;
}

}  // namespace avd::campaign
