// The target systems a campaign can explore: each one a hyperspace and the
// impact-measuring executor that runs its points (the paper's §3). The
// table is the one definition of each system, for `avd_cli campaign`,
// `fleet` and `fleet-worker`, the benches and the tests alike; the system
// name is what a campaign manifest records and what a fleet worker is
// welcomed with.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "avd/executor.h"

namespace avd::campaign {

struct System {
  const char* name;     // --system value and manifest "system"
  const char* summary;  // its line in `avd_cli list`
  /// The system's executor; `seed` is its deployment base seed (avd_cli
  /// passes the campaign seed).
  std::unique_ptr<core::ScenarioExecutor> (*makeExecutor)(std::uint64_t seed);
};

/// Every system, in `avd_cli list` order.
std::span<const System> systems();

/// The system called `name`; nullptr when there is none.
const System* findSystem(std::string_view name);

/// `name`'s executor for `seed`; nullptr for an unknown name. It fits
/// fleet::WorkerExecutorFactory as it is.
std::unique_ptr<core::ScenarioExecutor> makeSystemExecutor(
    std::string_view name, std::uint64_t seed);

}  // namespace avd::campaign
