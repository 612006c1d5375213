// Baseline exploration strategy.
//
// Random exploration is the comparison strategy in Figure 2 (and doubles as
// the weakest attacker of §4). It reuses the Controller with an unlimited
// "battleships opening" so it shares the adaptive strategy's bookkeeping
// and TestRecord format.
#pragma once

#include <cstdint>

#include "avd/controller.h"
#include "avd/executor.h"

namespace avd::core {

/// A Controller that never leaves the random phase: every scenario is an
/// independent uniform sample (without repetition).
Controller makeRandomExplorer(ScenarioExecutor& executor,
                              std::uint64_t seed = 1);

}  // namespace avd::core
