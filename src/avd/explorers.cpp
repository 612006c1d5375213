#include "avd/explorers.h"

namespace avd::core {

Controller makeRandomExplorer(ScenarioExecutor& executor, std::uint64_t seed) {
  ControllerOptions options;
  options.initialRandomTests = SIZE_MAX;  // never switch to feedback mode
  return Controller(executor, defaultPlugins(executor.space()), options, seed);
}

}  // namespace avd::core
