#include "campaign/fleet/thread_fleet.h"

#include <utility>

#include "common/proc.h"

namespace avd::campaign::fleet {

ThreadFleet::~ThreadFleet() {
  for (std::thread& thread : threads_) thread.join();
}

Launcher ThreadFleet::launcher(WorkerExecutorFactory factory,
                               WorkerHooks hooks) {
  return [this, factory = std::move(factory), hooks = std::move(hooks)](
             std::size_t) -> std::optional<util::SpawnedProcess> {
    const auto fds = util::socketPair();
    if (!fds) return std::nullopt;
    threads_.emplace_back([fd = (*fds)[1], factory, hooks] {
      (void)runWorker(fd, factory, hooks);
    });
    return util::SpawnedProcess{-1, (*fds)[0]};
  };
}

}  // namespace avd::campaign::fleet
