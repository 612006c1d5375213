// In-process fleet workers: runWorker on a std::thread per slot, connected
// to the coordinator by a socketpair instead of fork+exec.
//
// This is how CampaignRunner runs a parallel or watchdog campaign: the same
// coordinator, protocol, window and journal as a process fleet, minus the
// crash containment. The launcher reports pid = -1, so the coordinator
// detects failure through EOF and heartbeats alone, and its "kill" closes
// its end of the socket. A thread cannot be killed: a wedged worker keeps
// executing until its scenario returns, then fails to send and exits.
#pragma once

#include <thread>
#include <vector>

#include "campaign/fleet/coordinator.h"
#include "campaign/fleet/worker.h"

namespace avd::campaign::fleet {

/// Owns the worker threads it launches and joins every one of them on
/// destruction, a wedged one included, so no thread outlives the fleet.
/// Declare it before the coordinator that uses its launcher: the
/// coordinator closes every socket on its way out, which is what lets the
/// joins finish.
class ThreadFleet {
 public:
  ThreadFleet() = default;
  ThreadFleet(const ThreadFleet&) = delete;
  ThreadFleet& operator=(const ThreadFleet&) = delete;
  ~ThreadFleet();

  /// A Launcher that starts one worker thread per call. The coordinator
  /// calls it from its own thread only.
  Launcher launcher(WorkerExecutorFactory factory, WorkerHooks hooks = {});

 private:
  std::vector<std::thread> threads_;
};

}  // namespace avd::campaign::fleet
