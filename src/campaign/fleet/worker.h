// Fleet worker: the process (or, in CampaignRunner and the tests, thread)
// that actually executes scenarios.
//
// Life cycle: connect -> hello -> welcome (learn slot/incarnation, system,
// seed, shard location) -> loop { assign -> execute -> shard append ->
// outcome frame } until a shutdown frame or EOF. A heartbeat thread beats
// every heartbeatMs the whole time, so the coordinator can tell a live
// worker from a dead or hung process (silence / EOF); a wedged scenario is
// the coordinator's own assign-time deadline. The worker returns as soon as
// it stops, without waiting out a beat.
//
// Crash containment is the point of a worker process: anything that kills
// it — UB in a deployment, abort, OOM kill — costs the coordinator one
// respawn and a re-execution of the worker's in-flight scenario, never the
// campaign.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "avd/executor.h"

namespace avd::campaign::fleet {

/// Builds the worker's executor once the welcome names the campaign's
/// system and seed. Must construct the same executor the coordinator's
/// factory would, so an outcome is a pure function of the point no matter
/// which worker (or respawn) computes it.
using WorkerExecutorFactory =
    std::function<std::unique_ptr<core::ScenarioExecutor>(
        const std::string& system, std::uint64_t seed)>;

/// Test-only crash injection: return true to make the worker "die" at that
/// instant (stop writing anything and disconnect), emulating the two
/// interesting kill -9 placements around the shard append.
struct WorkerHooks {
  std::function<bool(std::uint64_t test)> crashBeforeShardWrite;
  std::function<bool(std::uint64_t test)> crashAfterShardWrite;
};

/// Exit codes returned by runWorker (and used as process exit codes by
/// `avd_cli fleet-worker`).
inline constexpr int kWorkerExitClean = 0;       // shutdown frame received
inline constexpr int kWorkerExitLostPeer = 1;    // EOF/error from coordinator
inline constexpr int kWorkerExitBadConfig = 2;   // unusable welcome/executor
inline constexpr int kWorkerExitSimulated = 9;   // a hook asked for death

/// Runs the worker protocol loop over the connected socket `fd` until
/// shutdown or disconnection. Closes `fd` before returning.
int runWorker(int fd, const WorkerExecutorFactory& makeExecutor,
              const WorkerHooks& hooks = {});

}  // namespace avd::campaign::fleet
