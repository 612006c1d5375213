// Fleet coordinator: the campaign scheduler for every parallel or
// watchdog campaign. It keeps its books on a campaign::Ledger (controller,
// journal, fold, checkpoint, resume; campaign/ledger.h) and only schedules:
// it farms scenario execution out to workers — fork+exec'd processes
// (`avd_cli fleet`), threads of this process (CampaignRunner, via
// fleet/thread_fleet.h), or workers connecting over TCP — and hands their
// outcomes to the ledger.
//
// Topology: the coordinator starts `spawn` local workers through its
// Launcher (a process over a Unix socketpair, or a thread over one) and
// optionally listens on loopback TCP for `remoteSlots` externally started
// workers. Workers execute scenarios, one at a time each; only the
// coordinator's ledger ever touches the Controller, so Algorithm 1's
// learning loop stays strictly sequential and deterministic, and the
// journal is a pure function of (seed, L, total) with the window
// L = batch x slots.
//
// Failure handling: per-worker heartbeats with deadline detection, pid
// liveness checks, per-slot wedge deadlines (kill the worker to recover
// the slot; a thread worker's "kill" only closes its socket, and the
// thread exits once its scenario returns), capped-exponential-backoff
// respawns (1 s cap) from a bounded budget, and reassignment of a dead
// worker's scenario (outcomes are pure functions of points). A scenario
// that wedges wedgeKillLimit workers folds as timed out. Completed
// outcomes additionally live in per-worker shard files (fleet/shard.h) so
// that killing the *coordinator* loses nothing either: resume() merges
// shards and hands them to the ledger, which re-folds instead of
// re-executing.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "campaign/fleet/shard.h"
#include "campaign/runner.h"
#include "common/proc.h"

namespace avd::campaign {
class Ledger;
}  // namespace avd::campaign

namespace avd::campaign::fleet {

/// Launches worker #slot and returns its pid plus the coordinator's end of
/// the connection. Processes: spawnWithSocket of this binary in
/// fleet-worker mode. Threads: ThreadFleet::launcher, which runs runWorker
/// over a socketpair with pid = -1 (failure detection then rests on EOF and
/// heartbeats alone; "kill" degrades to closing the socket).
using Launcher =
    std::function<std::optional<util::SpawnedProcess>(std::size_t slot)>;

struct FleetOptions {
  /// seed / totalTests / outDir / system / checkpointEvery /
  /// scenarioTimeoutMs / dedupMinImpact are honored;
  /// `workers` is derived as spawn + remoteSlots.
  CampaignOptions campaign;
  /// Locally spawned workers (via `launcher`).
  std::size_t spawn = 2;
  /// Additional slots filled by workers connecting over TCP.
  std::size_t remoteSlots = 0;
  /// IPv4 address (and optional fixed port; 0 = ephemeral) the
  /// remote-worker listener binds. The loopback default is a deliberate
  /// safety posture — the worker protocol is unauthenticated, so exposing
  /// it on a routable interface is an explicit, caller-audited decision
  /// (avd_cli requires --allow-any-bind before it accepts 0.0.0.0).
  std::string bindAddr = "127.0.0.1";
  std::uint16_t bindPort = 0;
  /// Generation window per slot: up to L = batch * (spawn + remoteSlots)
  /// scenarios are generated ahead of the fold. Each worker still executes
  /// one scenario at a time.
  std::size_t batch = 4;
  std::uint64_t heartbeatMs = 200;
  /// A worker silent for heartbeatMs * this factor is declared dead.
  std::uint64_t heartbeatMissFactor = 25;
  /// Leeway for exec + executor construction before liveness deadlines
  /// apply to a freshly (re)spawned worker; also the window during which
  /// an empty remote slot counts as "progress still possible".
  std::uint64_t spawnGraceMs = 10000;
  /// Worker respawn budget across the whole run; 0 = never respawn.
  std::size_t maxWorkerRespawns = 8;
  std::uint64_t respawnBackoffBaseMs = 50;
  /// After this many wedge kills of the same test, fold a timed-out zero
  /// outcome instead of reassigning it again.
  std::size_t wedgeKillLimit = 2;
  Launcher launcher;
  /// When non-null and set true (e.g. from a SIGTERM handler), the
  /// coordinator drains: stops assigning, keeps generating per the window
  /// invariant (so the journal stays a canonical prefix), and returns once
  /// every already-assigned scenario has folded.
  std::atomic<bool>* drainFlag = nullptr;
};

class FleetCoordinator {
 public:
  /// Binds the TCP listener when remoteSlots > 0 (throws on failure), so
  /// listenPort() is valid before run()/resume() starts.
  FleetCoordinator(FleetOptions options, ExecutorFactory factory);
  ~FleetCoordinator();

  /// Fresh campaign; writes a mode="fleet" manifest when outDir is set.
  CampaignResult run();
  /// Continues a fleet campaign directory: journal replay + shard merge.
  CampaignResult resume();

  /// Loopback port remote workers should connect to; 0 when not listening.
  [[nodiscard]] std::uint16_t listenPort() const;

 private:
  /// Schedules `ledger`'s tests on the worker slots until its budget is
  /// folded, the fleet drains, or every slot is gone. `shards` is what a
  /// resume merged from the campaign directory.
  CampaignResult drive(Ledger& ledger, MergedShards shards);

  FleetOptions options_;
  ExecutorFactory factory_;
  std::optional<util::TcpListener> listener_;
};

}  // namespace avd::campaign::fleet
