// Campaign engine: AVD exploration as a resumable, parallel, long-lived
// campaign (docs/campaign.md).
//
// The paper's controller explores one scenario at a time; each scenario
// re-initializes a full deployment, so test *execution* fans out while test
// *generation* stays a cheap sequential learning step. Every campaign keeps
// its books on a Ledger (campaign/ledger.h); CampaignRunner picks the
// driver that executes:
//
//  * Serial (workers == 1, no watchdog): the ledger at L = 1, executing
//    inline on the calling thread, bit-identical to Controller::runTests
//    for the same seed. It is the reference the golden journals pin.
//  * Everything else runs on fleet::FleetCoordinator with in-process
//    thread workers (fleet/thread_fleet.h): one scheduler, one watchdog and
//    one respawn policy for threads and processes alike. A thread
//    campaign's directory is a fleet directory that `avd_cli campaign
//    --resume` can also continue with worker processes.
//
// Reliability properties, in both drivers:
//  * every acquire and report is journaled (campaign/journal.h), so a
//    killed campaign resumes exactly where it stopped;
//  * an executor that throws, or reports an unsound outcome, yields a
//    failed zero-impact scenario, not a dead campaign (executeChecked);
//  * with a scenarioTimeoutMs budget, the coordinator retires a wedged
//    worker, retries its scenario once elsewhere, then folds it as timed
//    out; a campaign whose every worker wedges past the respawn budget
//    aborts with partial results.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "avd/controller.h"
#include "avd/executor.h"
#include "campaign/dedup.h"
#include "campaign/journal.h"

namespace avd::campaign {

/// Builds one executor instance. Called once for the controller's view of
/// the hyperspace and once per worker (re)start, on that worker's thread,
/// so calls may run concurrently. Each instance is owned by exactly one
/// worker thread. Instances must be behaviorally identical (same
/// options/seeds) so an outcome is a pure function of the point regardless
/// of which worker runs it.
using ExecutorFactory =
    std::function<std::unique_ptr<core::ScenarioExecutor>()>;

struct CampaignOptions {
  std::uint64_t seed = 2011;
  std::size_t totalTests = 100;
  /// Worker threads W. 1 without a watchdog = serial (bit-identical to
  /// runTests); otherwise W thread workers under the fleet coordinator.
  std::size_t workers = 1;
  /// Campaign directory for journal/manifest/checkpoint; empty = in-memory.
  std::string outDir;
  /// Free-form executor label recorded in the manifest (e.g. "quorum") so a
  /// resuming process knows which factory to rebuild.
  std::string system = "custom";
  /// Checkpoint refresh cadence, in completed scenarios.
  std::size_t checkpointEvery = 16;
  /// Per-scenario wall-clock budget; 0 disables the watchdog. A nonzero
  /// budget runs even a one-worker campaign on the coordinator.
  std::uint64_t scenarioTimeoutMs = 0;
  /// Minimum impact for a scenario to enter vulnerability triage; a
  /// scenario with a SAFETY verdict enters at any impact.
  double dedupMinImpact = 0.5;
};

struct CampaignResult {
  /// Fold-order history (the controller's view).
  std::vector<core::TestRecord> history;
  double maxImpact = 0.0;
  std::size_t executed = 0;
  std::size_t failed = 0;    // executor threw
  std::size_t timedOut = 0;  // watchdog retired the scenario
  /// True when every worker slot died or wedged past the respawn budget
  /// and the campaign gave up early; history holds the completed prefix.
  bool aborted = false;
  /// Worker slots revived after a crash or wedge.
  std::size_t respawns = 0;
  /// Scenarios re-executed on another worker after their original worker
  /// died or wedged (outcomes are pure functions of points, so
  /// re-execution is safe).
  std::size_t reassigned = 0;
  /// Worker deaths (crashes and wedge kills) observed by the coordinator.
  std::size_t workerCrashes = 0;
  /// Folded scenarios with a SAFETY verdict (safetyViolated), at any
  /// impact.
  std::size_t safetyViolations = 0;
  /// Deduplicated vulnerability classes (impact >= dedupMinImpact, or a
  /// SAFETY verdict).
  std::vector<VulnClass> classes;
};

/// Controller state reconstructed by replaying a journal (no re-execution).
struct ReplayState {
  /// Scenarios with a journaled "gen" but no "done" — in flight at the
  /// kill, and so the resumed campaign's lowest unfolded tests.
  std::map<std::uint64_t, core::GeneratedScenario> pending;
  std::uint64_t nextTest = 1;  // next un-generated 1-based test number
  std::size_t replayedFailed = 0;
  std::size_t replayedTimedOut = 0;
};

/// Feeds journaled events through `controller` in recorded order, verifying
/// each regenerated scenario and folded best-impact against the journal.
/// Ledger::resume runs it for both drivers. Throws std::runtime_error on
/// divergence (wrong seed, edited journal, changed hyperspace).
ReplayState replayJournal(core::Controller& controller,
                          const std::vector<JournalEvent>& events);

/// Executes one scenario with the campaign's failure isolation. An executor
/// that throws, or whose outcome has a defect (outcomeDefect), yields a
/// failed scenario with the zero outcome and the reason in `error`. The
/// serial loop and every fleet worker execute through this, so no outcome
/// can reach a journal that its own resume would reject.
/// `bestImpact` is left for the caller that folds the outcome.
DoneEvent executeChecked(core::ScenarioExecutor& executor, std::uint64_t test,
                         const core::Point& point);

class CampaignRunner {
 public:
  CampaignRunner(ExecutorFactory factory, CampaignOptions options);

  /// Fresh campaign. Creates/truncates the campaign directory files when
  /// options.outDir is set. Throws std::runtime_error on I/O failure.
  CampaignResult run();

  /// Continues the campaign stored in options.outDir (Ledger::resume):
  /// replays the journal against a fresh controller (no re-execution),
  /// re-executes scenarios that were in flight at the kill, then keeps
  /// exploring to the manifest's totalTests. A mode="fleet" directory (any
  /// coordinator campaign) resumes on the coordinator with thread workers,
  /// shards included; any other on the serial loop, whatever its recorded
  /// worker count. Throws std::runtime_error when the directory is missing,
  /// corrupt, or diverges from deterministic replay.
  CampaignResult resume();

 private:
  /// Runs (or resumes) this campaign on the fleet coordinator with
  /// options_.workers thread workers.
  CampaignResult runOnThreads(bool resuming);

  ExecutorFactory factory_;
  CampaignOptions options_;
};

}  // namespace avd::campaign
