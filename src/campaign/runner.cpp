#include "campaign/runner.h"

#include <exception>
#include <stdexcept>
#include <utility>

#include "campaign/fleet/coordinator.h"
#include "campaign/fleet/thread_fleet.h"
#include "campaign/ledger.h"

namespace avd::campaign {

namespace {

/// The serial loop: the ledger at L = 1, executing each test inline on the
/// calling thread, so its journal is Controller::runTests's interleave.
CampaignResult driveSerial(Ledger& ledger) {
  ledger.start(1);
  while (const std::uint64_t test = ledger.nextAwaiting()) {
    ledger.report(executeChecked(ledger.executor(), test, ledger.point(test)));
  }
  return ledger.finish();
}

}  // namespace

ReplayState replayJournal(core::Controller& controller,
                          const std::vector<JournalEvent>& events) {
  ReplayState state;
  for (const JournalEvent& event : events) {
    if (event.kind == JournalEvent::Kind::kGen) {
      core::GeneratedScenario scenario = controller.acquireScenario();
      if (scenario.point != event.gen.point ||
          scenario.generatedBy != event.gen.generatedBy ||
          event.gen.test != state.nextTest) {
        throw std::runtime_error(
            "campaign: journal diverges from deterministic replay (wrong "
            "seed, edited journal, or changed hyperspace)");
      }
      state.pending.emplace(event.gen.test, std::move(scenario));
      ++state.nextTest;
    } else {
      const auto it = state.pending.find(event.done.test);
      if (it == state.pending.end()) {
        throw std::runtime_error(
            "campaign: journal reports a scenario that was never generated");
      }
      controller.reportOutcome(std::move(it->second), event.done.outcome);
      state.pending.erase(it);
      if (controller.maxImpact() != event.done.bestImpact) {
        throw std::runtime_error(
            "campaign: replayed best impact diverges from journal");
      }
      state.replayedFailed += event.done.failed ? 1 : 0;
      state.replayedTimedOut += event.done.timedOut ? 1 : 0;
    }
  }
  return state;
}

DoneEvent executeChecked(core::ScenarioExecutor& executor, std::uint64_t test,
                         const core::Point& point) {
  DoneEvent done;
  done.test = test;
  try {
    done.outcome = executor.execute(point);
  } catch (const std::exception& e) {
    done.failed = true;
    done.error = e.what();
  } catch (...) {
    done.failed = true;
    done.error = "unknown executor exception";
  }
  if (!done.failed) {
    const std::string defect = outcomeDefect(done.outcome);
    if (!defect.empty()) {
      done.failed = true;
      done.error = "executor returned ";
      done.error += defect;
    }
  }
  if (done.failed) done.outcome = core::Outcome{};
  return done;
}

CampaignRunner::CampaignRunner(ExecutorFactory factory,
                               CampaignOptions options)
    : factory_(std::move(factory)), options_(std::move(options)) {
  if (!factory_) throw std::runtime_error("campaign: null executor factory");
  if (options_.workers == 0) options_.workers = 1;
}

CampaignResult CampaignRunner::runOnThreads(bool resuming) {
  fleet::FleetOptions fleetOptions;
  fleetOptions.campaign = options_;
  fleetOptions.spawn = options_.workers;
  // Declared before the coordinator: its teardown closes every worker's
  // socket, and only then can the thread joins finish.
  fleet::ThreadFleet threads;
  fleetOptions.launcher = threads.launcher(
      [factory = factory_](const std::string&, std::uint64_t) {
        return factory();
      });
  fleet::FleetCoordinator coordinator(std::move(fleetOptions), factory_);
  return resuming ? coordinator.resume() : coordinator.run();
}

CampaignResult CampaignRunner::run() {
  if (options_.workers > 1 || options_.scenarioTimeoutMs > 0) {
    return runOnThreads(false);
  }
  Ledger ledger = Ledger::fresh(factory_, options_, Manifest{});
  return driveSerial(ledger);
}

CampaignResult CampaignRunner::resume() {
  // The manifest's mode picks the driver; the ledger applies the rest.
  if (!options_.outDir.empty()) {
    const auto manifest = loadManifest(options_.outDir);
    if (manifest && manifest->mode == "fleet") return runOnThreads(true);
  }
  Ledger ledger = Ledger::resume(factory_, options_);
  return driveSerial(ledger);
}

}  // namespace avd::campaign
