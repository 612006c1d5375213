#include "campaign/runner.h"

#include <algorithm>
#include <charconv>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "avd/plugin.h"
#include "campaign/fleet/coordinator.h"
#include "campaign/fleet/thread_fleet.h"

namespace avd::campaign {

namespace {

GenEvent makeGenEvent(std::uint64_t test,
                      const core::GeneratedScenario& scenario) {
  GenEvent event;
  event.test = test;
  event.point = scenario.point;
  event.generatedBy = scenario.generatedBy;
  event.parentImpact = scenario.parentImpact;
  event.pluginIndex = static_cast<std::int64_t>(scenario.pluginIndex);
  return event;
}

void appendOrThrow(JournalWriter* journal, const std::string& line) {
  if (journal == nullptr) return;
  if (!journal->append(line)) {
    throw std::runtime_error("campaign: journal append failed (disk full?)");
  }
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
  const double impact = done.outcome.impact;
  if (!done.failed && !(impact >= 0.0 && impact <= 1.0)) {
    char text[32];
    const auto end = std::to_chars(text, text + sizeof(text), impact).ptr;
    done.failed = true;
    done.error = "executor returned impact ";
    done.error.append(text, end);
    done.error += " outside [0, 1]";
  }
  if (done.failed) done.outcome = core::Outcome{};
  return done;
}

CampaignRunner::CampaignRunner(ExecutorFactory factory,
                               CampaignOptions options, PluginFactory plugins)
    : factory_(std::move(factory)),
      options_(std::move(options)),
      plugins_(std::move(plugins)) {
  if (!factory_) throw std::runtime_error("campaign: null executor factory");
  if (options_.workers == 0) options_.workers = 1;
  if (options_.checkpointEvery == 0) options_.checkpointEvery = 16;
}

std::unique_ptr<core::ScenarioExecutor> CampaignRunner::makeExecutor() const {
  auto executor = factory_();
  if (!executor) {
    throw std::runtime_error("campaign: executor factory returned null");
  }
  return executor;
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
  fleet::FleetCoordinator coordinator(std::move(fleetOptions), factory_,
                                      plugins_);
  return resuming ? coordinator.resume() : coordinator.run();
}

CampaignResult CampaignRunner::run() {
  if (options_.workers > 1 || options_.scenarioTimeoutMs > 0) {
    return runOnThreads(false);
  }
  auto executor = makeExecutor();
  const core::Hyperspace& space = executor->space();
  std::vector<core::PluginPtr> plugins =
      plugins_ ? plugins_(space) : core::defaultPlugins(space);
  core::Controller controller(*executor, std::move(plugins),
                              options_.controller, options_.seed);

  JournalWriter journal;
  JournalWriter* journalPtr = nullptr;
  if (!options_.outDir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.outDir, ec);
    Manifest manifest;
    manifest.system = options_.system;
    manifest.seed = options_.seed;
    manifest.totalTests = options_.totalTests;
    manifest.workers = options_.workers;
    manifest.checkpointEvery = options_.checkpointEvery;
    manifest.scenarioTimeoutMs = options_.scenarioTimeoutMs;
    if (!writeManifest(options_.outDir, manifest) ||
        !journal.openFresh(journalPath(options_.outDir))) {
      throw std::runtime_error("campaign: cannot write to '" +
                               options_.outDir + "'");
    }
    journalPtr = &journal;
  }

  return drive(controller, *executor, journalPtr, ReplayState{});
}

CampaignResult CampaignRunner::resume() {
  if (options_.outDir.empty()) {
    throw std::runtime_error("campaign: resume requires outDir");
  }
  const auto manifest = loadManifest(options_.outDir);
  if (!manifest) {
    throw std::runtime_error("campaign: missing/corrupt manifest in '" +
                             options_.outDir + "'");
  }
  // The coordinator reads the manifest itself: seed, budget, window and
  // fleet shape.
  if (manifest->mode == "fleet") return runOnThreads(true);

  // The manifest is authoritative: a resumed campaign must regenerate the
  // exact same exploration, so the original seed/budget win over whatever
  // the constructor was given.
  options_.seed = manifest->seed;
  options_.totalTests = static_cast<std::size_t>(manifest->totalTests);
  options_.checkpointEvery = std::max<std::size_t>(
      1, static_cast<std::size_t>(manifest->checkpointEvery));
  options_.system = manifest->system;

  const auto loaded = loadJournal(journalPath(options_.outDir));
  if (!loaded) {
    throw std::runtime_error("campaign: corrupt journal in '" +
                             options_.outDir + "'");
  }

  auto executor = makeExecutor();
  const core::Hyperspace& space = executor->space();
  std::vector<core::PluginPtr> plugins =
      plugins_ ? plugins_(space) : core::defaultPlugins(space);
  core::Controller controller(*executor, std::move(plugins),
                              options_.controller, options_.seed);

  // Replay: the controller is a deterministic function of the journaled
  // acquire/report interleaving, so feeding the recorded outcomes back in
  // recorded order reconstructs Π/Ω/Ψ/µ and the plugin fitness exactly —
  // without executing anything. Any recorded order replays, so this also
  // continues the completion-order journals of the former in-process pool.
  ReplayState replayed = replayJournal(controller, loaded->events);

  JournalWriter journal;
  if (!journal.openResume(journalPath(options_.outDir),
                          loaded->validBytes)) {
    throw std::runtime_error("campaign: cannot reopen journal in '" +
                             options_.outDir + "'");
  }

  return drive(controller, *executor, &journal, std::move(replayed));
}

CampaignResult CampaignRunner::drive(core::Controller& controller,
                                     core::ScenarioExecutor& executor,
                                     JournalWriter* journal,
                                     ReplayState replayed) {
  CampaignResult result;
  result.failed = replayed.replayedFailed;
  result.timedOut = replayed.replayedTimedOut;
  std::uint64_t nextTest = replayed.nextTest;

  const auto maybeCheckpoint = [&](bool force) {
    if (options_.outDir.empty()) return;
    const std::size_t completed = controller.executedTests();
    if (!force && completed % options_.checkpointEvery != 0) return;
    // Durability order matters: the journal must be on disk before the
    // checkpoint that summarizes it, or a crash could leave a checkpoint
    // claiming progress the journal lost.
    if (journal != nullptr) journal->sync();
    Checkpoint checkpoint;
    checkpoint.generated = nextTest - 1;
    checkpoint.completed = completed;
    checkpoint.maxImpact = controller.maxImpact();
    writeCheckpoint(options_.outDir, checkpoint);
  };

  // Inline acquire -> execute -> report, bit-identical to
  // Controller::runTests for the same seed. Scenarios in flight at a kill
  // (journaled gen, no done) run first, in test order.
  while (controller.executedTests() < options_.totalTests) {
    std::uint64_t test;
    core::GeneratedScenario scenario;
    if (!replayed.pending.empty()) {
      auto first = replayed.pending.begin();
      test = first->first;
      scenario = std::move(first->second);
      replayed.pending.erase(first);
    } else {
      scenario = controller.acquireScenario();
      test = nextTest++;
      appendOrThrow(journal, encodeGen(makeGenEvent(test, scenario)));
    }
    DoneEvent done = executeChecked(executor, test, scenario.point);
    controller.reportOutcome(std::move(scenario), done.outcome);
    done.bestImpact = controller.maxImpact();
    appendOrThrow(journal, encodeDone(done));
    result.failed += done.failed ? 1 : 0;
    maybeCheckpoint(false);
  }

  result.history = controller.history();
  result.executed = result.history.size();
  result.maxImpact = controller.maxImpact();
  result.classes = dedupVulnerabilities(executor.space(), result.history,
                                        options_.dedupMinImpact);
  maybeCheckpoint(true);
  return result;
}

}  // namespace avd::campaign
