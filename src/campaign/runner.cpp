#include "campaign/runner.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "avd/plugin.h"
#include "common/thread_pool.h"

namespace avd::campaign {

namespace {

// The watchdog clock. Wall-clock reads are banned in deterministic paths
// (lint R1) because scenario *content* must replay from a seed; the
// watchdog never influences which scenarios are generated or what their
// outcomes are — it only bounds how long the campaign waits for a worker,
// which is an operational concern, not exploration state.
// avd-lint: allow(nondeterminism)
using WatchClock = std::chrono::steady_clock;

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

CampaignRunner::CampaignRunner(ExecutorFactory factory,
                               CampaignOptions options, PluginFactory plugins)
    : factory_(std::move(factory)),
      options_(std::move(options)),
      plugins_(std::move(plugins)) {
  if (!factory_) throw std::runtime_error("campaign: null executor factory");
  if (options_.workers == 0) options_.workers = 1;
  if (options_.checkpointEvery == 0) options_.checkpointEvery = 16;
}

std::vector<std::unique_ptr<core::ScenarioExecutor>>
CampaignRunner::makeExecutors() const {
  std::vector<std::unique_ptr<core::ScenarioExecutor>> executors;
  executors.reserve(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w) {
    executors.push_back(factory_());
    if (!executors.back()) {
      throw std::runtime_error("campaign: executor factory returned null");
    }
  }
  return executors;
}

CampaignResult CampaignRunner::run() {
  auto executors = makeExecutors();
  const core::Hyperspace& space = executors.front()->space();
  std::vector<core::PluginPtr> plugins =
      plugins_ ? plugins_(space) : core::defaultPlugins(space);
  core::Controller controller(*executors.front(), std::move(plugins),
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

  return drive(controller, executors, journalPtr, {}, 1, 0, 0);
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
  // The manifest is authoritative: a resumed campaign must regenerate the
  // exact same exploration, so the original seed/budget/pool shape win over
  // whatever the constructor was given.
  options_.seed = manifest->seed;
  options_.totalTests = static_cast<std::size_t>(manifest->totalTests);
  options_.workers = std::max<std::size_t>(
      1, static_cast<std::size_t>(manifest->workers));
  options_.checkpointEvery = std::max<std::size_t>(
      1, static_cast<std::size_t>(manifest->checkpointEvery));
  options_.scenarioTimeoutMs = manifest->scenarioTimeoutMs;
  options_.system = manifest->system;

  const auto loaded = loadJournal(journalPath(options_.outDir));
  if (!loaded) {
    throw std::runtime_error("campaign: corrupt journal in '" +
                             options_.outDir + "'");
  }

  auto executors = makeExecutors();
  const core::Hyperspace& space = executors.front()->space();
  std::vector<core::PluginPtr> plugins =
      plugins_ ? plugins_(space) : core::defaultPlugins(space);
  core::Controller controller(*executors.front(), std::move(plugins),
                              options_.controller, options_.seed);

  // Replay: the controller is a deterministic function of the journaled
  // acquire/report interleaving, so feeding the recorded outcomes back in
  // recorded order reconstructs Π/Ω/Ψ/µ and the plugin fitness exactly —
  // without executing anything.
  ReplayState replayed = replayJournal(controller, loaded->events);

  JournalWriter journal;
  if (!journal.openResume(journalPath(options_.outDir),
                          loaded->validBytes)) {
    throw std::runtime_error("campaign: cannot reopen journal in '" +
                             options_.outDir + "'");
  }

  return drive(controller, executors, &journal, std::move(replayed.pending),
               replayed.nextTest, replayed.replayedFailed,
               replayed.replayedTimedOut);
}

CampaignResult CampaignRunner::drive(
    core::Controller& controller,
    std::vector<std::unique_ptr<core::ScenarioExecutor>>& executors,
    JournalWriter* journal,
    std::map<std::uint64_t, core::GeneratedScenario> pendingReplay,
    std::uint64_t nextTest, std::size_t replayedFailed,
    std::size_t replayedTimedOut) {
  CampaignResult result;
  result.failed = replayedFailed;
  result.timedOut = replayedTimedOut;

  const std::size_t total = options_.totalTests;
  const bool withWatchdog = options_.scenarioTimeoutMs > 0;

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
    checkpoint.respawns = result.respawns;
    checkpoint.workerCrashes = result.workerCrashes;
    writeCheckpoint(options_.outDir, checkpoint);
  };

  const auto reportAndJournal = [&](std::uint64_t test,
                                    core::GeneratedScenario scenario,
                                    const core::Outcome& outcome, bool failed,
                                    bool timedOut, const std::string& error) {
    controller.reportOutcome(std::move(scenario), outcome);
    DoneEvent done;
    done.test = test;
    done.outcome = outcome;
    done.bestImpact = controller.maxImpact();
    done.failed = failed;
    done.timedOut = timedOut;
    done.error = error;
    appendOrThrow(journal, encodeDone(done));
    result.failed += failed ? 1 : 0;
    result.timedOut += timedOut ? 1 : 0;
    maybeCheckpoint(false);
  };

  if (executors.size() == 1 && !withWatchdog) {
    // Serial fast path: inline acquire -> execute -> report, bit-identical
    // to Controller::runTests for the same seed.
    while (controller.executedTests() < total) {
      std::uint64_t test;
      core::GeneratedScenario scenario;
      if (!pendingReplay.empty()) {
        auto first = pendingReplay.begin();
        test = first->first;
        scenario = std::move(first->second);
        pendingReplay.erase(first);
      } else {
        scenario = controller.acquireScenario();
        test = nextTest++;
        appendOrThrow(journal, encodeGen(makeGenEvent(test, scenario)));
      }
      core::Outcome outcome;
      bool failed = false;
      std::string error;
      try {
        outcome = executors.front()->execute(scenario.point);
      } catch (const std::exception& e) {
        failed = true;
        error = e.what();
      } catch (...) {
        failed = true;
        error = "unknown executor exception";
      }
      reportAndJournal(test, std::move(scenario), outcome, failed, false,
                       error);
    }
  } else {
    // Parallel path: W workers, each bound to its own executor instance.
    struct Completion {
      std::uint64_t test = 0;
      core::Outcome outcome;
      bool failed = false;
      std::string error;
    };
    struct InFlight {
      core::GeneratedScenario scenario;
      std::size_t worker = 0;
      WatchClock::time_point deadline;
    };

    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Completion> completions;  // guarded by mutex
    std::deque<std::size_t> freeWorkers;
    for (std::size_t w = 0; w < executors.size(); ++w) freeWorkers.push_back(w);
    std::map<std::uint64_t, InFlight> inFlight;  // driver-thread only

    // Respawn budget for watchdog-retired slots. A retired slot's executor
    // may still be running its wedged scenario on a pool thread, so a
    // respawn is a *fresh* executor appended to the vector — the poisoned
    // index is never reused.
    std::size_t respawnsLeft = withWatchdog ? options_.maxWorkerRespawns : 0;
    std::uint64_t respawnBackoffMs = 50;
    std::vector<WatchClock::time_point> pendingRespawns;

    // Declared after the state its tasks capture: the pool destructor joins
    // every worker (including a wedged one finishing late), and that join
    // must happen while mutex/cv/completions are still alive. Sized for the
    // full respawn budget because each wedged scenario can hold one pool
    // thread until it finishes on its own.
    util::ThreadPool pool(executors.size() + respawnsLeft);

    const auto submitOne = [&](std::uint64_t test,
                               core::GeneratedScenario scenario,
                               std::size_t worker) {
      InFlight entry;
      const core::Point point = scenario.point;
      entry.scenario = std::move(scenario);
      entry.worker = worker;
      entry.deadline =
          withWatchdog
              ? WatchClock::now() +
                    std::chrono::milliseconds(options_.scenarioTimeoutMs)
              : WatchClock::time_point::max();
      inFlight.emplace(test, std::move(entry));
      core::ScenarioExecutor* executor = executors[worker].get();
      pool.submit([test, point, executor, &mutex, &cv, &completions] {
        Completion completion;
        completion.test = test;
        try {
          completion.outcome = executor->execute(point);
        } catch (const std::exception& e) {
          completion.failed = true;
          completion.error = e.what();
        } catch (...) {
          completion.failed = true;
          completion.error = "unknown executor exception";
        }
        {
          const std::lock_guard<std::mutex> guard(mutex);
          completions.push_back(std::move(completion));
        }
        cv.notify_all();
      });
    };

    while (controller.executedTests() < total) {
      // Refill: hand every free worker a scenario (replayed in-flight ones
      // first — their gen events are already journaled).
      while (!freeWorkers.empty() &&
             (!pendingReplay.empty() || nextTest <= total)) {
        const std::size_t worker = freeWorkers.front();
        freeWorkers.pop_front();
        std::uint64_t test;
        core::GeneratedScenario scenario;
        if (!pendingReplay.empty()) {
          auto first = pendingReplay.begin();
          test = first->first;
          scenario = std::move(first->second);
          pendingReplay.erase(first);
        } else {
          scenario = controller.acquireScenario();
          test = nextTest++;
          appendOrThrow(journal, encodeGen(makeGenEvent(test, scenario)));
        }
        submitOne(test, std::move(scenario), worker);
      }

      if (inFlight.empty() && pendingRespawns.empty()) {
        // Nothing running, nothing issuable, and no slot coming back:
        // every worker slot wedged and the respawn budget is spent. Give
        // up with partial results.
        result.aborted = true;
        break;
      }

      // Wait for a completion (or the nearest watchdog/respawn deadline).
      std::vector<Completion> drained;
      {
        std::unique_lock<std::mutex> lock(mutex);
        if (completions.empty()) {
          if (withWatchdog) {
            WatchClock::time_point nearest = WatchClock::time_point::max();
            for (const auto& [test, entry] : inFlight) {
              nearest = std::min(nearest, entry.deadline);
            }
            for (const auto& at : pendingRespawns) {
              nearest = std::min(nearest, at);
            }
            cv.wait_until(lock, nearest,
                          [&] { return !completions.empty(); });
          } else {
            cv.wait(lock, [&] { return !completions.empty(); });
          }
        }
        while (!completions.empty()) {
          drained.push_back(std::move(completions.front()));
          completions.pop_front();
        }
      }

      for (Completion& completion : drained) {
        const auto it = inFlight.find(completion.test);
        if (it == inFlight.end()) {
          // Late result for a scenario the watchdog already retired; its
          // outcome was synthesized and its worker slot stays poisoned.
          continue;
        }
        core::GeneratedScenario scenario = std::move(it->second.scenario);
        freeWorkers.push_back(it->second.worker);
        inFlight.erase(it);
        reportAndJournal(completion.test, std::move(scenario),
                         completion.failed ? core::Outcome{}
                                           : completion.outcome,
                         completion.failed, false, completion.error);
      }

      if (withWatchdog) {
        const auto now = WatchClock::now();
        for (auto it = inFlight.begin(); it != inFlight.end();) {
          if (it->second.deadline > now) {
            ++it;
            continue;
          }
          // Retire the scenario with a zero-impact outcome and poison the
          // worker slot: its executor may still be running the wedged
          // deployment, so it must never be handed another scenario. When
          // respawn budget remains, schedule a replacement slot after a
          // capped-exponential backoff instead of shrinking the pool for
          // good.
          core::GeneratedScenario scenario = std::move(it->second.scenario);
          const std::uint64_t test = it->first;
          it = inFlight.erase(it);
          reportAndJournal(test, std::move(scenario), core::Outcome{}, false,
                           true, "scenario exceeded watchdog budget");
          if (respawnsLeft > 0) {
            --respawnsLeft;
            pendingRespawns.push_back(
                now + std::chrono::milliseconds(respawnBackoffMs));
            respawnBackoffMs = std::min<std::uint64_t>(respawnBackoffMs * 2,
                                                       1000);
          }
        }
        // Revive slots whose backoff has elapsed: a brand-new executor on a
        // brand-new index, immediately eligible for the next refill.
        for (auto it = pendingRespawns.begin();
             it != pendingRespawns.end();) {
          if (*it > now) {
            ++it;
            continue;
          }
          executors.push_back(factory_());
          if (!executors.back()) {
            throw std::runtime_error(
                "campaign: executor factory returned null on respawn");
          }
          freeWorkers.push_back(executors.size() - 1);
          ++result.respawns;
          it = pendingRespawns.erase(it);
        }
      }
    }
    // ~ThreadPool joins its workers; a wedged scenario that never returns
    // will stall shutdown here, but the campaign's results are complete.
  }

  result.history = controller.history();
  result.executed = result.history.size();
  result.maxImpact = controller.maxImpact();
  result.classes = dedupVulnerabilities(executors.front()->space(),
                                        result.history,
                                        options_.dedupMinImpact);
  maybeCheckpoint(true);
  return result;
}

}  // namespace avd::campaign
