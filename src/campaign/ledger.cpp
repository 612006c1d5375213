#include "campaign/ledger.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "avd/plugin.h"
#include "campaign/dedup.h"

namespace avd::campaign {

Ledger::Ledger(const ExecutorFactory& factory, CampaignOptions options)
    : options_(std::move(options)), executor_(factory()) {
  if (!executor_) {
    throw std::runtime_error("campaign: executor factory returned null");
  }
  if (options_.checkpointEvery == 0) options_.checkpointEvery = 16;
  const core::Hyperspace& space = executor_->space();
  controller_ = std::make_unique<core::Controller>(
      *executor_, core::defaultPlugins(space), core::ControllerOptions{},
      options_.seed);
}

Ledger Ledger::fresh(const ExecutorFactory& factory, CampaignOptions options,
                     Manifest manifest) {
  Ledger ledger(factory, std::move(options));
  const CampaignOptions& opts = ledger.options_;
  manifest.system = opts.system;
  manifest.seed = opts.seed;
  manifest.totalTests = opts.totalTests;
  manifest.checkpointEvery = opts.checkpointEvery;
  manifest.scenarioTimeoutMs = opts.scenarioTimeoutMs;
  ledger.manifest_ = std::move(manifest);
  if (opts.outDir.empty()) return ledger;
  std::error_code ec;
  std::filesystem::create_directories(opts.outDir, ec);
  ledger.journal_ = std::make_unique<JournalWriter>();
  if (!writeManifest(opts.outDir, ledger.manifest_) ||
      !ledger.journal_->openFresh(journalPath(opts.outDir))) {
    throw std::runtime_error("campaign: cannot write to '" + opts.outDir +
                             "'");
  }
  return ledger;
}

Ledger Ledger::resume(const ExecutorFactory& factory,
                      CampaignOptions options) {
  const std::string dir = options.outDir;
  if (dir.empty()) throw std::runtime_error("campaign: resume requires outDir");
  const auto manifest = loadManifest(dir);
  if (!manifest) {
    const std::string path = manifestPath(dir);
    throw std::runtime_error("campaign: missing/corrupt manifest '" + path +
                             "'");
  }
  options.seed = manifest->seed;
  options.totalTests = static_cast<std::size_t>(manifest->totalTests);
  options.checkpointEvery = std::max<std::size_t>(
      1, static_cast<std::size_t>(manifest->checkpointEvery));
  options.scenarioTimeoutMs = manifest->scenarioTimeoutMs;
  options.system = manifest->system;

  const auto loaded = loadJournal(journalPath(dir));
  if (!loaded) {
    throw std::runtime_error("campaign: corrupt journal in '" + dir + "'");
  }

  Ledger ledger(factory, std::move(options));
  ledger.manifest_ = *manifest;
  ReplayState replayed = replayJournal(*ledger.controller_, loaded->events);
  ledger.nextTest_ = replayed.nextTest;
  ledger.unfolded_ = std::move(replayed.pending);
  ledger.result_.failed = replayed.replayedFailed;
  ledger.result_.timedOut = replayed.replayedTimedOut;
  const auto& history = ledger.controller_->history();
  ledger.result_.safetyViolations = static_cast<std::size_t>(
      std::count_if(history.begin(), history.end(),
                    [](const core::TestRecord& record) {
                      return record.outcome.safetyViolated;
                    }));

  ledger.journal_ = std::make_unique<JournalWriter>();
  if (!ledger.journal_->openResume(journalPath(dir), loaded->validBytes)) {
    throw std::runtime_error("campaign: cannot reopen journal in '" + dir +
                             "'");
  }
  // No checkpoint yet (killed before the first) carries zeros; a
  // malformed one is corruption.
  Checkpoint carried;
  if (const std::string path = checkpointPath(dir);
      std::filesystem::exists(path)) {
    const auto checkpoint = loadCheckpoint(dir);
    if (!checkpoint) {
      throw std::runtime_error("campaign: corrupt checkpoint '" + path + "'");
    }
    carried = *checkpoint;
  }
  ledger.result_.respawns = static_cast<std::size_t>(carried.respawns);
  ledger.result_.reassigned = static_cast<std::size_t>(carried.reassigned);
  ledger.result_.workerCrashes =
      static_cast<std::size_t>(carried.workerCrashes);
  return ledger;
}

void Ledger::start(std::uint64_t window,
                   std::map<std::uint64_t, DoneEvent> recovered) {
  window_ = window;
  // Outcomes of folded tests are history. Generation is deterministic and
  // outcomes are pure functions of points, so a later test's shard line is
  // the line a live worker would send once generation re-reaches it.
  for (auto& [test, done] : recovered) {
    if (unfolded_.contains(test) || test >= nextTest_) {
      outcomes_.emplace(test, std::move(done));
    }
  }
  // Generate first: a torn journal can owe gen lines at the replayed fold
  // point (the interleave puts gen(k + L) right after done(k)), and they
  // must precede the done line of the first recovered outcome.
  topUp();
  foldReady();
}

std::uint64_t Ledger::nextAwaiting(std::uint64_t after) const {
  for (auto it = unfolded_.upper_bound(after); it != unfolded_.end(); ++it) {
    if (!outcomes_.contains(it->first)) return it->first;
  }
  return 0;
}

void Ledger::report(DoneEvent done) {
  if (!awaits(done.test)) return;
  const std::uint64_t test = done.test;
  outcomes_.emplace(test, std::move(done));
  foldReady();
}

CampaignResult Ledger::finish() {
  result_.history = controller_->history();
  result_.executed = result_.history.size();
  result_.maxImpact = controller_->maxImpact();
  result_.classes = dedupVulnerabilities(
      executor_->space(), result_.history, options_.dedupMinImpact);
  checkpoint(true);
  return std::move(result_);
}

void Ledger::append(const std::string& line) {
  if (journal_ && !journal_->append(line)) {
    throw std::runtime_error("campaign: journal append failed (disk full?)");
  }
}

void Ledger::topUp() {
  while (nextTest_ <= options_.totalTests && unfolded_.size() < window_) {
    core::GeneratedScenario scenario = controller_->acquireScenario();
    GenEvent event;
    event.test = nextTest_;
    event.point = scenario.point;
    event.generatedBy = scenario.generatedBy;
    event.parentImpact = scenario.parentImpact;
    event.pluginIndex = static_cast<std::int64_t>(scenario.pluginIndex);
    append(encodeGen(event));
    unfolded_.emplace(nextTest_++, std::move(scenario));
  }
}

void Ledger::foldReady() {
  while (!unfolded_.empty()) {
    const auto lowest = unfolded_.begin();
    const auto outcome = outcomes_.find(lowest->first);
    if (outcome == outcomes_.end()) return;
    DoneEvent done = std::move(outcome->second);
    outcomes_.erase(outcome);
    controller_->reportOutcome(std::move(lowest->second), done.outcome);
    unfolded_.erase(lowest);
    done.bestImpact = controller_->maxImpact();
    append(encodeDone(done));
    result_.failed += done.failed ? 1 : 0;
    result_.timedOut += done.timedOut ? 1 : 0;
    result_.safetyViolations += done.outcome.safetyViolated ? 1 : 0;
    checkpoint(false);
    topUp();
  }
}

void Ledger::checkpoint(bool force) {
  if (options_.outDir.empty()) return;
  const std::size_t completed = controller_->executedTests();
  if (!force && completed % options_.checkpointEvery != 0) return;
  // Durability order matters: the journal must be on disk before the
  // checkpoint that summarizes it, or a crash could leave a checkpoint
  // claiming progress the journal lost.
  if (journal_) journal_->sync();
  Checkpoint checkpoint;
  checkpoint.generated = nextTest_ - 1;
  checkpoint.completed = completed;
  checkpoint.maxImpact = controller_->maxImpact();
  checkpoint.respawns = result_.respawns;
  checkpoint.reassigned = result_.reassigned;
  checkpoint.workerCrashes = result_.workerCrashes;
  checkpoint.safetyViolations = result_.safetyViolations;
  writeCheckpoint(options_.outDir, checkpoint);
}

}  // namespace avd::campaign
