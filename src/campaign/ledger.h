// Campaign ledger: the one copy of a campaign's bookkeeping, under both
// drivers (the serial loop in CampaignRunner and fleet::FleetCoordinator).
// It owns the controller, the journal writer and the fold state, and only
// it opens a campaign directory, generates, folds, checkpoints and
// finishes. A driver decides who executes a test and when.
//
// Determinism contract: a test is "unfolded" from its generation until its
// outcome is folded. The ledger generates (journaling a "gen" line) while
// fewer than L tests are unfolded, and folds the lowest unfolded test
// (journaling a "done" line) as soon as its outcome is in. So the journal
// is a pure function of (seed, L, total): worker timing, crashes, wedge
// kills, reassignment, drain, kill-plus-resume and threads versus
// processes never change its bytes. The serial loop is L = 1, which is
// Controller::runTests. A journal written in test order has folded tests
// 1..k, so its lowest unfolded test is k + 1; a journal of the former
// in-process pool folded in completion order, and at L = 1 the rule
// re-executes its in-flight tests first, in test order.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "avd/controller.h"
#include "campaign/journal.h"
#include "campaign/runner.h"

namespace avd::campaign {

class Ledger {
 public:
  /// A fresh campaign. When options.outDir is set: creates the directory,
  /// writes `manifest` (the driver's fields; system, seed, budget, cadence
  /// and timeout come from `options`) and truncates the journal. Throws
  /// std::runtime_error on I/O failure.
  static Ledger fresh(const ExecutorFactory& factory, CampaignOptions options,
                      Manifest manifest);

  /// The campaign in options.outDir. Its manifest's seed, budget, cadence,
  /// system and timeout replace those of `options`; the journal is
  /// replayed without executing anything and reopened past its torn tail;
  /// the checkpoint's robustness counters carry over, and the SAFETY count
  /// is recounted from the replayed history. Throws
  /// std::runtime_error when the directory is missing, corrupt, or diverges
  /// from deterministic replay.
  static Ledger resume(const ExecutorFactory& factory,
                       CampaignOptions options);

  const CampaignOptions& options() const noexcept { return options_; }
  const Manifest& manifest() const noexcept { return manifest_; }
  /// The executor behind the controller; the serial loop executes with it.
  core::ScenarioExecutor& executor() noexcept { return *executor_; }

  /// Sets the window L, takes outcomes recovered from worker shards (each
  /// satisfies its test once that test is generated), generates the first
  /// window and folds what is ready. Call once, first.
  void start(std::uint64_t window,
             std::map<std::uint64_t, DoneEvent> recovered = {});

  /// True while `test` is unfolded and its outcome is not in.
  [[nodiscard]] bool awaits(std::uint64_t test) const {
    return unfolded_.contains(test) && !outcomes_.contains(test);
  }
  /// The lowest test above `after` that awaits its outcome; 0 if none.
  [[nodiscard]] std::uint64_t nextAwaiting(std::uint64_t after = 0) const;
  /// An unfolded test's point, valid until the test folds.
  const core::Point& point(std::uint64_t test) const {
    return unfolded_.at(test).point;
  }
  /// Hands in an outcome (ignored unless awaits(done.test)) and folds what
  /// it makes ready, checkpointing at the cadence and generating after
  /// each fold.
  void report(DoneEvent done);
  /// True once the budget is folded.
  [[nodiscard]] bool finished() const {
    return controller_->executedTests() >= options_.totalTests;
  }

  /// The result so far. The coordinator counts its robustness counters
  /// here, and every checkpoint records them.
  CampaignResult& result() noexcept { return result_; }
  /// Adds the history, the maximum impact and the deduplicated classes,
  /// and writes the final checkpoint.
  CampaignResult finish();

 private:
  Ledger(const ExecutorFactory& factory, CampaignOptions options);

  void append(const std::string& line);
  void topUp();
  void foldReady();
  void checkpoint(bool force);

  CampaignOptions options_;
  Manifest manifest_;
  std::unique_ptr<core::ScenarioExecutor> executor_;
  std::unique_ptr<core::Controller> controller_;
  std::unique_ptr<JournalWriter> journal_;  // null for an in-memory campaign
  std::uint64_t window_ = 1;
  std::uint64_t nextTest_ = 1;  // next test number to generate
  std::map<std::uint64_t, core::GeneratedScenario> unfolded_;
  // Outcomes in for tests not folded yet; a shard-recovered one can be for
  // a test not generated yet.
  std::map<std::uint64_t, DoneEvent> outcomes_;
  CampaignResult result_;
};

}  // namespace avd::campaign
