// Persistent campaign store: an append-only JSONL journal plus a periodic
// checkpoint (see docs/campaign.md).
//
// The journal records the exact interleaving of the controller's two
// batch-asynchronous operations — scenario acquisition ("gen" events) and
// outcome reporting ("done" events). Because the controller is a
// deterministic function of that interleaving (all randomness flows through
// its seeded Rng), replaying the journal against a freshly constructed
// controller reconstructs its complete internal state (Π, Ω, Ψ, µ, plugin
// fitness) without re-executing a single scenario. That is what makes
// `avd_cli campaign --resume` exact: a killed campaign continues precisely
// where the journal ends, and in serial mode the resumed journal is
// byte-identical to the journal of an uninterrupted run.
//
// Formats are deliberately fixed-key, one-object-per-line JSON written with
// %.17g doubles, so (a) two runs of the same seed produce byte-identical
// files and (b) every double round-trips bit-exactly through the text.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "avd/controller.h"

namespace avd::campaign {

/// "gen": the controller handed out scenario number `test` (1-based, in
/// acquisition order) for execution.
struct GenEvent {
  std::uint64_t test = 0;
  core::Point point;
  std::string generatedBy;
  double parentImpact = 0.0;
  std::int64_t pluginIndex = -1;
};

/// "done": scenario number `test` finished (or was declared failed / timed
/// out by the campaign watchdog) and its outcome was reported back.
struct DoneEvent {
  std::uint64_t test = 0;
  core::Outcome outcome;
  double bestImpact = 0.0;  // µ after this report
  bool failed = false;      // executor threw; outcome is the zero outcome
  bool timedOut = false;    // watchdog gave up; outcome is the zero outcome
  std::string error;        // short reason when failed/timedOut
};

struct JournalEvent {
  enum class Kind { kGen, kDone };
  Kind kind = Kind::kGen;
  GenEvent gen;    // valid when kind == kGen
  DoneEvent done;  // valid when kind == kDone
};

/// One line of JSONL, without the trailing newline. Deterministic: fixed
/// key order, %.17g doubles.
std::string encodeGen(const GenEvent& event);
std::string encodeDone(const DoneEvent& event);

/// Why `outcome` is one no executor may report: an impact outside [0, 1],
/// or a throughput, latency or recovery latency that is not finite and
/// non-negative. Empty when it is sound. decodeLine rejects such a done
/// line; executeChecked turns such an outcome into a failed scenario.
std::string outcomeDefect(const core::Outcome& outcome);

/// Parses one journal line. nullopt on any malformation (the caller decides
/// whether that is a torn tail or corruption).
[[nodiscard]] std::optional<JournalEvent> decodeLine(std::string_view line);

struct LoadedJournal {
  std::vector<JournalEvent> events;
  /// File offset one past the final byte of the last well-formed line; a
  /// resuming writer truncates to this before appending.
  std::uint64_t validBytes = 0;
  /// True when a torn/partial final line was dropped (the kill -9 case).
  bool truncatedTail = false;
};

/// Reads a journal, tolerating a torn final line. nullopt when the file is
/// unreadable or malformed before its final line (real corruption).
[[nodiscard]] std::optional<LoadedJournal> loadJournal(
    const std::string& path);

/// Append-only line writer over a raw descriptor: each line goes to the
/// kernel in one write() (a kill -9 leaves at most one torn line, which
/// loadJournal drops as the tail), and sync() makes everything appended so
/// far survive power loss. Callers fsync at checkpoint cadence rather than
/// per line — the journal's replay semantics tolerate losing un-synced
/// suffix lines, they just cost re-execution.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Creates/truncates `path`.
  [[nodiscard]] bool openFresh(const std::string& path);
  /// Truncates `path` to `keepBytes` (dropping a torn tail) and appends.
  [[nodiscard]] bool openResume(const std::string& path,
                                std::uint64_t keepBytes);
  [[nodiscard]] bool append(const std::string& line);
  /// fsync. Called at checkpoint cadence by the runner/coordinator.
  bool sync();
  /// Closes the descriptor. Returns false for a close-on-write-error — a
  /// prior append()/sync() failure was latched, or the close itself
  /// reports one — meaning the journal tail may not have reached the
  /// kernel; true is a normal close. Callers that already reacted to the
  /// append failure can ignore the result.
  bool close();
  bool isOpen() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  bool writeFailed_ = false;  // latched by a failed append()/sync()
};

/// Immutable campaign configuration, written once at campaign start.
/// The fleet fields (`mode`, `batch`, `spawn`, `heartbeatMs`) default on
/// load when absent, so pre-fleet campaign directories stay resumable.
struct Manifest {
  std::uint64_t version = 1;
  std::string system;  // executor label, e.g. "quorum"; free-form
  std::uint64_t seed = 0;
  std::uint64_t totalTests = 0;
  std::uint64_t workers = 1;
  std::uint64_t checkpointEvery = 16;
  std::uint64_t scenarioTimeoutMs = 0;
  std::string mode = "process";     // "process" (in-process runner) | "fleet"
  std::uint64_t batch = 4;          // fleet: scenarios per assignment batch
  std::uint64_t spawn = 0;          // fleet: workers the coordinator spawns
  std::uint64_t heartbeatMs = 200;  // fleet: worker heartbeat interval
};

/// Monotonic campaign progress, refreshed every `checkpointEvery` reports.
/// Written atomically (tmp + rename) so a crash never leaves a torn file.
/// The journal stays the source of truth; the checkpoint exists so humans
/// and orchestrators can poll progress without parsing the journal.
struct Checkpoint {
  std::uint64_t generated = 0;  // scenarios acquired ("gen" events)
  std::uint64_t completed = 0;  // scenarios reported ("done" events)
  double maxImpact = 0.0;       // µ
  // Robustness counters (zero for a healthy run; absent pre-fleet).
  std::uint64_t respawns = 0;       // worker slots revived after crash/wedge
  std::uint64_t reassigned = 0;     // scenarios re-executed on another worker
  std::uint64_t workerCrashes = 0;  // worker deaths observed
  /// Completed scenarios with a SAFETY verdict (safetyViolated), at any
  /// impact; counted from the folded history, so it is never carried over
  /// a resume. Absent before it was recorded: loads as zero.
  std::uint64_t safetyViolations = 0;
};

/// Writes `contents` to `path` durably: temp file, fsync, atomic rename,
/// parent-directory fsync. A crash at any instant leaves either the old
/// file or the new one, never a torn mix, and a true return means the new
/// name and its bytes both survive power loss. Every failure path unlinks
/// the temp file, so a retry never inherits a stale `.tmp`. The manifest,
/// the checkpoint and classes.json are written through it.
bool writeFileAtomicDurable(const std::string& path,
                            const std::string& contents);

bool writeManifest(const std::string& dir, const Manifest& manifest);
[[nodiscard]] std::optional<Manifest> loadManifest(const std::string& dir);
bool writeCheckpoint(const std::string& dir, const Checkpoint& checkpoint);
[[nodiscard]] std::optional<Checkpoint> loadCheckpoint(const std::string& dir);

/// Conventional file names inside a campaign directory.
std::string journalPath(const std::string& dir);
std::string manifestPath(const std::string& dir);
std::string checkpointPath(const std::string& dir);
/// The deduplicated classes (vulnClassesJson) of a finished campaign.
std::string classesPath(const std::string& dir);

}  // namespace avd::campaign
