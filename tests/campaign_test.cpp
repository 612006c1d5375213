// Campaign engine tests: serial bit-identity with Controller::runTests,
// journal round-trips and byte-identical reruns, kill/resume equivalence,
// thread-worker campaigns on the fleet coordinator, worker failure/timeout
// isolation, and vulnerability dedup.
//
// The CampaignSmoke suite is deliberately fast and hermetic — CI's lint leg
// runs it alongside the lint tests as a cheap cross-config sanity check.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "avd/controller.h"
#include "avd/pbft_executor.h"
#include "avd/plugin.h"
#include "campaign/dedup.h"
#include "campaign/fleet/coordinator.h"
#include "campaign/fleet/thread_fleet.h"
#include "campaign/journal.h"
#include "campaign/runner.h"
#include "campaign/systems.h"

namespace avd::campaign {
namespace {

// --- helpers -----------------------------------------------------------------

/// Same synthetic ridge landscape as controller_test.cpp: deterministic,
/// instant, and structured enough for the controller to climb.
class RidgeExecutor final : public core::ScenarioExecutor {
 public:
  RidgeExecutor() {
    space_.add(core::Dimension::range("x", 0, 99));
    space_.add(core::Dimension::range("y", 0, 99));
  }

  core::Outcome execute(const core::Point& point) override {
    const double dx = std::abs(static_cast<double>(point[0]) - 70.0);
    const double dy = std::abs(static_cast<double>(point[1]) - 30.0);
    core::Outcome outcome;
    const double ridge = std::max(0.0, 1.0 - dx / 10.0);
    const double along = 1.0 - 0.6 * dy / 99.0;
    outcome.impact = ridge * along;
    outcome.throughputRps = 1000.0 * (1.0 - outcome.impact);
    return outcome;
  }

  const core::Hyperspace& space() const noexcept override { return space_; }

 private:
  core::Hyperspace space_;
};

/// Throws on a deterministic subset of points (the "deployment crashed"
/// case): the campaign must absorb these as failed scenarios, not die.
class FaultyExecutor final : public core::ScenarioExecutor {
 public:
  core::Outcome execute(const core::Point& point) override {
    if ((point[0] + point[1]) % 3 == 0) {
      throw std::runtime_error("deployment wedged");
    }
    return inner_.execute(point);
  }
  const core::Hyperspace& space() const noexcept override {
    return inner_.space();
  }

 private:
  RidgeExecutor inner_;
};

/// Sleeps long enough to trip the campaign watchdog on every execute when
/// constructed sleepy. Otherwise it pauses 2 ms, so a healthy worker cannot
/// finish the whole budget before a wedged one is handed its first
/// scenario.
class SleepyExecutor final : public core::ScenarioExecutor {
 public:
  explicit SleepyExecutor(bool sleepy) : sleepy_(sleepy) {}

  core::Outcome execute(const core::Point& point) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleepy_ ? 1200 : 2));
    return inner_.execute(point);
  }
  const core::Hyperspace& space() const noexcept override {
    return inner_.space();
  }

 private:
  RidgeExecutor inner_;
  bool sleepy_;
};

/// Reports an outcome no executor may report on a deterministic subset of
/// points: impact 1.5 on a third of them, impact NaN on a sixth, latency
/// NaN on another sixth.
class OutOfRangeExecutor final : public core::ScenarioExecutor {
 public:
  core::Outcome execute(const core::Point& point) override {
    core::Outcome outcome = inner_.execute(point);
    if ((point[0] + point[1]) % 3 == 0) outcome.impact = 1.5;
    if ((point[0] + point[1]) % 3 == 1 && point[0] % 2 == 0) {
      outcome.impact = std::nan("");
    }
    if ((point[0] + point[1]) % 3 == 2 && point[0] % 2 == 0) {
      outcome.avgLatencySec = std::nan("");
    }
    return outcome;
  }
  const core::Hyperspace& space() const noexcept override {
    return inner_.space();
  }

 private:
  RidgeExecutor inner_;
};

ExecutorFactory ridgeFactory() {
  return [] { return std::make_unique<RidgeExecutor>(); };
}

ExecutorFactory quorumFactory() {
  return [] { return makeSystemExecutor("quorum", 1); };
}

/// Fresh scratch directory under the test temp root.
std::string scratchDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "avd_campaign_test" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void writeAll(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
  ASSERT_TRUE(out.good());
}

/// Byte offset one past the `n`-th newline (simulating a kill that landed
/// right at a line boundary), or mid-line when `extra` > 0.
std::size_t cutOffset(const std::string& journal, std::size_t lines,
                      std::size_t extra) {
  std::size_t at = 0;
  for (std::size_t i = 0; i < lines; ++i) {
    at = journal.find('\n', at);
    EXPECT_NE(at, std::string::npos);
    ++at;
  }
  return std::min(journal.size(), at + extra);
}

// --- CampaignSmoke (runs in every CI config, including the lint leg) ---------

TEST(CampaignSmoke, SerialInMemoryCampaignCompletesItsBudget) {
  CampaignOptions options;
  options.totalTests = 40;
  options.workers = 1;
  CampaignRunner runner(ridgeFactory(), options);
  const CampaignResult result = runner.run();
  EXPECT_EQ(result.executed, 40u);
  EXPECT_EQ(result.history.size(), 40u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.timedOut, 0u);
  EXPECT_FALSE(result.aborted);
  EXPECT_GT(result.maxImpact, 0.0);
  for (std::size_t i = 1; i < result.classes.size(); ++i) {
    EXPECT_LE(result.classes[i].exemplar.outcome.impact,
              result.classes[i - 1].exemplar.outcome.impact)
        << "classes are sorted by exemplar impact descending";
  }
}

TEST(CampaignSmoke, ParallelCampaignCompletesItsBudget) {
  CampaignOptions options;
  options.totalTests = 48;
  options.workers = 3;
  CampaignRunner runner(ridgeFactory(), options);
  const CampaignResult result = runner.run();
  EXPECT_EQ(result.executed, 48u);
  EXPECT_FALSE(result.aborted);
  EXPECT_GT(result.maxImpact, 0.0);
}

TEST(CampaignSmoke, CampaignDirectoryHoldsManifestJournalCheckpoint) {
  const std::string dir = scratchDir("smoke_dir");
  CampaignOptions options;
  options.totalTests = 24;
  options.outDir = dir;
  options.system = "ridge";
  options.checkpointEvery = 8;
  CampaignRunner runner(ridgeFactory(), options);
  const CampaignResult result = runner.run();
  EXPECT_EQ(result.executed, 24u);

  const auto manifest = loadManifest(dir);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->system, "ridge");
  EXPECT_EQ(manifest->totalTests, 24u);

  const auto checkpoint = loadCheckpoint(dir);
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->completed, 24u);
  EXPECT_EQ(checkpoint->generated, 24u);
  EXPECT_DOUBLE_EQ(checkpoint->maxImpact, result.maxImpact);

  const auto journal = loadJournal(journalPath(dir));
  ASSERT_TRUE(journal.has_value());
  EXPECT_EQ(journal->events.size(), 48u) << "one gen + one done per test";
  EXPECT_FALSE(journal->truncatedTail);
}

// --- bit-identity with Controller::runTests ----------------------------------

void expectSameHistory(const std::vector<core::TestRecord>& a,
                       const std::vector<core::TestRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].point, b[i].point) << "test " << i + 1;
    EXPECT_EQ(a[i].generatedBy, b[i].generatedBy) << "test " << i + 1;
    // Bit-exact, not approximate: the campaign path must not perturb the
    // controller's arithmetic in any way.
    EXPECT_EQ(a[i].outcome.impact, b[i].outcome.impact) << "test " << i + 1;
    EXPECT_EQ(a[i].bestImpactSoFar, b[i].bestImpactSoFar) << "test " << i + 1;
  }
}

TEST(CampaignBitIdentity, SerialCampaignMatchesRunTestsOnRidge) {
  constexpr std::uint64_t kSeed = 7;
  constexpr std::size_t kTests = 80;

  RidgeExecutor reference;
  core::Controller controller(reference,
                              core::defaultPlugins(reference.space()),
                              core::ControllerOptions{}, kSeed);
  controller.runTests(kTests);

  CampaignOptions options;
  options.seed = kSeed;
  options.totalTests = kTests;
  options.workers = 1;
  CampaignRunner runner(ridgeFactory(), options);
  const CampaignResult result = runner.run();

  expectSameHistory(controller.history(), result.history);
  EXPECT_EQ(controller.maxImpact(), result.maxImpact);
}

TEST(CampaignBitIdentity, SerialCampaignMatchesRunTestsOnQuorum) {
  constexpr std::uint64_t kSeed = 2011;
  constexpr std::size_t kTests = 30;

  const auto reference = makeSystemExecutor("quorum", 1);
  core::Controller controller(*reference,
                              core::defaultPlugins(reference->space()),
                              core::ControllerOptions{}, kSeed);
  controller.runTests(kTests);

  CampaignOptions options;
  options.seed = kSeed;
  options.totalTests = kTests;
  options.workers = 1;
  CampaignRunner runner(quorumFactory(), options);
  const CampaignResult result = runner.run();

  expectSameHistory(controller.history(), result.history);
  EXPECT_EQ(controller.maxImpact(), result.maxImpact);
}

TEST(CampaignBitIdentity, ParallelCampaignReachesSerialBestImpactOnQuorum) {
  constexpr std::uint64_t kSeed = 2011;
  constexpr std::size_t kTests = 60;

  CampaignOptions serial;
  serial.seed = kSeed;
  serial.totalTests = kTests;
  serial.workers = 1;
  const CampaignResult serialResult =
      CampaignRunner(quorumFactory(), serial).run();

  CampaignOptions parallel = serial;
  parallel.workers = 4;
  const CampaignResult parallelResult =
      CampaignRunner(quorumFactory(), parallel).run();

  EXPECT_EQ(parallelResult.executed, kTests);
  // A window of L = 16 generates further ahead of feedback than the serial
  // loop, so the explored sequence differs — but the same budget on the
  // same landscape must land within epsilon of the same best impact.
  EXPECT_NEAR(parallelResult.maxImpact, serialResult.maxImpact, 0.05);
}

/// Runs a thread-worker fleet with `spawn` workers and window `batch` x
/// `spawn` into `dir` and returns its journal.
std::string threadFleetJournal(const ExecutorFactory& factory,
                               std::uint64_t seed, std::size_t tests,
                               std::size_t spawn, std::size_t batch,
                               const std::string& dir) {
  fleet::ThreadFleet threads;
  fleet::FleetOptions options;
  options.campaign.seed = seed;
  options.campaign.totalTests = tests;
  options.campaign.outDir = dir;
  options.spawn = spawn;
  options.batch = batch;
  options.launcher = threads.launcher(
      [factory](const std::string&, std::uint64_t) { return factory(); });
  fleet::FleetCoordinator coordinator(std::move(options), factory);
  const CampaignResult result = coordinator.run();
  EXPECT_EQ(result.executed, tests);
  return readAll(journalPath(dir));
}

TEST(CampaignBitIdentity, SerialJournalEqualsTheCoordinatorsAtWindowOne) {
  // With one worker and batch 1 the coordinator's window is L = 1: generate
  // one, fold it, generate the next — the serial loop's interleave.
  constexpr std::uint64_t kSeed = 2011;
  constexpr std::size_t kTests = 60;
  const std::string serialDir = scratchDir("window1_serial");
  CampaignOptions options;
  options.seed = kSeed;
  options.totalTests = kTests;
  options.outDir = serialDir;
  CampaignRunner(quorumFactory(), options).run();

  const std::string fleetJournal = threadFleetJournal(
      quorumFactory(), kSeed, kTests, 1, 1, scratchDir("window1_fleet"));
  EXPECT_EQ(readAll(journalPath(serialDir)), fleetJournal);
}

// --- thread-worker campaigns --------------------------------------------------

TEST(CampaignThreads, SameSeedRunsWriteTheFleetsJournal) {
  // workers > 1 runs on the fleet coordinator with thread workers and the
  // default window L = 4 x 2, so the journal is a pure function of the
  // seed — and the very journal a two-worker, batch-4 fleet writes.
  const std::string dirA = scratchDir("threads_a");
  const std::string dirB = scratchDir("threads_b");
  for (const std::string& dir : {dirA, dirB}) {
    CampaignOptions options;
    options.seed = 17;
    options.totalTests = 30;
    options.workers = 2;
    options.outDir = dir;
    options.system = "quorum";
    const CampaignResult result =
        CampaignRunner(quorumFactory(), options).run();
    EXPECT_EQ(result.executed, 30u);
    EXPECT_FALSE(result.aborted);
  }
  const std::string journal = readAll(journalPath(dirA));
  EXPECT_EQ(journal, readAll(journalPath(dirB)));
  EXPECT_EQ(journal, threadFleetJournal(quorumFactory(), 17, 30, 2, 4,
                                        scratchDir("threads_fleet")));
  const auto manifest = loadManifest(dirA);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->mode, "fleet");
  EXPECT_EQ(manifest->spawn, 2u);
}

TEST(CampaignThreads, KilledThreadCampaignResumesToIdenticalJournal) {
  CampaignOptions options;
  options.seed = 5;
  options.totalTests = 60;
  options.workers = 2;
  options.checkpointEvery = 8;

  const std::string full = scratchDir("threads_full");
  options.outDir = full;
  CampaignRunner(ridgeFactory(), options).run();

  const std::string cut = scratchDir("threads_cut");
  options.outDir = cut;
  CampaignRunner(ridgeFactory(), options).run();
  const std::string journal = readAll(journalPath(cut));
  writeAll(journalPath(cut), journal.substr(0, cutOffset(journal, 41, 23)));

  CampaignOptions resumeOptions;
  resumeOptions.outDir = cut;
  const CampaignResult resumed =
      CampaignRunner(ridgeFactory(), resumeOptions).resume();
  EXPECT_EQ(resumed.executed, 60u);
  EXPECT_EQ(readAll(journalPath(cut)), readAll(journalPath(full)))
      << "resumed journal must be byte-identical to the uninterrupted run";
}

// --- journal encode/decode ---------------------------------------------------

TEST(CampaignJournal, GenEventRoundTripsBitExactly) {
  GenEvent event;
  event.test = 17;
  event.point = {3, 0, 41};
  event.generatedBy = "step:ts_inflation_log2";
  event.parentImpact = 1.0 / 3.0;  // not representable in decimal
  event.pluginIndex = 2;

  const std::string line = encodeGen(event);
  const auto decoded = decodeLine(line);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->kind, JournalEvent::Kind::kGen);
  EXPECT_EQ(decoded->gen.test, 17u);
  EXPECT_EQ(decoded->gen.point, event.point);
  EXPECT_EQ(decoded->gen.generatedBy, event.generatedBy);
  EXPECT_EQ(decoded->gen.parentImpact, event.parentImpact) << "bit-exact";
  EXPECT_EQ(decoded->gen.pluginIndex, 2);
}

TEST(CampaignJournal, DoneEventRoundTripsBitExactly) {
  DoneEvent event;
  event.test = 99;
  event.outcome.impact = 0.1 + 0.2;  // 0.30000000000000004
  event.outcome.throughputRps = 1234.5678901234567;
  event.outcome.avgLatencySec = 2e-3;
  event.outcome.viewChanges = 11;
  event.outcome.restarts = 5;
  event.outcome.recoveryLatencySec = 0.125 + 1e-17;
  event.outcome.queueDrops = 123456;
  event.outcome.quotaDrops = 789;
  event.outcome.safetyViolated = true;
  event.bestImpact = 0.9999999999999999;
  event.failed = true;
  event.error = "tab\there \"quoted\" back\\slash\nnewline";

  const std::string line = encodeDone(event);
  EXPECT_EQ(line.find('\n'), std::string::npos)
      << "escaping keeps every event on one line";
  const auto decoded = decodeLine(line);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->kind, JournalEvent::Kind::kDone);
  EXPECT_EQ(decoded->done.test, 99u);
  EXPECT_EQ(decoded->done.outcome.impact, event.outcome.impact);
  EXPECT_EQ(decoded->done.outcome.throughputRps,
            event.outcome.throughputRps);
  EXPECT_EQ(decoded->done.outcome.avgLatencySec,
            event.outcome.avgLatencySec);
  EXPECT_EQ(decoded->done.outcome.viewChanges, 11u);
  EXPECT_EQ(decoded->done.outcome.restarts, 5u);
  EXPECT_EQ(decoded->done.outcome.recoveryLatencySec,
            event.outcome.recoveryLatencySec);
  EXPECT_EQ(decoded->done.outcome.queueDrops, 123456u);
  EXPECT_EQ(decoded->done.outcome.quotaDrops, 789u);
  EXPECT_TRUE(decoded->done.outcome.safetyViolated);
  EXPECT_EQ(decoded->done.bestImpact, event.bestImpact);
  EXPECT_TRUE(decoded->done.failed);
  EXPECT_FALSE(decoded->done.timedOut);
  EXPECT_EQ(decoded->done.error, event.error);
}

TEST(CampaignJournal, DoneLinesFromBeforeChurnSupportStillDecode) {
  // Journals written before restarts/recoveryLatencySec existed must stay
  // resumable: the missing keys default to zero.
  const std::string legacy =
      "{\"event\":\"done\",\"test\":4,\"impact\":0.5,\"bestImpact\":0.5,"
      "\"throughputRps\":100,\"avgLatencySec\":0.01,\"viewChanges\":2,"
      "\"safetyViolated\":false,\"failed\":false,\"timedOut\":false,"
      "\"error\":\"\"}";
  const auto decoded = decodeLine(legacy);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->kind, JournalEvent::Kind::kDone);
  EXPECT_EQ(decoded->done.outcome.restarts, 0u);
  EXPECT_EQ(decoded->done.outcome.recoveryLatencySec, 0.0);
  // Same for journals written before flood support.
  EXPECT_EQ(decoded->done.outcome.queueDrops, 0u);
  EXPECT_EQ(decoded->done.outcome.quotaDrops, 0u);
}

/// `line` with the value of `key` replaced by `value`.
std::string withValue(const std::string& line, const std::string& key,
                      const std::string& value) {
  const std::string pattern = "\"" + key + "\":";
  const std::size_t at = line.find(pattern) + pattern.size();
  const std::size_t end = line[at] == '['
                              ? line.find(']', at) + 1
                              : line.find_first_of(",}", at);
  std::string out = line;
  out.replace(at, end - at, value);
  return out;
}

TEST(CampaignJournal, MalformedLinesAreRejected) {
  EXPECT_FALSE(decodeLine("").has_value());
  EXPECT_FALSE(decodeLine("not json at all").has_value());
  EXPECT_FALSE(decodeLine("{\"event\":\"gen\"").has_value());
  EXPECT_FALSE(decodeLine("{\"event\":\"mystery\",\"test\":1}").has_value());

  // Values no encoder writes — a sign, a blank or an overflow on a count,
  // an index or a point, a double that is not finite, a negative rate or
  // latency — come only from corruption or a lying --remote worker, and
  // must not decode.
  GenEvent gen;
  gen.test = 2;
  gen.point = {1, 2};
  gen.generatedBy = "random";
  const std::string validGen = encodeGen(gen);
  ASSERT_TRUE(decodeLine(validGen).has_value());
  const std::pair<const char*, const char*> badGen[] = {
      {"point", "[-1,2]"},
      {"point", "[1,18446744073709551616]"},
      {"pluginIndex", "+0"},
      {"pluginIndex", " 0"},
      {"pluginIndex", "99999999999999999999"},
  };
  for (const auto& [key, bad] : badGen) {
    const std::string line = withValue(validGen, key, bad);
    EXPECT_FALSE(decodeLine(line).has_value()) << line;
  }
  DoneEvent done;
  done.test = 3;
  done.outcome.impact = 0.5;
  const std::string validDone = encodeDone(done);
  ASSERT_TRUE(decodeLine(validDone).has_value());
  const std::pair<const char*, const char*> badDone[] = {
      {"avgLatencySec", "nan"},
      {"avgLatencySec", "-0.5"},
      {"throughputRps", "inf"},
      {"throughputRps", "-1"},
      {"recoveryLatencySec", "-5"},
      {"bestImpact", "nan"},
      {"viewChanges", "-1"},
      {"test", "-1"},
      {"queueDrops", "99999999999999999999999"},
  };
  for (const auto& [key, bad] : badDone) {
    const std::string line = withValue(validDone, key, bad);
    EXPECT_FALSE(decodeLine(line).has_value()) << line;
  }
}

TEST(CampaignJournal, DoneLinesWithImpactOutsideTheUnitIntervalAreRejected) {
  // Executors clamp impact to [0, 1]. A line claiming more (a corrupt
  // journal, or a lying --remote worker's outcome frame) must not reach the
  // controller, where it would become the maximum impact for good.
  DoneEvent event;
  event.test = 3;
  for (const double edge : {0.0, 1.0}) {
    event.outcome.impact = edge;
    EXPECT_TRUE(decodeLine(encodeDone(event)).has_value()) << edge;
  }
  event.outcome.impact = 0.5;
  const std::string valid = encodeDone(event);
  const std::string key = "\"impact\":";
  const std::size_t at = valid.find(key) + key.size();
  const std::size_t end = valid.find(',', at);
  for (const char* bad : {"1e300", "nan", "-0.5", "2", "inf"}) {
    std::string line = valid;
    line.replace(at, end - at, bad);
    EXPECT_FALSE(decodeLine(line).has_value()) << line;
  }
}

TEST(CampaignJournal, TornFinalLineIsToleratedEarlierCorruptionIsNot) {
  const std::string dir = scratchDir("torn");
  const std::string path = dir + "/journal.jsonl";

  GenEvent gen;
  gen.test = 1;
  gen.point = {1, 2};
  gen.generatedBy = "random";
  DoneEvent done;
  done.test = 1;
  const std::string good = encodeGen(gen) + "\n" + encodeDone(done) + "\n";

  // kill -9 mid-append: last line has no newline and is half a record.
  writeAll(path, good + "{\"event\":\"done\",\"te");
  const auto torn = loadJournal(path);
  ASSERT_TRUE(torn.has_value());
  EXPECT_EQ(torn->events.size(), 2u);
  EXPECT_TRUE(torn->truncatedTail);
  EXPECT_EQ(torn->validBytes, good.size());

  // Garbage *before* the final line is corruption, not a torn tail.
  writeAll(path, "garbage\n" + good);
  EXPECT_FALSE(loadJournal(path).has_value());
}

TEST(CampaignJournal, SameSeedSerialRunsProduceByteIdenticalJournals) {
  const std::string dirA = scratchDir("bytes_a");
  const std::string dirB = scratchDir("bytes_b");
  for (const std::string& dir : {dirA, dirB}) {
    CampaignOptions options;
    options.seed = 13;
    options.totalTests = 50;
    options.outDir = dir;
    CampaignRunner runner(ridgeFactory(), options);
    runner.run();
  }
  const std::string a = readAll(journalPath(dirA));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, readAll(journalPath(dirB)));
}

// --- kill / resume -----------------------------------------------------------

/// Runs one uninterrupted campaign into `full`, replays the same campaign
/// into `cut`, chops its journal as a kill -9 would, resumes, and verifies
/// the resumed journal is byte-identical to the uninterrupted one.
void killResumeRoundTrip(std::size_t cutLines, std::size_t cutExtra,
                         const std::string& tag) {
  CampaignOptions options;
  options.seed = 5;
  options.totalTests = 60;
  options.checkpointEvery = 8;

  const std::string full = scratchDir("full_" + tag);
  options.outDir = full;
  const CampaignResult uninterrupted =
      CampaignRunner(ridgeFactory(), options).run();

  const std::string cut = scratchDir("cut_" + tag);
  options.outDir = cut;
  CampaignRunner(ridgeFactory(), options).run();

  const std::string journal = readAll(journalPath(cut));
  writeAll(journalPath(cut),
           journal.substr(0, cutOffset(journal, cutLines, cutExtra)));

  CampaignOptions resumeOptions;
  resumeOptions.outDir = cut;
  const CampaignResult resumed =
      CampaignRunner(ridgeFactory(), resumeOptions).resume();

  EXPECT_EQ(resumed.executed, 60u);
  EXPECT_EQ(resumed.maxImpact, uninterrupted.maxImpact);
  EXPECT_EQ(readAll(journalPath(cut)), readAll(journalPath(full)))
      << "resumed journal must be byte-identical to the uninterrupted run";
  expectSameHistory(uninterrupted.history, resumed.history);
}

TEST(CampaignResume, KillMidLineResumesToIdenticalJournal) {
  // 41 whole lines + 23 bytes of a torn line: the torn line is dropped and
  // rewritten by the resumed run.
  killResumeRoundTrip(41, 23, "midline");
}

TEST(CampaignResume, KillWithScenarioInFlightResumesToIdenticalJournal) {
  // An odd line count in a serial journal (gen/done alternate) leaves the
  // last scenario acquired but unreported — the in-flight case. Resume must
  // re-execute it without re-journaling its gen line.
  killResumeRoundTrip(17, 0, "inflight");
}

TEST(CampaignResume, EmptyJournalResumesFromScratch) {
  killResumeRoundTrip(0, 0, "empty");
}

// --- pre-twins journal compatibility -----------------------------------------
//
// The committed fixtures under tests/fixtures/ were generated by the
// pre-twins binary (`avd_cli campaign --system quorum --tests 24
// --workers 1 --seed 11`). The safetyWitness journal key is emitted only
// on safety-violating lines, so journals from before the twins tool must
// decode, resume, and re-cluster to byte-identical artifacts forever.

std::string fixturePath(const std::string& name) {
  return std::string(AVD_CAMPAIGN_FIXTURE_DIR) + "/" + name;
}

/// `avd_cli campaign --system quorum --seed 11`'s executor.
ExecutorFactory pretwinsQuorumFactory() {
  return [] { return makeSystemExecutor("quorum", 11); };
}

TEST(CampaignCompat, PreTwinsJournalLinesReEncodeByteIdentically) {
  std::istringstream journal(readAll(fixturePath("pretwins_journal.jsonl")));
  std::string line;
  std::size_t lines = 0;
  while (std::getline(journal, line)) {
    ++lines;
    const auto decoded = decodeLine(line);
    ASSERT_TRUE(decoded.has_value()) << line;
    if (decoded->kind == JournalEvent::Kind::kDone) {
      EXPECT_TRUE(decoded->done.outcome.safetyWitness.empty());
      EXPECT_EQ(encodeDone(decoded->done), line)
          << "pre-twins done lines must survive a decode/encode round trip";
    } else {
      ASSERT_EQ(decoded->kind, JournalEvent::Kind::kGen);
      EXPECT_EQ(encodeGen(decoded->gen), line);
    }
  }
  EXPECT_EQ(lines, 48u) << "24 tests = 24 gen + 24 done lines";
}

TEST(CampaignCompat, PreTwinsDirectoryKillResumesToIdenticalArtifacts) {
  // Simulate a campaign killed mid-run on the old binary: the fixture
  // journal truncated mid-line, resumed by today's code.
  const std::string dir = scratchDir("pretwins");
  const std::string fullJournal = readAll(fixturePath("pretwins_journal.jsonl"));
  writeAll(dir + "/manifest.json", readAll(fixturePath("pretwins_manifest.json")));
  writeAll(journalPath(dir), fullJournal.substr(0, cutOffset(fullJournal, 29, 11)));

  CampaignOptions options;
  options.outDir = dir;
  CampaignRunner runner(pretwinsQuorumFactory(), options);
  const CampaignResult result = runner.resume();

  EXPECT_EQ(result.executed, 24u);
  EXPECT_EQ(readAll(journalPath(dir)), fullJournal)
      << "resumed journal must be byte-identical to the pre-twins run's";

  // Re-clustering the resumed history reproduces the pre-twins class
  // report bit for bit: signature shape and JSON are versioned such that
  // twins-free campaigns never see the new fields.
  const auto executor = pretwinsQuorumFactory()();
  EXPECT_EQ(vulnClassesJson(executor->space(), result.classes),
            readAll(fixturePath("pretwins_classes.json")));
}

TEST(CampaignCompat, PoolDirectoryResumesOnTheSerialLoop) {
  // tests/fixtures/pool_*: `avd_cli campaign --system quorum --tests 24
  // --workers 4 --seed 11` from the last build with the in-process thread
  // pool. Its journal folds outcomes in completion order (done 3 before
  // done 1), which the coordinator's in-order fold cannot continue; the
  // serial loop replays any order and finishes the budget.
  const std::string poolJournal = readAll(fixturePath("pool_journal.jsonl"));
  ASSERT_LT(poolJournal.find("{\"event\":\"done\",\"test\":3,"),
            poolJournal.find("{\"event\":\"done\",\"test\":1,"));
  const std::string cutJournal =
      poolJournal.substr(0, cutOffset(poolJournal, 30, 11));
  const std::string dir = scratchDir("pool");
  writeAll(dir + "/manifest.json", readAll(fixturePath("pool_manifest.json")));
  writeAll(journalPath(dir), cutJournal);

  CampaignOptions options;
  options.outDir = dir;
  options.workers = 4;  // the manifest's mode, not this, picks the driver
  const CampaignResult result =
      CampaignRunner(pretwinsQuorumFactory(), options).resume();
  EXPECT_EQ(result.executed, 24u);
  EXPECT_FALSE(result.aborted);

  const std::string resumed = readAll(journalPath(dir));
  const std::size_t kept = cutOffset(poolJournal, 30, 0);
  EXPECT_EQ(resumed.substr(0, kept), poolJournal.substr(0, kept))
      << "the whole lines before the cut stay as the pool wrote them";
  const auto loaded = loadJournal(journalPath(dir));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->events.size(), 48u);

  // The finished directory replays cleanly and has nothing left to run.
  const CampaignResult again =
      CampaignRunner(pretwinsQuorumFactory(), options).resume();
  EXPECT_EQ(again.executed, 24u);
  EXPECT_EQ(readAll(journalPath(dir)), resumed);
}

TEST(CampaignResume, CrashDuringCheckpointRecovers) {
  // A kill -9 inside writeCheckpoint leaves a stale checkpoint .tmp file
  // (the atomic-rename never happened) alongside a torn journal. Resume
  // must ignore the leftover, trust the journal, and still converge to the
  // uninterrupted run's bytes — including a fresh, valid checkpoint.
  CampaignOptions options;
  options.seed = 5;
  options.totalTests = 60;
  options.checkpointEvery = 8;

  const std::string full = scratchDir("ckpt_full");
  options.outDir = full;
  const CampaignResult uninterrupted =
      CampaignRunner(ridgeFactory(), options).run();

  const std::string cut = scratchDir("ckpt_cut");
  options.outDir = cut;
  CampaignRunner(ridgeFactory(), options).run();
  const std::string journal = readAll(journalPath(cut));
  writeAll(journalPath(cut), journal.substr(0, cutOffset(journal, 33, 9)));
  writeAll(checkpointPath(cut) + ".tmp", "{\"generated\":999,\"comp");

  CampaignOptions resumeOptions;
  resumeOptions.outDir = cut;
  const CampaignResult resumed =
      CampaignRunner(ridgeFactory(), resumeOptions).resume();
  EXPECT_EQ(resumed.executed, 60u);
  EXPECT_EQ(readAll(journalPath(cut)), readAll(journalPath(full)));
  EXPECT_EQ(resumed.maxImpact, uninterrupted.maxImpact);

  const auto checkpoint = loadCheckpoint(cut);
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->completed, 60u);
}

TEST(CampaignResume, MissingDirectoryThrows) {
  CampaignOptions options;
  options.outDir =
      (std::filesystem::temp_directory_path() / "avd_campaign_test" /
       "does_not_exist")
          .string();
  CampaignRunner runner(ridgeFactory(), options);
  EXPECT_THROW(runner.resume(), std::runtime_error);
}

TEST(CampaignResume, TamperedJournalIsDetectedAsDivergence) {
  const std::string dir = scratchDir("tampered");
  CampaignOptions options;
  options.seed = 5;
  options.totalTests = 20;
  options.outDir = dir;
  CampaignRunner(ridgeFactory(), options).run();
  const std::string original = readAll(journalPath(dir));

  // Each edit keeps the line parseable but changes a field the controller
  // regenerates — the provenance, the parent's impact, the plugin: replay
  // must notice the journal no longer matches the deterministic
  // regeneration.
  const std::pair<std::string, std::string> edits[] = {
      {"\"generatedBy\":\"random\"", "\"generatedBy\":\"zandom\""},
      {"\"parentImpact\":0,", "\"parentImpact\":0.25,"},
      {"\"pluginIndex\":-1}", "\"pluginIndex\":2}"},
  };
  for (const auto& [from, to] : edits) {
    std::string journal = original;
    const auto at = journal.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    journal.replace(at, from.size(), to);
    writeAll(journalPath(dir), journal);

    CampaignOptions resumeOptions;
    resumeOptions.outDir = dir;
    CampaignRunner runner(ridgeFactory(), resumeOptions);
    EXPECT_THROW(runner.resume(), std::runtime_error) << to;
  }
}

// --- failure and timeout isolation -------------------------------------------

TEST(CampaignIsolation, ThrowingExecutorYieldsFailedScenariosNotACrash) {
  CampaignOptions options;
  options.seed = 3;
  options.totalTests = 50;
  options.workers = 1;
  CampaignRunner runner(
      [] { return std::make_unique<FaultyExecutor>(); }, options);
  const CampaignResult result = runner.run();
  EXPECT_EQ(result.executed, 50u);
  EXPECT_GT(result.failed, 0u) << "a third of the space throws";
  EXPECT_FALSE(result.aborted);
  std::size_t zeroImpact = 0;
  for (const core::TestRecord& record : result.history) {
    if (record.outcome.impact == 0.0) ++zeroImpact;
  }
  EXPECT_GE(zeroImpact, result.failed)
      << "failed scenarios enter history with the zero outcome";
}

TEST(CampaignIsolation, ThrowingExecutorIsIsolatedInParallelToo) {
  CampaignOptions options;
  options.seed = 3;
  options.totalTests = 40;
  options.workers = 2;
  CampaignRunner runner(
      [] { return std::make_unique<FaultyExecutor>(); }, options);
  const CampaignResult result = runner.run();
  EXPECT_EQ(result.executed, 40u);
  EXPECT_GT(result.failed, 0u);
  EXPECT_FALSE(result.aborted);
}

// A watchdog campaign runs on the fleet coordinator with thread workers.
// Its factory builds the controller's executor first and then one per
// worker (re)start, in launch order. A wedged scenario is retried on a
// fresh worker once and folds as timed out on its second wedge
// (FleetOptions::wedgeKillLimit = 2); the respawn budget is the
// coordinator's (FleetOptions::maxWorkerRespawns = 8).

TEST(CampaignIsolation, WatchdogRetiresWedgedWorkerAndCampaignFinishes) {
  // The first worker's executor wedges on every scenario; the other is
  // healthy. The watchdog must retire the wedged worker and the campaign
  // must finish its whole budget: the wedged scenario's retry runs on a
  // healthy worker, so nothing times out.
  std::atomic<int> built{0};
  CampaignOptions options;
  options.seed = 9;
  options.totalTests = 25;
  options.workers = 2;
  options.scenarioTimeoutMs = 100;
  CampaignRunner runner(
      [&built] {
        return std::make_unique<SleepyExecutor>(built.fetch_add(1) == 1);
      },
      options);
  const CampaignResult result = runner.run();
  EXPECT_EQ(result.executed, 25u);
  EXPECT_EQ(result.timedOut, 0u);
  EXPECT_GE(result.workerCrashes, 1u) << "the wedged worker was retired";
  EXPECT_FALSE(result.aborted);
}

TEST(CampaignIsolation, AllWorkersWedgedAbortsWithPartialResults) {
  // Every worker wedges. The 10 workers the budget allows (2 + 8 respawns)
  // wedge twice on each of tests 1-4, which fold as timed out, and once
  // on tests 5 and 6; then no worker is left and the campaign aborts.
  CampaignOptions options;
  options.seed = 9;
  options.totalTests = 10;
  options.workers = 2;
  options.scenarioTimeoutMs = 80;
  CampaignRunner runner(
      [] { return std::make_unique<SleepyExecutor>(true); }, options);
  const CampaignResult result = runner.run();
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.timedOut, 4u) << "two wedges per timed-out test";
  EXPECT_EQ(result.respawns, 8u);
  EXPECT_LT(result.executed, 10u);
}

TEST(CampaignIsolation, RespawnRevivesAWedgedSlotInsteadOfAborting) {
  // A single worker whose first executor wedges on every scenario. The
  // slot gets a fresh executor (here: a healthy one) that runs the retried
  // scenario, and the campaign completes, counting the respawn.
  std::atomic<int> built{0};
  CampaignOptions options;
  options.seed = 9;
  options.totalTests = 15;
  options.workers = 1;
  options.scenarioTimeoutMs = 100;
  CampaignRunner runner(
      [&built] {
        return std::make_unique<SleepyExecutor>(built.fetch_add(1) == 1);
      },
      options);
  const CampaignResult result = runner.run();
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.executed, 15u);
  EXPECT_EQ(result.timedOut, 0u) << "the retry ran on the fresh executor";
  EXPECT_GE(result.respawns, 1u);
}

TEST(CampaignIsolation, RespawnBudgetExhaustionStillAborts) {
  // Every executor incarnation wedges: respawning can't help, and the
  // all-wedged abort must survive (a respawn loop must not spin forever).
  CampaignOptions options;
  options.seed = 9;
  options.totalTests = 10;
  options.workers = 1;
  options.scenarioTimeoutMs = 80;
  CampaignRunner runner(
      [] { return std::make_unique<SleepyExecutor>(true); }, options);
  const CampaignResult result = runner.run();
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.respawns, 8u) << "the whole budget was spent trying";
  EXPECT_LT(result.executed, 10u);
}

TEST(CampaignIsolation, OutOfRangeImpactIsAFailedScenarioAndTheJournalResumes) {
  // An impact outside [0, 1] would become µ, and it or a NaN latency would
  // become a journal line that resume rejects as corrupt. Each is a failed
  // scenario instead.
  const std::string dir = scratchDir("out_of_range");
  CampaignOptions options;
  options.seed = 3;
  options.totalTests = 40;
  options.outDir = dir;
  const ExecutorFactory factory = [] {
    return std::make_unique<OutOfRangeExecutor>();
  };
  const CampaignResult result = CampaignRunner(factory, options).run();
  EXPECT_EQ(result.executed, 40u);
  EXPECT_GT(result.failed, 0u);
  EXPECT_LE(result.maxImpact, 1.0);
  for (const core::TestRecord& record : result.history) {
    EXPECT_TRUE(record.outcome.impact >= 0.0 && record.outcome.impact <= 1.0);
  }
  const std::string journal = readAll(journalPath(dir));
  EXPECT_NE(journal.find("executor returned impact 1.5 outside [0, 1]"),
            std::string::npos);
  EXPECT_NE(journal.find("executor returned impact nan outside [0, 1]"),
            std::string::npos);
  EXPECT_NE(journal.find("executor returned avgLatencySec nan outside [0, inf)"),
            std::string::npos);

  writeAll(journalPath(dir), journal.substr(0, cutOffset(journal, 41, 23)));
  CampaignOptions resumeOptions;
  resumeOptions.outDir = dir;
  const CampaignResult resumed =
      CampaignRunner(factory, resumeOptions).resume();
  EXPECT_EQ(resumed.executed, 40u);
  EXPECT_EQ(readAll(journalPath(dir)), journal);
}

// --- vulnerability dedup -----------------------------------------------------

core::Hyperspace twoDimSpace() {
  core::Hyperspace space;
  space.add(core::Dimension::range("knob", 0, 9));
  space.add(core::Dimension::choice("mode", {0, 5}));
  return space;
}

core::TestRecord record(core::Point point, double impact,
                        std::uint64_t viewChanges = 0,
                        bool safetyViolated = false) {
  core::TestRecord out;
  out.point = std::move(point);
  out.outcome.impact = impact;
  out.outcome.viewChanges = viewChanges;
  out.outcome.safetyViolated = safetyViolated;
  return out;
}

TEST(CampaignDedup, NearbyPointsWithSameBehaviorCollapseToOneClass) {
  const core::Hyperspace space = twoDimSpace();
  const std::vector<core::TestRecord> history = {
      record({3, 1}, 0.85),  // knob + mode active, band 8
      record({4, 1}, 0.82),  // same signature -> same class
      record({0, 0}, 0.95),  // nothing active, band 9 -> own class
      record({5, 1}, 0.30),  // below the triage floor
  };
  const auto classes = dedupVulnerabilities(space, history, 0.5);
  ASSERT_EQ(classes.size(), 2u);

  EXPECT_EQ(classes[0].exemplar.outcome.impact, 0.95);
  EXPECT_EQ(classes[0].count, 1u);
  EXPECT_EQ(classes[0].exemplarTest, 3u) << "1-based history index";

  EXPECT_EQ(classes[1].exemplar.outcome.impact, 0.85);
  EXPECT_EQ(classes[1].count, 2u);
  EXPECT_EQ(classes[1].exemplarTest, 1u);
  EXPECT_EQ(classes[1].signature.activeDims,
            (std::vector<std::uint8_t>{1, 1}));
}

TEST(CampaignDedup, BehaviorDifferencesSplitClasses) {
  const core::Hyperspace space = twoDimSpace();
  const std::vector<core::TestRecord> history = {
      record({3, 1}, 0.85, 0, false),
      record({3, 1}, 0.85, 5, false),   // view-change band differs
      record({3, 1}, 0.85, 5, true),    // safety flag differs
  };
  const auto classes = dedupVulnerabilities(space, history, 0.5);
  EXPECT_EQ(classes.size(), 3u);
}

TEST(CampaignDedup, LabelNamesBandsFlagsAndActiveDims) {
  const core::Hyperspace space = twoDimSpace();
  const auto sig = signatureOf(space, record({4, 1}, 0.93, 2, true));
  const std::string label = signatureLabel(space, sig);
  EXPECT_NE(label.find("0.9-1.0"), std::string::npos) << label;
  EXPECT_NE(label.find("1-3"), std::string::npos) << label;
  EXPECT_NE(label.find("SAFETY VIOLATED"), std::string::npos) << label;
  EXPECT_NE(label.find("knob"), std::string::npos) << label;
  EXPECT_NE(label.find("mode"), std::string::npos) << label;
}

TEST(CampaignDedup, JsonReportNamesDimensionsAndCounts) {
  const core::Hyperspace space = twoDimSpace();
  // 0.75 is dyadic, so %.17g prints it exactly as "0.75".
  const auto classes = dedupVulnerabilities(
      space, {record({3, 1}, 0.75), record({4, 1}, 0.75)}, 0.5);
  const std::string json = vulnClassesJson(space, classes);
  EXPECT_NE(json.find("\"count\""), std::string::npos);
  EXPECT_NE(json.find("knob"), std::string::npos);
  EXPECT_NE(json.find("0.75"), std::string::npos);
}

TEST(CampaignDedup, RestartBandSplitsClassesAndNamesItselfInTheLabel) {
  const core::Hyperspace space = twoDimSpace();
  core::TestRecord churned = record({3, 1}, 0.85);
  churned.outcome.restarts = 4;  // sustained churn band
  const std::vector<core::TestRecord> history = {
      record({3, 1}, 0.85),  // same point, no restarts
      churned,
  };
  const auto classes = dedupVulnerabilities(space, history, 0.5);
  ASSERT_EQ(classes.size(), 2u)
      << "a churn-driven outage must not collapse into the message-level "
         "attack with the same impact";

  const auto sig = signatureOf(space, churned);
  EXPECT_EQ(sig.restartBand, 2);
  const std::string label = signatureLabel(space, sig);
  EXPECT_NE(label.find("restarts 3-8"), std::string::npos) << label;
  // No-restart signatures keep their pre-churn labels.
  EXPECT_EQ(signatureLabel(space, signatureOf(space, history[0]))
                .find("restarts"),
            std::string::npos);
}

// --- SAFETY verdicts at any impact -------------------------------------------

/// The ridge space with a SAFETY verdict at impact 0.1 on every even x: a
/// safety break that costs almost no throughput, as twins can cause.
class QuietSafetyExecutor final : public core::ScenarioExecutor {
 public:
  core::Outcome execute(const core::Point& point) override {
    core::Outcome outcome;
    outcome.impact = 0.1;
    outcome.throughputRps = 900.0;
    outcome.safetyViolated = point[0] % 2 == 0;
    if (outcome.safetyViolated) outcome.safetyWitness = "seq=1";
    return outcome;
  }
  const core::Hyperspace& space() const noexcept override {
    return inner_.space();
  }

 private:
  RidgeExecutor inner_;
};

TEST(CampaignSafety, LowImpactSafetyVerdictsFormClassesAndAreCounted) {
  const ExecutorFactory factory = [] {
    return std::make_unique<QuietSafetyExecutor>();
  };
  CampaignOptions options;
  options.seed = 3;
  options.totalTests = 24;
  options.checkpointEvery = 8;
  options.outDir = scratchDir("quiet_safety");
  const CampaignResult result = CampaignRunner(factory, options).run();

  std::size_t verdicts = 0;
  for (const core::TestRecord& record : result.history) {
    verdicts += record.outcome.safetyViolated ? 1 : 0;
  }
  ASSERT_GT(verdicts, 0u);
  EXPECT_EQ(result.safetyViolations, verdicts);
  ASSERT_FALSE(result.classes.empty())
      << "SAFETY at impact 0.1 is a finding below --min-impact 0.5";
  std::size_t members = 0;
  for (const VulnClass& cls : result.classes) {
    EXPECT_TRUE(cls.signature.safetyViolated);
    members += cls.count;
  }
  EXPECT_EQ(members, verdicts) << "every SAFETY test joins a class";

  const auto checkpoint = loadCheckpoint(options.outDir);
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->safetyViolations, verdicts);

  // A resume recounts from the replayed journal: a well-formed but wrong
  // checkpoint count is not carried over.
  const std::string journal = readAll(journalPath(options.outDir));
  writeAll(journalPath(options.outDir),
           journal.substr(0, cutOffset(journal, 21, 7)));
  Checkpoint stale = *checkpoint;
  stale.safetyViolations = 999;
  ASSERT_TRUE(writeCheckpoint(options.outDir, stale));

  CampaignOptions resumeOptions;
  resumeOptions.outDir = options.outDir;
  const CampaignResult resumed =
      CampaignRunner(factory, resumeOptions).resume();
  EXPECT_EQ(resumed.safetyViolations, verdicts);
  const auto recounted = loadCheckpoint(options.outDir);
  ASSERT_TRUE(recounted.has_value());
  EXPECT_EQ(recounted->safetyViolations, verdicts);
}

TEST(CampaignJournal, CheckpointSafetyCountDefaultsWhenAbsentNotMalformed) {
  const std::string dir = scratchDir("safety_key");
  Checkpoint written;
  written.completed = 4;
  written.generated = 4;
  written.safetyViolations = 3;
  ASSERT_TRUE(writeCheckpoint(dir, written));
  const std::string text = readAll(checkpointPath(dir));
  const auto present = loadCheckpoint(dir);
  ASSERT_TRUE(present.has_value()) << text;
  EXPECT_EQ(present->safetyViolations, 3u);

  const std::string key = ",\"safetyViolations\":3";
  const std::size_t at = text.find(key);
  ASSERT_NE(at, std::string::npos) << text;
  std::string absent = text;
  absent.erase(at, key.size());
  writeAll(checkpointPath(dir), absent);
  const auto loaded = loadCheckpoint(dir);
  ASSERT_TRUE(loaded.has_value()) << absent;
  EXPECT_EQ(loaded->safetyViolations, 0u);
  EXPECT_EQ(loaded->completed, 4u);

  std::string malformed = text;
  malformed.replace(at, key.size(), ",\"safetyViolations\":-3");
  writeAll(checkpointPath(dir), malformed);
  EXPECT_FALSE(loadCheckpoint(dir).has_value()) << malformed;
}

// --- churn campaign end-to-end -----------------------------------------------

TEST(CampaignChurn, FindsCrashTimingClassesWithByteIdenticalJournals) {
  // The acceptance run for the churn dimensions: an AVD campaign over the
  // crash-timing hyperspace must journal at least one distinct class whose
  // outage was driven by crash-restart timing, and the journal must be a
  // pure function of the seed.
  const ExecutorFactory churnFactory = [] {
    core::PbftExecutorOptions options;
    options.baseSeed = 97;
    options.measure = sim::msec(1500);
    return std::make_unique<core::PbftAttackExecutor>(
        core::makeChurnHyperspace(), options);
  };

  const std::string dirA = scratchDir("churn_a");
  const std::string dirB = scratchDir("churn_b");
  CampaignResult result;
  for (const std::string& dir : {dirA, dirB}) {
    CampaignOptions options;
    options.seed = 2011;
    options.totalTests = 40;
    options.outDir = dir;
    options.dedupMinImpact = 0.25;
    CampaignRunner runner(churnFactory, options);
    result = runner.run();
  }
  const std::string journalA = readAll(journalPath(dirA));
  EXPECT_FALSE(journalA.empty());
  EXPECT_EQ(journalA, readAll(journalPath(dirB)));
  EXPECT_NE(journalA.find("\"restarts\":"), std::string::npos);

  bool crashTimingClass = false;
  for (const VulnClass& cls : result.classes) {
    if (cls.signature.restartBand > 0 && !cls.signature.safetyViolated) {
      crashTimingClass = true;
      EXPECT_GT(cls.exemplar.outcome.restarts, 0u);
    }
    EXPECT_FALSE(cls.signature.safetyViolated)
        << "churn must never produce divergence";
  }
  EXPECT_TRUE(crashTimingClass)
      << "no high-impact vulnerability class driven by crash-restart timing";
}

}  // namespace
}  // namespace avd::campaign
