// Fleet tests: framing, wire protocol, shard merge edge cases, and the
// coordinator's chaos guarantees — worker kill -9 (before and after the
// shard append), coordinator kill + resume, wedge containment, graceful
// drain, peers that skip the hello, and the remote TCP path.
//
// Workers run as threads over socketpairs (ThreadFleet, the launcher
// CampaignRunner uses), which keeps the tests hermetic and lets crash hooks
// share state with the test body; the avd_cli binary exercises the real
// fork+exec path and CI's release leg kills real processes.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "avd/controller.h"
#include "avd/plugin.h"
#include "campaign/fleet/coordinator.h"
#include "campaign/fleet/protocol.h"
#include "campaign/fleet/shard.h"
#include "campaign/fleet/thread_fleet.h"
#include "campaign/fleet/worker.h"
#include "campaign/journal.h"
#include "campaign/runner.h"
#include "common/framing.h"
#include "common/proc.h"

namespace avd::campaign::fleet {
namespace {

// --- helpers -----------------------------------------------------------------

/// Same synthetic ridge landscape as campaign_test.cpp: deterministic,
/// instant, structured enough for the controller to climb.
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

ExecutorFactory ridgeFactory() {
  return [] { return std::make_unique<RidgeExecutor>(); };
}

WorkerExecutorFactory ridgeWorkerFactory() {
  return [](const std::string&, std::uint64_t) {
    return std::make_unique<RidgeExecutor>();
  };
}

std::string scratchDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "avd_fleet_test" / name;
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
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  ASSERT_TRUE(out.good());
}

/// Byte offset one past the `n`-th newline, plus `extra` bytes into the
/// next line (a kill -9 landing mid-append).
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

FleetOptions ridgeFleetOptions(std::uint64_t seed, std::size_t tests,
                               std::size_t spawn, const std::string& dir) {
  FleetOptions options;
  options.campaign.seed = seed;
  options.campaign.totalTests = tests;
  options.campaign.outDir = dir;
  options.campaign.system = "ridge";
  options.campaign.checkpointEvery = 8;
  options.spawn = spawn;
  options.heartbeatMs = 50;
  return options;
}

// --- framing -----------------------------------------------------------------

TEST(FleetFraming, FramesRoundTripOverASocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = "{\"event\":\"hello\",\"version\":1}";
  ASSERT_TRUE(util::writeFrame(fds[0], payload));
  ASSERT_TRUE(util::writeFrame(fds[0], ""));  // empty frames are legal
  const auto first = util::readFrame(fds[1]);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, payload);
  const auto second = util::readFrame(fds[1]);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->empty());
  ::close(fds[0]);
  EXPECT_FALSE(util::readFrame(fds[1]).has_value()) << "EOF is nullopt";
  ::close(fds[1]);
}

TEST(FleetFraming, FrameReaderReassemblesPartialDelivery) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload(300, 'x');
  std::string wire;
  wire.push_back(0);
  wire.push_back(0);
  wire.push_back(static_cast<char>(300 / 256));
  wire.push_back(static_cast<char>(300 % 256));
  wire += payload;

  util::FrameReader reader;
  // Deliver the frame in three fragments; no frame may surface early.
  for (const auto& range : {wire.substr(0, 2), wire.substr(2, 150)}) {
    ASSERT_EQ(::send(fds[0], range.data(), range.size(), 0),
              static_cast<ssize_t>(range.size()));
    ASSERT_TRUE(reader.pump(fds[1]));
    EXPECT_FALSE(reader.next().has_value());
  }
  const std::string rest = wire.substr(152);
  ASSERT_EQ(::send(fds[0], rest.data(), rest.size(), 0),
            static_cast<ssize_t>(rest.size()));
  ASSERT_TRUE(reader.pump(fds[1]));
  const auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, payload);
  EXPECT_FALSE(reader.corrupt());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FleetFraming, OversizedDeclaredLengthMarksTheStreamCorrupt) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const char huge[4] = {0x7f, 0x00, 0x00, 0x00};  // ~2 GiB declared
  ASSERT_EQ(::send(fds[0], huge, 4, 0), 4);
  util::FrameReader reader;
  ASSERT_TRUE(reader.pump(fds[1]));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.corrupt())
      << "a byzantine peer must not make the coordinator allocate 2 GiB";
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- fault injection: EINTR storms and short transfers -----------------------

// No-op SIGUSR1 handler installed WITHOUT SA_RESTART, so every in-flight
// read/write/send/recv in a thread that receives the signal returns
// EINTR. The framing and shard-append loops must absorb that.
void onInterrupt(int) {}

void installInterruptingHandler() {
  struct sigaction sa {};
  sa.sa_handler = onInterrupt;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  ASSERT_EQ(sigaction(SIGUSR1, &sa, nullptr), 0);
}

void unblockUsr1InThisThread() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGUSR1);
  pthread_sigmask(SIG_UNBLOCK, &set, nullptr);
}

/// Blocks SIGUSR1 on the constructing (main) thread, then rains
/// process-directed SIGUSR1 until destruction. Worker threads opt in with
/// unblockUsr1InThisThread(), which steers delivery — and the EINTRs — at
/// them. Process-directed kill() is used instead of pthread_kill so there
/// is no race against a worker thread exiting mid-storm.
class SignalStorm {
 public:
  SignalStorm() {
    installInterruptingHandler();
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGUSR1);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);
    storm_ = std::thread([this] {
      while (!stop_.load()) {
        ::kill(::getpid(), SIGUSR1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  ~SignalStorm() {
    stop_.store(true);
    storm_.join();
    // The handler stays installed (it is a no-op); unblocking here lets a
    // still-pending signal drain into it harmlessly.
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGUSR1);
    pthread_sigmask(SIG_UNBLOCK, &set, nullptr);
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread storm_;
};

TEST(FleetFaultInjection, LargeFrameSurvivesEintrStormAndShortTransfers) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Shrink both socket buffers so the half-megabyte frame needs many
  // partial send()/recv() rounds, each of which the storm can interrupt.
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof tiny), 0);
  ASSERT_EQ(::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny), 0);

  std::string payload(512 * 1024, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + (i * 131) % 26);
  }

  SignalStorm storm;
  bool wrote = false;
  std::optional<std::string> frame;
  std::thread writer([&] {
    unblockUsr1InThisThread();
    wrote = util::writeFrame(fds[0], payload);
  });
  std::thread reader([&] {
    unblockUsr1InThisThread();
    frame = util::readFrame(fds[1]);
  });
  writer.join();
  reader.join();
  ASSERT_TRUE(wrote);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, payload)
      << "byte-identical reassembly through interrupted partial transfers";
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FleetFaultInjection, FrameStreamUnderStormReassemblesEveryFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  constexpr std::size_t kFrames = 300;
  std::vector<std::string> sent(kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    sent[i].assign(1 + (i * 37) % 1500, static_cast<char>('A' + i % 26));
  }

  SignalStorm storm;
  std::thread writer([&] {
    unblockUsr1InThisThread();
    for (const std::string& p : sent) {
      if (!util::writeFrame(fds[0], p)) return;
    }
    ::close(fds[0]);  // EOF ends the reader's pump loop
  });
  std::vector<std::string> got;
  std::thread reader([&] {
    unblockUsr1InThisThread();
    util::FrameReader r;
    for (;;) {
      const bool alive = r.pump(fds[1]);
      while (auto f = r.next()) got.push_back(std::move(*f));
      if (!alive) break;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    EXPECT_FALSE(r.corrupt());
  });
  writer.join();
  reader.join();
  ASSERT_EQ(got.size(), kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(got[i], sent[i]) << "frame " << i;
  }
  ::close(fds[1]);
}

TEST(FleetFaultInjection, ShardAppendsUnderStormMergeByteIdentically) {
  const std::string dir = scratchDir("eintr_shard");
  SignalStorm storm;
  std::string expected;
  std::atomic<bool> ok{true};
  std::thread workerThread([&] {
    unblockUsr1InThisThread();
    JournalWriter shard;
    if (!shard.openFresh(shardPath(dir, 0, 0))) {
      ok = false;
      return;
    }
    for (std::uint64_t test = 1; test <= 512; ++test) {
      DoneEvent done;
      done.test = test;
      done.outcome.impact = 0.001 * static_cast<double>(test);
      const std::string line = encodeDone(done);
      if (!shard.append(line) || (test % 64 == 0 && !shard.sync())) {
        ok = false;
        return;
      }
      expected += line + "\n";
    }
    if (!shard.close()) ok = false;
  });
  workerThread.join();
  ASSERT_TRUE(ok.load());
  EXPECT_EQ(readAll(shardPath(dir, 0, 0)), expected)
      << "every appended line reached the file byte-identically";
  const MergedShards merged = mergeShards(dir);
  EXPECT_EQ(merged.outcomes.size(), 512u);
  EXPECT_EQ(merged.tornShards, 0u);
  EXPECT_EQ(merged.corruptShards, 0u);
}

// --- protocol ----------------------------------------------------------------

TEST(FleetProtocol, ControlMessagesRoundTrip) {
  const std::string hello = encodeHello(Hello{kProtocolVersion});
  EXPECT_EQ(kindOf(hello), MessageKind::kHello);
  const auto helloBack = decodeHello(hello);
  ASSERT_TRUE(helloBack.has_value());
  EXPECT_EQ(helloBack->version, kProtocolVersion);

  Welcome welcome;
  welcome.slot = 3;
  welcome.incarnation = 7;
  welcome.system = "pbft-flood";
  welcome.seed = 0xdeadbeefULL;
  welcome.outDir = "/tmp/with \"quotes\" and\nnewline";
  welcome.heartbeatMs = 125;
  const std::string welcomeWire = encodeWelcome(welcome);
  EXPECT_EQ(kindOf(welcomeWire), MessageKind::kWelcome);
  const auto welcomeBack = decodeWelcome(welcomeWire);
  ASSERT_TRUE(welcomeBack.has_value());
  EXPECT_EQ(welcomeBack->slot, 3u);
  EXPECT_EQ(welcomeBack->incarnation, 7u);
  EXPECT_EQ(welcomeBack->system, welcome.system);
  EXPECT_EQ(welcomeBack->seed, welcome.seed);
  EXPECT_EQ(welcomeBack->outDir, welcome.outDir);
  EXPECT_EQ(welcomeBack->heartbeatMs, 125u);

  Assign assign;
  assign.test = 42;
  assign.point = {0, 19, 3};
  const std::string assignWire = encodeAssign(assign);
  EXPECT_EQ(kindOf(assignWire), MessageKind::kAssign);
  const auto assignBack = decodeAssign(assignWire);
  ASSERT_TRUE(assignBack.has_value());
  EXPECT_EQ(assignBack->test, 42u);
  EXPECT_EQ(assignBack->point, assign.point);

  EXPECT_EQ(kindOf(encodeHeartbeat()), MessageKind::kHeartbeat);
  EXPECT_EQ(kindOf(encodeShutdown()), MessageKind::kShutdown);
}

TEST(FleetProtocol, OutcomeFramesAreJournalDoneLines) {
  DoneEvent done;
  done.test = 5;
  done.outcome.impact = 0.625;
  const std::string wire = encodeDone(done);
  EXPECT_EQ(kindOf(wire), MessageKind::kOutcome);
  const auto decoded = decodeLine(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, JournalEvent::Kind::kDone);
  EXPECT_EQ(decoded->done.test, 5u);
}

TEST(FleetProtocol, GarbageIsUnknown) {
  EXPECT_EQ(kindOf(""), MessageKind::kUnknown);
  EXPECT_EQ(kindOf("not json"), MessageKind::kUnknown);
  EXPECT_EQ(kindOf("{\"event\":\"mystery\"}"), MessageKind::kUnknown);
  EXPECT_FALSE(decodeAssign("{\"event\":\"assign\"}").has_value())
      << "assign without test/point is a protocol violation, not a default";
  EXPECT_FALSE(
      decodeAssign("{\"event\":\"assign\",\"test\":-1,\"point\":[1]}")
          .has_value());
  EXPECT_FALSE(
      decodeAssign("{\"event\":\"assign\",\"test\":1,\"point\":[-1]}")
          .has_value());
}

// --- worker ------------------------------------------------------------------

TEST(FleetWorker, ShutdownFrameEndsTheWorkerWithoutWaitingOutAHeartbeat) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  int code = -1;
  std::thread worker(
      [&code, fd = fds[1]] { code = runWorker(fd, ridgeWorkerFactory()); });

  // No ASSERT until the join: the worker thread must not outlive the test.
  const auto hello = util::readFrame(fds[0]);
  EXPECT_TRUE(hello && kindOf(*hello) == MessageKind::kHello);
  Welcome welcome;
  welcome.system = "ridge";
  welcome.heartbeatMs = 5000;
  EXPECT_TRUE(util::writeFrame(fds[0], encodeWelcome(welcome)));
  // The first beat goes out at once; the next one is 5 s away.
  const auto beat = util::readFrame(fds[0]);
  EXPECT_TRUE(beat && kindOf(*beat) == MessageKind::kHeartbeat);

  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(util::writeFrame(fds[0], encodeShutdown()));
  worker.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ::close(fds[0]);
  EXPECT_EQ(code, kWorkerExitClean);
  EXPECT_LT(elapsed, std::chrono::seconds(1))
      << "the heartbeat thread must wake on exit, not sleep out its beat";
}

// --- shard merge -------------------------------------------------------------

std::string doneLine(std::uint64_t test, double impact) {
  DoneEvent done;
  done.test = test;
  done.outcome.impact = impact;
  return encodeDone(done) + "\n";
}

TEST(FleetShards, MergeIsFirstWinsAcrossFilesAndCountsDuplicates) {
  const std::string dir = scratchDir("merge");
  writeAll(shardPath(dir, 0, 0), doneLine(1, 0.25) + doneLine(3, 0.5));
  writeAll(shardPath(dir, 1, 0), doneLine(2, 0.75) + doneLine(3, 0.5));
  writeAll(dir + "/journal.jsonl", "unrelated\n");  // not a shard; ignored

  const MergedShards merged = mergeShards(dir);
  EXPECT_EQ(merged.shardFiles, 2u);
  EXPECT_EQ(merged.outcomes.size(), 3u);
  EXPECT_EQ(merged.duplicates, 1u)
      << "test 3 completed on both workers (reassignment) — folded once";
  EXPECT_EQ(merged.tornShards, 0u);
  EXPECT_EQ(merged.corruptShards, 0u);
  EXPECT_EQ(merged.outcomes.at(2).outcome.impact, 0.75);
  EXPECT_EQ(merged.nextIncarnation.at(0), 1u);
  EXPECT_EQ(merged.nextIncarnation.at(1), 1u);
}

TEST(FleetShards, TornTailShardLosesOnlyTheTornLine) {
  const std::string dir = scratchDir("torn");
  writeAll(shardPath(dir, 0, 0),
           doneLine(1, 0.25) + "{\"event\":\"done\",\"te");  // kill -9 mid-append
  const MergedShards merged = mergeShards(dir);
  EXPECT_EQ(merged.shardFiles, 1u);
  EXPECT_EQ(merged.tornShards, 1u);
  EXPECT_EQ(merged.outcomes.size(), 1u);
  EXPECT_TRUE(merged.outcomes.count(1));
}

TEST(FleetShards, CorruptShardIsSkippedWhole) {
  const std::string dir = scratchDir("corrupt");
  writeAll(shardPath(dir, 0, 0), "garbage\n" + doneLine(1, 0.25));
  writeAll(shardPath(dir, 1, 0), doneLine(2, 0.5));
  const MergedShards merged = mergeShards(dir);
  EXPECT_EQ(merged.corruptShards, 1u);
  EXPECT_EQ(merged.outcomes.size(), 1u) << "only the healthy shard merges";
  EXPECT_TRUE(merged.outcomes.count(2));
}

TEST(FleetShards, MissingDirectoryAndMissingShardsMergeEmpty) {
  const MergedShards merged = mergeShards("/does/not/exist");
  EXPECT_EQ(merged.shardFiles, 0u);
  EXPECT_TRUE(merged.outcomes.empty());
}

TEST(FleetShards, IncarnationCountersSurviveGapsAndRemoveShardsClears) {
  const std::string dir = scratchDir("incarnation");
  writeAll(shardPath(dir, 0, 0), doneLine(1, 0.25));
  writeAll(shardPath(dir, 0, 4), doneLine(2, 0.5));  // incarnations 1-3 died
  writeAll(dir + "/keepme.txt", "not a shard\n");
  EXPECT_EQ(mergeShards(dir).nextIncarnation.at(0), 5u);

  removeShards(dir);
  EXPECT_TRUE(mergeShards(dir).outcomes.empty());
  EXPECT_TRUE(std::filesystem::exists(dir + "/keepme.txt"))
      << "removeShards must only touch shard files";
}

// --- end-to-end over thread workers ------------------------------------------

TEST(FleetEndToEnd, CampaignCompletesAndJournalIsAPureFunctionOfTheSeed) {
  const std::string dirA = scratchDir("e2e_a");
  const std::string dirB = scratchDir("e2e_b");
  for (const std::string& dir : {dirA, dirB}) {
    ThreadFleet fleet;
    FleetOptions options = ridgeFleetOptions(11, 40, 2, dir);
    options.launcher = fleet.launcher(ridgeWorkerFactory());
    FleetCoordinator coordinator(std::move(options), ridgeFactory());
    const CampaignResult result = coordinator.run();
    EXPECT_EQ(result.executed, 40u);
    EXPECT_EQ(result.history.size(), 40u);
    EXPECT_FALSE(result.aborted);
    EXPECT_EQ(result.workerCrashes, 0u);
    EXPECT_GT(result.maxImpact, 0.0);
  }
  const std::string journalA = readAll(journalPath(dirA));
  EXPECT_FALSE(journalA.empty());
  EXPECT_EQ(journalA, readAll(journalPath(dirB)))
      << "fleet journal bytes must be independent of worker timing";
}

TEST(FleetEndToEnd, InMemoryFleetNeedsNoOutDir) {
  ThreadFleet fleet;
  FleetOptions options = ridgeFleetOptions(11, 24, 2, "");
  options.launcher = fleet.launcher(ridgeWorkerFactory());
  FleetCoordinator coordinator(std::move(options), ridgeFactory());
  const CampaignResult result = coordinator.run();
  EXPECT_EQ(result.executed, 24u);
  EXPECT_FALSE(result.aborted);
}

/// Shared chaos scaffold: run a reference fleet uninterrupted, then a
/// second fleet where `hooks` murders workers at chosen moments, and
/// require identical journal bytes plus full completion.
void crashRoundTrip(const WorkerHooks& hooks, const std::string& tag,
                    std::size_t expectMinCrashes) {
  const std::string full = scratchDir("crash_full_" + tag);
  {
    ThreadFleet fleet;
    FleetOptions options = ridgeFleetOptions(23, 48, 2, full);
    options.launcher = fleet.launcher(ridgeWorkerFactory());
    FleetCoordinator coordinator(std::move(options), ridgeFactory());
    coordinator.run();
  }

  const std::string dir = scratchDir("crash_" + tag);
  ThreadFleet fleet;
  FleetOptions options = ridgeFleetOptions(23, 48, 2, dir);
  options.heartbeatMissFactor = 6;  // fail fast: threads die silently
  options.launcher = fleet.launcher(ridgeWorkerFactory(), hooks);
  FleetCoordinator coordinator(std::move(options), ridgeFactory());
  const CampaignResult result = coordinator.run();

  EXPECT_EQ(result.executed, 48u);
  EXPECT_FALSE(result.aborted);
  EXPECT_GE(result.workerCrashes, expectMinCrashes);
  EXPECT_GE(result.reassigned, 1u)
      << "the dead worker's in-flight scenarios ran elsewhere";
  // No respawn assertion: with an instant executor the surviving worker
  // often finishes the whole budget before the respawn backoff expires.
  EXPECT_EQ(readAll(journalPath(dir)), readAll(journalPath(full)))
      << "a worker crash must not change the journal bytes";
}

TEST(FleetChaos, WorkerDeathBeforeShardWriteIsReassignedByteIdentically) {
  // The outcome is lost entirely: not on disk, never framed. The scenario
  // must be re-executed elsewhere.
  auto crashed = std::make_shared<std::atomic<bool>>(false);
  WorkerHooks hooks;
  hooks.crashBeforeShardWrite = [crashed](std::uint64_t test) {
    return test == 5 && !crashed->exchange(true);
  };
  crashRoundTrip(hooks, "before", 1);
}

TEST(FleetChaos, WorkerDeathAfterShardWriteIsReassignedByteIdentically) {
  // The outcome reached the shard but not the coordinator — the duplicate
  // from re-execution is byte-identical, so the shard merge stays
  // idempotent (FleetShards.MergeIsFirstWins covers the fold side).
  auto crashed = std::make_shared<std::atomic<bool>>(false);
  WorkerHooks hooks;
  hooks.crashAfterShardWrite = [crashed](std::uint64_t test) {
    return test == 5 && !crashed->exchange(true);
  };
  crashRoundTrip(hooks, "after", 1);
}

TEST(FleetChaos, RepeatedCrashesExhaustTheRespawnBudgetAndAbort) {
  // Every incarnation dies on its first completed scenario; with a tiny
  // budget the coordinator must abort with partial results instead of
  // spinning forever.
  const std::string dir = scratchDir("budget");
  ThreadFleet fleet;
  FleetOptions options = ridgeFleetOptions(23, 48, 1, dir);
  options.heartbeatMissFactor = 6;
  options.maxWorkerRespawns = 2;
  options.respawnBackoffBaseMs = 10;
  WorkerHooks hooks;
  hooks.crashBeforeShardWrite = [](std::uint64_t) { return true; };
  options.launcher = fleet.launcher(ridgeWorkerFactory(), hooks);
  FleetCoordinator coordinator(std::move(options), ridgeFactory());
  const CampaignResult result = coordinator.run();
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.respawns, 2u);
  EXPECT_GE(result.workerCrashes, 3u) << "initial launch + two respawns";
  EXPECT_LT(result.executed, 48u);
}

TEST(FleetChaos, OutOfRangeImpactIsAFailedScenarioNotADeadWorker) {
  // An impact outside [0, 1] or a NaN latency would fail the coordinator's
  // decode of the outcome frame, kill the worker and reassign the point
  // until the respawn budget is gone. The worker reports a failed scenario
  // instead.
  class OutOfRange final : public core::ScenarioExecutor {
   public:
    core::Outcome execute(const core::Point& point) override {
      core::Outcome outcome = inner_.execute(point);
      if ((point[0] + point[1]) % 3 == 0) outcome.impact = 1.5;
      if ((point[0] + point[1]) % 3 == 1) {
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
  const std::string dir = scratchDir("out_of_range");
  ThreadFleet fleet;
  FleetOptions options = ridgeFleetOptions(11, 40, 2, dir);
  options.launcher = fleet.launcher([](const std::string&, std::uint64_t) {
    return std::make_unique<OutOfRange>();
  });
  FleetCoordinator coordinator(std::move(options), ridgeFactory());
  const CampaignResult result = coordinator.run();
  EXPECT_EQ(result.executed, 40u);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.workerCrashes, 0u);
  EXPECT_GT(result.failed, 0u);
  EXPECT_LE(result.maxImpact, 1.0);
  const std::string journal = readAll(journalPath(dir));
  EXPECT_NE(journal.find("executor returned impact 1.5 outside [0, 1]"),
            std::string::npos);
  EXPECT_NE(journal.find("executor returned avgLatencySec nan outside [0, inf)"),
            std::string::npos);
}

// --- coordinator kill + resume -----------------------------------------------

/// Counts executions so resume tests can prove shard-recovered outcomes are
/// folded, not re-executed.
class CountingRidgeExecutor final : public core::ScenarioExecutor {
 public:
  explicit CountingRidgeExecutor(std::shared_ptr<std::atomic<std::size_t>> n)
      : executions_(std::move(n)) {}
  core::Outcome execute(const core::Point& point) override {
    executions_->fetch_add(1);
    return inner_.execute(point);
  }
  const core::Hyperspace& space() const noexcept override {
    return inner_.space();
  }

 private:
  RidgeExecutor inner_;
  std::shared_ptr<std::atomic<std::size_t>> executions_;
};

TEST(FleetResume, CoordinatorKillResumesByteIdenticallyFromShards) {
  // Reference: uninterrupted run.
  const std::string full = scratchDir("resume_full");
  {
    ThreadFleet fleet;
    FleetOptions options = ridgeFleetOptions(31, 48, 2, full);
    options.launcher = fleet.launcher(ridgeWorkerFactory());
    FleetCoordinator coordinator(std::move(options), ridgeFactory());
    coordinator.run();
  }

  // "Kill" a second identical run by truncating its journal mid-line while
  // keeping its shards — exactly the on-disk state a kill -9 of the
  // coordinator leaves (the shards always hold at least every folded
  // outcome, because workers append before framing).
  const std::string dir = scratchDir("resume_cut");
  {
    ThreadFleet fleet;
    FleetOptions options = ridgeFleetOptions(31, 48, 2, dir);
    options.launcher = fleet.launcher(ridgeWorkerFactory());
    FleetCoordinator coordinator(std::move(options), ridgeFactory());
    coordinator.run();
  }
  const std::string journal = readAll(journalPath(dir));
  writeAll(journalPath(dir), journal.substr(0, cutOffset(journal, 25, 17)));

  auto executions = std::make_shared<std::atomic<std::size_t>>(0);
  const WorkerExecutorFactory counting =
      [executions](const std::string&, std::uint64_t) {
        return std::make_unique<CountingRidgeExecutor>(executions);
      };
  ThreadFleet fleet;
  FleetOptions options;
  options.campaign.outDir = dir;
  options.launcher = fleet.launcher(counting);
  FleetCoordinator coordinator(std::move(options), ridgeFactory());
  const CampaignResult resumed = coordinator.resume();

  EXPECT_EQ(resumed.executed, 48u);
  EXPECT_FALSE(resumed.aborted);
  EXPECT_EQ(readAll(journalPath(dir)), readAll(journalPath(full)))
      << "resumed journal must be byte-identical to the uninterrupted run";
  EXPECT_EQ(executions->load(), 0u)
      << "every outcome was in the shards; resume must fold, not re-execute";
}

TEST(FleetResume, MissingShardsAreReExecutedNotFatal) {
  const std::string full = scratchDir("noshard_full");
  {
    ThreadFleet fleet;
    FleetOptions options = ridgeFleetOptions(31, 32, 2, full);
    options.launcher = fleet.launcher(ridgeWorkerFactory());
    FleetCoordinator coordinator(std::move(options), ridgeFactory());
    coordinator.run();
  }

  const std::string dir = scratchDir("noshard_cut");
  {
    ThreadFleet fleet;
    FleetOptions options = ridgeFleetOptions(31, 32, 2, dir);
    options.launcher = fleet.launcher(ridgeWorkerFactory());
    FleetCoordinator coordinator(std::move(options), ridgeFactory());
    coordinator.run();
  }
  const std::string journal = readAll(journalPath(dir));
  writeAll(journalPath(dir), journal.substr(0, cutOffset(journal, 12, 0)));
  removeShards(dir);  // the whole recovery channel is gone

  ThreadFleet fleet;
  FleetOptions options;
  options.campaign.outDir = dir;
  options.launcher = fleet.launcher(ridgeWorkerFactory());
  FleetCoordinator coordinator(std::move(options), ridgeFactory());
  const CampaignResult resumed = coordinator.resume();
  EXPECT_EQ(resumed.executed, 32u);
  EXPECT_EQ(readAll(journalPath(dir)), readAll(journalPath(full)));
}

TEST(FleetResume, SingleProcessDirectoryIsRejected) {
  const std::string dir = scratchDir("wrong_mode");
  CampaignOptions options;
  options.totalTests = 8;
  options.outDir = dir;
  CampaignRunner(ridgeFactory(), options).run();  // writes mode="process"

  ThreadFleet fleet;
  FleetOptions fleetOptions;
  fleetOptions.campaign.outDir = dir;
  fleetOptions.launcher = fleet.launcher(ridgeWorkerFactory());
  FleetCoordinator coordinator(std::move(fleetOptions), ridgeFactory());
  EXPECT_THROW(coordinator.resume(), std::runtime_error);
}

// --- wedge containment -------------------------------------------------------

TEST(FleetWedge, WedgedScenarioIsKilledAndFoldedAsTimedOut) {
  // Discover the deterministic first point for this seed, then wedge every
  // executor on exactly that point. wedgeKillLimit=1 folds it as timed out
  // after the first kill instead of re-wedging another worker.
  core::Point wedgePoint;
  {
    RidgeExecutor probe;
    core::Controller controller(probe, core::defaultPlugins(probe.space()),
                                core::ControllerOptions{}, 41);
    wedgePoint = controller.acquireScenario().point;
  }
  const WorkerExecutorFactory sleepyOnPoint =
      [wedgePoint](const std::string&, std::uint64_t) {
        class Sleepy final : public core::ScenarioExecutor {
         public:
          explicit Sleepy(core::Point wedge) : wedge_(std::move(wedge)) {}
          core::Outcome execute(const core::Point& point) override {
            if (point == wedge_) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1500));
            }
            return inner_.execute(point);
          }
          const core::Hyperspace& space() const noexcept override {
            return inner_.space();
          }

         private:
          RidgeExecutor inner_;
          core::Point wedge_;
        };
        return std::make_unique<Sleepy>(wedgePoint);
      };

  ThreadFleet fleet;
  FleetOptions options = ridgeFleetOptions(41, 24, 2, "");
  options.campaign.scenarioTimeoutMs = 150;
  options.wedgeKillLimit = 1;
  options.launcher = fleet.launcher(sleepyOnPoint);
  FleetCoordinator coordinator(std::move(options), ridgeFactory());
  const CampaignResult result = coordinator.run();

  EXPECT_EQ(result.executed, 24u);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.timedOut, 1u) << "the wedged scenario folds as timed out";
  EXPECT_GE(result.workerCrashes, 1u) << "the wedged worker was killed";
  // No respawn assertion: the healthy worker usually drains the remaining
  // budget before the killed slot's backoff expires.
}

// --- graceful drain ----------------------------------------------------------

TEST(FleetDrain, DrainStopsEarlyWithAPrefixJournalThatResumesToTheFullRun) {
  const std::string full = scratchDir("drain_full");
  {
    ThreadFleet fleet;
    FleetOptions options = ridgeFleetOptions(53, 48, 2, full);
    options.launcher = fleet.launcher(ridgeWorkerFactory());
    FleetCoordinator coordinator(std::move(options), ridgeFactory());
    coordinator.run();
  }

  // Thread workers share the address space, so the executor itself can
  // pull the drain cord (standing in for the SIGTERM handler) mid-run.
  const std::string dir = scratchDir("drain_cut");
  std::atomic<bool> drain{false};
  auto seen = std::make_shared<std::atomic<std::size_t>>(0);
  const WorkerExecutorFactory draining =
      [&drain, seen](const std::string&, std::uint64_t) {
        class Draining final : public core::ScenarioExecutor {
         public:
          Draining(std::atomic<bool>* flag,
                   std::shared_ptr<std::atomic<std::size_t>> seen)
              : flag_(flag), seen_(std::move(seen)) {}
          core::Outcome execute(const core::Point& point) override {
            if (seen_->fetch_add(1) + 1 >= 10) flag_->store(true);
            return inner_.execute(point);
          }
          const core::Hyperspace& space() const noexcept override {
            return inner_.space();
          }

         private:
          RidgeExecutor inner_;
          std::atomic<bool>* flag_;
          std::shared_ptr<std::atomic<std::size_t>> seen_;
        };
        return std::make_unique<Draining>(&drain, seen);
      };
  {
    ThreadFleet fleet;
    FleetOptions options = ridgeFleetOptions(53, 48, 2, dir);
    options.drainFlag = &drain;
    options.launcher = fleet.launcher(draining);
    FleetCoordinator coordinator(std::move(options), ridgeFactory());
    const CampaignResult result = coordinator.run();
    EXPECT_GE(result.executed, 10u);
    EXPECT_LT(result.executed, 48u) << "drained well before the budget";
    EXPECT_FALSE(result.aborted);
  }
  const std::string fullJournal = readAll(journalPath(full));
  const std::string drained = readAll(journalPath(dir));
  ASSERT_LT(drained.size(), fullJournal.size());
  EXPECT_EQ(drained, fullJournal.substr(0, drained.size()))
      << "a drained journal is a canonical prefix of the full run's";

  // And the drained directory resumes to the byte-identical full journal.
  ThreadFleet fleet;
  FleetOptions options;
  options.campaign.outDir = dir;
  options.launcher = fleet.launcher(ridgeWorkerFactory());
  FleetCoordinator coordinator(std::move(options), ridgeFactory());
  const CampaignResult resumed = coordinator.resume();
  EXPECT_EQ(resumed.executed, 48u);
  EXPECT_EQ(readAll(journalPath(dir)), fullJournal);
}

// --- connect phase -----------------------------------------------------------

/// Runs an 8-test campaign with one spawned slot and no respawn budget,
/// whose launcher hands the slot to `peer` (on a thread, over a socketpair)
/// instead of a worker. Returns the result, or nullopt when run() was still
/// going after 3 s; `stop` turns true once that wait is over, and the peer
/// then hangs up so run() returns either way.
std::optional<CampaignResult> runAgainstPeer(
    const std::function<void(int fd, const std::atomic<bool>& stop)>& peer) {
  FleetOptions options = ridgeFleetOptions(71, 8, 1, "");
  options.heartbeatMs = 20;
  options.heartbeatMissFactor = 5;
  options.spawnGraceMs = 100;
  options.maxWorkerRespawns = 0;
  std::atomic<bool> stop{false};
  std::vector<std::thread> peers;
  options.launcher = [&](std::size_t) -> std::optional<util::SpawnedProcess> {
    const auto fds = util::socketPair();
    if (!fds) return std::nullopt;
    peers.emplace_back([&peer, &stop, fd = (*fds)[1]] {
      peer(fd, stop);
      util::closeFd(fd);
    });
    return util::SpawnedProcess{-1, (*fds)[0]};
  };
  FleetCoordinator coordinator(std::move(options), ridgeFactory());
  std::future<CampaignResult> running = std::async(
      std::launch::async, [&coordinator] { return coordinator.run(); });
  const bool finished = running.wait_for(std::chrono::seconds(3)) ==
                        std::future_status::ready;
  stop = true;
  CampaignResult result = running.get();
  for (std::thread& thread : peers) thread.join();
  if (!finished) return std::nullopt;
  return result;
}

TEST(FleetConnect, HeartbeatsWithoutAHelloDoNotHoldTheSlot) {
  // The peer beats every 20 ms and never says hello. Its first frame
  // closes the slot, and with no respawn budget the campaign aborts.
  const auto result = runAgainstPeer([](int fd, const std::atomic<bool>& stop) {
    // A heartbeat frame that every coordinator revision accepts from an
    // active worker.
    const std::string beat =
        "{\"event\":\"heartbeat\",\"busyTest\":0,\"busyMs\":0}";
    while (!stop && util::writeFrame(fd, beat)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  ASSERT_TRUE(result.has_value())
      << "a peer that never said hello still held its slot after 3 s";
  EXPECT_TRUE(result->aborted);
  EXPECT_EQ(result->executed, 0u);
}

TEST(FleetConnect, HelloOfAnotherProtocolVersionGetsNoWelcome) {
  std::atomic<bool> welcomed{false};
  const auto result =
      runAgainstPeer([&welcomed](int fd, const std::atomic<bool>&) {
        if (!util::writeFrame(fd, "{\"event\":\"hello\",\"version\":2}")) {
          return;
        }
        const auto reply = util::readFrame(fd);
        welcomed = reply && kindOf(*reply) == MessageKind::kWelcome;
      });
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(welcomed.load()) << "a version-2 hello was welcomed";
  EXPECT_TRUE(result->aborted);
}

// --- remote TCP workers ------------------------------------------------------

TEST(FleetTcp, RemoteWorkerConnectsOverLoopbackAndCompletesTheCampaign) {
  FleetOptions options = ridgeFleetOptions(61, 16, 0, "");
  options.remoteSlots = 1;
  options.batch = 4;
  FleetCoordinator coordinator(std::move(options), ridgeFactory());
  const std::uint16_t port = coordinator.listenPort();
  ASSERT_NE(port, 0);

  std::thread worker([port] {
    const auto fd = util::connectTcp("127.0.0.1", port);
    ASSERT_TRUE(fd.has_value());
    EXPECT_EQ(runWorker(*fd, ridgeWorkerFactory()), kWorkerExitClean)
        << "the coordinator shuts remote workers down with a frame";
  });
  const CampaignResult result = coordinator.run();
  worker.join();
  EXPECT_EQ(result.executed, 16u);
  EXPECT_FALSE(result.aborted);
}

TEST(FleetTcp, OutcomeForATestTheWorkerDoesNotHoldIsNotFolded) {
  // A rogue peer says hello, takes its assignment, reports a forged outcome
  // for the next test and hangs up. An honest worker then connects and
  // finishes the campaign.
  FleetOptions options = ridgeFleetOptions(65, 16, 0, "");
  options.remoteSlots = 2;
  options.batch = 4;
  FleetCoordinator coordinator(std::move(options), ridgeFactory());
  const std::uint16_t port = coordinator.listenPort();
  ASSERT_NE(port, 0);

  std::thread peers([port] {
    const auto rogue = util::connectTcp("127.0.0.1", port);
    ASSERT_TRUE(rogue.has_value());
    EXPECT_TRUE(util::writeFrame(*rogue, encodeHello(Hello{})));
    std::optional<Assign> held;
    while (!held) {
      const auto frame = util::readFrame(*rogue);
      if (!frame) break;
      if (kindOf(*frame) == MessageKind::kAssign) held = decodeAssign(*frame);
    }
    EXPECT_TRUE(held.has_value());
    DoneEvent forged;
    forged.test = held ? held->test + 1 : 1;
    forged.outcome.impact = 1.0;
    forged.outcome.viewChanges = 7;  // RidgeExecutor never reports one
    EXPECT_TRUE(util::writeFrame(*rogue, encodeDone(forged)));
    util::closeFd(*rogue);

    const auto honest = util::connectTcp("127.0.0.1", port);
    ASSERT_TRUE(honest.has_value());
    EXPECT_EQ(runWorker(*honest, ridgeWorkerFactory()), kWorkerExitClean);
  });
  const CampaignResult result = coordinator.run();
  peers.join();
  EXPECT_EQ(result.executed, 16u);
  EXPECT_FALSE(result.aborted);
  RidgeExecutor reference;
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    const core::TestRecord& record = result.history[i];
    const core::Outcome expected = reference.execute(record.point);
    EXPECT_EQ(record.outcome.impact, expected.impact) << "test " << i + 1;
    EXPECT_EQ(record.outcome.viewChanges, expected.viewChanges)
        << "test " << i + 1;
  }
}

TEST(FleetTcp, ListenTcpHonorsExplicitBindAddressAndRejectsGarbage) {
  const auto listener = util::listenTcp(0, "127.0.0.1");
  ASSERT_TRUE(listener.has_value());
  ASSERT_NE(listener->port, 0);
  const auto client = util::connectTcp("127.0.0.1", listener->port);
  ASSERT_TRUE(client.has_value());
  const auto accepted = util::acceptTcp(listener->fd);
  EXPECT_TRUE(accepted.has_value());
  util::closeFd(*client);
  if (accepted) util::closeFd(*accepted);
  util::closeFd(listener->fd);

  EXPECT_FALSE(util::listenTcp(0, "not-an-address").has_value());
  EXPECT_FALSE(util::listenTcp(0, "256.1.1.1").has_value());
  EXPECT_FALSE(util::listenTcp(0, "").has_value());
}

TEST(FleetTcp, CoordinatorBindsTheConfiguredAddressAndPort) {
  // Reserve a free port, release it, then ask the coordinator for exactly
  // that 127.0.0.1:PORT (SO_REUSEADDR makes the immediate rebind safe).
  const auto probe = util::listenTcp(0, "127.0.0.1");
  ASSERT_TRUE(probe.has_value());
  const std::uint16_t port = probe->port;
  util::closeFd(probe->fd);

  FleetOptions options = ridgeFleetOptions(62, 8, 0, "");
  options.remoteSlots = 1;
  options.bindAddr = "127.0.0.1";
  options.bindPort = port;
  FleetCoordinator coordinator(std::move(options), ridgeFactory());
  ASSERT_EQ(coordinator.listenPort(), port);

  std::thread worker([port] {
    const auto fd = util::connectTcp("127.0.0.1", port);
    ASSERT_TRUE(fd.has_value());
    EXPECT_EQ(runWorker(*fd, ridgeWorkerFactory()), kWorkerExitClean);
  });
  const CampaignResult result = coordinator.run();
  worker.join();
  EXPECT_EQ(result.executed, 8u);
  EXPECT_FALSE(result.aborted);
}

TEST(FleetTcp, UnbindableAddressFailsConstructionLoudly) {
  FleetOptions options = ridgeFleetOptions(63, 8, 0, "");
  options.remoteSlots = 1;
  options.bindAddr = "203.0.113.1";  // TEST-NET-3: never a local interface
  EXPECT_THROW(FleetCoordinator(std::move(options), ridgeFactory()),
               std::runtime_error);
}

TEST(FleetTcp, UnbindableAddressFailsResumeLoudly) {
  // The manifest records one remote slot, so resume() must bind a listener
  // the constructor (no remote slots of its own) never opened.
  const std::string dir = scratchDir("resume_unbindable");
  Manifest manifest;
  manifest.system = "ridge";
  manifest.seed = 64;
  manifest.totalTests = 8;
  manifest.workers = 2;
  manifest.spawn = 1;
  manifest.mode = "fleet";
  manifest.batch = 1;
  manifest.heartbeatMs = 50;
  ASSERT_TRUE(writeManifest(dir, manifest));
  writeAll(journalPath(dir), "");

  ThreadFleet fleet;
  FleetOptions options;
  options.campaign.outDir = dir;
  options.bindAddr = "203.0.113.1";  // TEST-NET-3: never a local interface
  options.spawnGraceMs = 200;
  options.launcher = fleet.launcher(ridgeWorkerFactory());
  FleetCoordinator coordinator(std::move(options), ridgeFactory());
  EXPECT_THROW(coordinator.resume(), std::runtime_error);
}

}  // namespace
}  // namespace avd::campaign::fleet
