// avd_perfbench — the campaign benchmark's measuring program.
//
//   avd_perfbench run --workload NAME --seed S --seconds T --trace 0|1
//                     --dir DIR
//       Runs the workload's seeded campaigns, as many as fill about T
//       seconds, through CampaignRunner::run or FleetCoordinator::run (the
//       entry points avd_cli uses) and prints one JSON object per line: a
//       "campaign" record per campaign, a "unit" record per set of
//       campaigns, "setup" records from set-up probes and, at the end, a
//       "done" record. The first campaign then runs again, untimed, so its
//       journal can be compared. With --trace 1 it runs the first half of
//       the campaigns untraced and then traced, probes single layers,
//       prints "probe" records and writes every span to DIR/spans.jsonl at
//       exit. perfbench/run.py turns these records into metrics; the
//       arithmetic lives there.
//
//   avd_perfbench campaign --workload NAME --seed S --dir DIR
//       Runs only the workload's first campaign into DIR and prints the
//       avd_cli flags that must write the same journal (parity test).
//
//   avd_perfbench fleet-worker DIR TRACE LAUNCH_NS
//       Worker process for the quorum-fleet workload (spawned by `run`).
//
// Everything is timed from outside the program: a ScenarioExecutor wrapper
// around the executor the campaign calls, a link-time wrapper around
// fsync(2), and direct calls into public APIs. Nothing under src/ is
// instrumented.
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "avd/controller.h"
#include "avd/pbft_executor.h"
#include "avd/quorum_executor.h"
#include "campaign/dedup.h"
#include "campaign/fleet/coordinator.h"
#include "campaign/fleet/protocol.h"
#include "campaign/fleet/worker.h"
#include "campaign/journal.h"
#include "campaign/runner.h"
#include "common/framing.h"
#include "common/hash.h"
#include "common/proc.h"
#include "crypto/authenticator.h"
#include "crypto/keychain.h"
#include "pbft/deployment.h"
#include "sim/simulator.h"

using namespace avd;

namespace {

// steady_clock is CLOCK_MONOTONIC on Linux, so timestamps taken in the
// coordinator and in its worker processes are comparable.
std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double medianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

// ---------------------------------------------------------------------------
// fsync accounting. avd_perfbench is linked with -Wl,--wrap=fsync
// (perfbench/CMakeLists.txt), so every fsync(2) the campaign code makes in
// this process comes through __wrap_fsync, which makes the call unchanged
// and notes its interval. That splits a set-up into the time it waits for
// the disk and the rest.

std::mutex gFsyncMutex;
std::vector<std::pair<std::int64_t, std::int64_t>> gFsyncs;

}  // namespace

extern "C" int __real_fsync(int fd);
extern "C" int __wrap_fsync(int fd) {
  const std::int64_t start = nowNs();
  const int result = __real_fsync(fd);
  const std::int64_t end = nowNs();
  const std::lock_guard<std::mutex> lock(gFsyncMutex);
  gFsyncs.emplace_back(start, end);
  return result;
}

namespace {

/// A campaign's set-up: from its start to its first execute() call, and
/// the fsync calls made in that interval.
struct SetupTime {
  double seconds = 0.0;
  double fsyncSeconds = 0.0;
  std::uint64_t fsyncs = 0;
};

/// Forgets the fsync calls made so far; call at the start of a set-up.
void resetFsyncs() {
  const std::lock_guard<std::mutex> lock(gFsyncMutex);
  gFsyncs.clear();
}

/// The set-up [start, firstExec), where resetFsyncs() was called just
/// before `start`.
SetupTime setupTime(std::int64_t start, std::int64_t firstExec) {
  SetupTime setup;
  setup.seconds = seconds(firstExec - start);
  const std::lock_guard<std::mutex> lock(gFsyncMutex);
  for (const auto& [from, to] : gFsyncs) {
    if (from >= firstExec) continue;
    setup.fsyncSeconds += seconds(std::min(to, firstExec) - from);
    ++setup.fsyncs;
  }
  return setup;
}

// ---------------------------------------------------------------------------
// Executors. The option blocks are copied from makeExecutor in
// tools/avd_cli.cpp (they live only there); the parity test in
// perfbench/test_perfbench.py keeps the copy faithful by comparing journals.

std::unique_ptr<core::ScenarioExecutor> makeExecutor(
    const std::string& system, std::uint64_t seed) {
  if (system == "pbft" || system == "pbft-churn") {
    core::PbftExecutorOptions options;
    options.pbft.requestTimeout = sim::msec(400);
    options.pbft.viewChangeTimeout = sim::msec(400);
    options.clientRetx = sim::msec(100);
    options.link = sim::LinkModel{sim::msec(5), sim::usec(500)};
    options.warmup = sim::msec(400);
    options.measure = sim::msec(3000);
    options.baseSeed = seed;
    return std::make_unique<core::PbftAttackExecutor>(
        system == "pbft" ? core::makePaperMacHyperspace()
                         : core::makeChurnHyperspace(),
        options);
  }
  if (system == "pbft-flood") {
    core::PbftExecutorOptions options = core::makeFloodExecutorOptions(false);
    options.baseSeed = seed;
    return std::make_unique<core::PbftAttackExecutor>(
        core::makeFloodHyperspace(), options);
  }
  if (system == "quorum") {
    core::QuorumExecutorOptions options;
    options.baseSeed = seed;
    return std::make_unique<core::QuorumApiExecutor>(
        core::makeQuorumApiHyperspace(), options);
  }
  throw std::runtime_error("unknown system '" + system + "'");
}

// ---------------------------------------------------------------------------
// Workloads. A run is `campaigns` campaigns of `tests` scenarios each,
// seeded seed*100 + i, where `campaigns` fills about 85% of the
// run's --seconds at `secondsPerCampaign` (measured on a 4-core x86 VM).
// One campaign's cost depends on the region its hill climb settles in and
// varies 2x across seeds, so a run averages over many short campaigns; the
// same seed and --seconds always give the same campaigns.

struct Workload {
  const char* name;
  const char* system;
  bool fleet;
  double secondsPerCampaign;
  std::size_t tests;
  std::size_t campaigns = 0;  // resolved from --seconds
};

constexpr Workload kWorkloads[] = {
    {"pbft-mac", "pbft", false, 3.0, 10},
    {"pbft-churn", "pbft-churn", false, 1.15, 20},
    {"quorum-fleet", "quorum", true, 1.0, 40},
    {"pbft-flood", "pbft-flood", false, 2.0, 10},
};

/// Set-up samples per serial run, from campaigns that end at their first
/// execute() call (fleet runs have enough campaigns to sample set-up).
constexpr std::size_t kSetupProbes = 128;

constexpr std::size_t kFleetSpawn = 2;
constexpr std::size_t kFleetBatch = 4;

const Workload* findWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

std::uint64_t campaignSeed(std::uint64_t seed, std::size_t index) {
  return seed * 100 + index;
}

// ---------------------------------------------------------------------------
// Spans, kept in memory and written once at exit.

struct Span {
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t parent = -1;  // index into the same process's spans
  std::uint64_t test = 0;    // scenario test number, 0 when none
  std::uint64_t pointKey = 0;
};

struct Trace {
  bool on = false;
  std::vector<Span> spans;

  std::int64_t add(Span span) {
    spans.push_back(std::move(span));
    return static_cast<std::int64_t>(spans.size()) - 1;
  }
};

std::uint64_t pointKey(const core::Point& point) {
  std::uint64_t key = 0x51ed27;
  for (const std::uint64_t value : point) key = util::hashCombine(key, value);
  return key;
}

/// What one executor instance observed.
struct ExecStats {
  std::int64_t firstExecNs = 0;
  std::uint64_t scenarios = 0;
};

/// Wraps the executor a campaign calls. Untraced it only notes the first
/// call, which ends the campaign's set-up. Traced it also records an
/// "execute" span per scenario and computes the population's baseline
/// first, so baseline runs get their own span; the wrapped execute() then
/// hits the baseline cache, and outcomes are unchanged.
class TimedExecutor final : public core::ScenarioExecutor {
 public:
  TimedExecutor(std::unique_ptr<core::ScenarioExecutor> inner,
                ExecStats* stats, Trace* trace, std::int64_t parent,
                bool serial, bool setupProbe = false)
      : inner_(std::move(inner)), stats_(stats), trace_(trace),
        parent_(parent), serial_(serial), setupProbe_(setupProbe) {}

  core::Outcome execute(const core::Point& point) override {
    const std::int64_t start = nowNs();
    if (stats_->firstExecNs == 0) stats_->firstExecNs = start;
    // A set-up probe has measured what it came for; the campaign records
    // the scenario as failed and ends.
    if (setupProbe_) throw std::runtime_error("set-up probe");
    ++stats_->scenarios;
    if (!trace_->on) return inner_->execute(point);
    // A serial campaign executes in test order; fleet spans are numbered
    // from the journal afterwards.
    const std::uint64_t test = serial_ ? stats_->scenarios : 0;
    const std::uint64_t key = pointKey(point);
    const std::int64_t span =
        trace_->add({"execute", start, 0, parent_, test, key});
    runBaseline(point, span, test);
    const std::int64_t attackStart = nowNs();
    core::Outcome outcome = inner_->execute(point);
    const std::int64_t end = nowNs();
    trace_->add({"attack", attackStart, end, span, test, key});
    trace_->spans[static_cast<std::size_t>(span)].end = end;
    return outcome;
  }

  const core::Hyperspace& space() const noexcept override {
    return inner_->space();
  }

 private:
  void runBaseline(const core::Point& point, std::int64_t parent,
                   std::uint64_t test) {
    bool miss = false;
    const std::int64_t start = nowNs();
    if (auto* pbftExec =
            dynamic_cast<core::PbftAttackExecutor*>(inner_.get())) {
      const pbft::DeploymentConfig config = pbftExec->buildConfig(point);
      miss = populations_
                 .insert({config.correctClients, config.maliciousClients})
                 .second;
      (void)pbftExec->baselineFor(config.correctClients,
                                  config.maliciousClients);
    } else if (auto* quorumExec =
                   dynamic_cast<core::QuorumApiExecutor*>(inner_.get())) {
      miss = populations_.insert({0, 0}).second;
      (void)quorumExec->baselineOps();
    }
    if (miss) {
      trace_->add({"baseline", start, nowNs(), parent, test, pointKey(point)});
    }
  }

  std::unique_ptr<core::ScenarioExecutor> inner_;
  ExecStats* stats_;
  Trace* trace_;
  std::int64_t parent_;
  bool serial_;
  bool setupProbe_;
  std::set<std::pair<std::uint32_t, std::uint32_t>> populations_;
};

// ---------------------------------------------------------------------------
// JSON output.

class Record {
 public:
  explicit Record(const char* type)
      : text_("{\"type\": \"" + std::string(type) + "\"") {}
  Record& num(const char* key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return raw(key, buffer);
  }
  Record& integer(const char* key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  Record& str(const char* key, const std::string& value) {
    return raw(key, "\"" + value + "\"");
  }
  void print() const {
    std::printf("%s}\n", text_.c_str());
    std::fflush(stdout);
  }

 private:
  Record& raw(const char* key, const std::string& value) {
    text_ += ", \"" + std::string(key) + "\": " + value;
    return *this;
  }
  std::string text_;
};

std::string hex64(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Peak resident set of this process image, from /proc/self/status.
/// getrusage's ru_maxrss is not used: it keeps the high-water mark of the
/// process that forked and exec'd this one.
long peakRssKb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

/// Removes a campaign directory left by an earlier run and flushes the file
/// system that will hold it, so that the set-up about to be timed pays for
/// its own fsync calls and not for what earlier campaigns left dirty.
void prepareCampaignDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  const std::string parent = std::filesystem::path(dir).parent_path().string();
  std::filesystem::create_directories(parent);
  const int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open '" + parent + "'");
  const bool synced = ::syncfs(fd) == 0;
  util::closeFd(fd);
  if (!synced) throw std::runtime_error("syncfs failed on '" + parent + "'");
}

/// Highest peak resident set reported by any fleet worker so far.
long gWorkerPeakRssKb = 0;

// ---------------------------------------------------------------------------
// One campaign.

struct CampaignRun {
  std::string dir;
  std::uint64_t seed = 0;
  SetupTime setup;
  double wallS = 0.0;  // first execute() to the end of run()
  campaign::CampaignResult result;
  std::string journalDigest;
  std::vector<double> spawnS;  // fleet: launch to first execute, per worker
  std::size_t workers = 1;     // processes executing scenarios
};

/// Worker record written by a fleet worker at exit and read back by the
/// coordinator: one header line, then one line per span.
void writeWorkerRecord(const std::string& dir, std::int64_t launchNs,
                       const ExecStats& stats, const Trace& trace) {
  std::ofstream out(dir + "/worker-" + std::to_string(::getpid()) + ".txt");
  out << launchNs << ' ' << stats.firstExecNs << ' ' << peakRssKb() << '\n';
  for (const Span& span : trace.spans) {
    out << span.name << ' ' << span.start << ' ' << span.end << ' '
        << span.parent << ' ' << span.pointKey << '\n';
  }
}

/// Reads the worker records of one fleet campaign; merges their spans
/// into `trace` under `parent`, numbering scenarios from the journal.
/// Returns the earliest first execute() across workers.
std::int64_t readWorkerRecords(CampaignRun& run, Trace& trace,
                               std::int64_t parent) {
  std::map<std::uint64_t, std::uint64_t> testOf;
  if (trace.on) {
    if (const auto journal =
            campaign::loadJournal(campaign::journalPath(run.dir))) {
      for (const campaign::JournalEvent& event : journal->events) {
        if (event.kind == campaign::JournalEvent::Kind::kGen) {
          testOf[pointKey(event.gen.point)] = event.gen.test;
        }
      }
    }
  }
  std::int64_t firstExec = 0;
  for (const auto& entry : std::filesystem::directory_iterator(run.dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("worker-", 0) != 0) continue;
    std::ifstream in(entry.path());
    std::int64_t launchNs = 0;
    std::int64_t firstExecNs = 0;
    long peakKb = 0;
    in >> launchNs >> firstExecNs >> peakKb;
    gWorkerPeakRssKb = std::max(gWorkerPeakRssKb, peakKb);
    if (firstExecNs > 0) {
      firstExec =
          firstExec == 0 ? firstExecNs : std::min(firstExec, firstExecNs);
      run.spawnS.push_back(seconds(firstExecNs - launchNs));
    }
    const std::int64_t base = static_cast<std::int64_t>(trace.spans.size());
    Span span;
    while (in >> span.name >> span.start >> span.end >> span.parent >>
           span.pointKey) {
      span.parent = span.parent < 0 ? parent : base + span.parent;
      const auto it = testOf.find(span.pointKey);
      span.test = it == testOf.end() ? 0 : it->second;
      trace.spans.push_back(span);
    }
  }
  return firstExec;
}

CampaignRun runCampaign(const Workload& workload, std::uint64_t seed,
                        const std::string& dir, Trace& trace,
                        std::int64_t parent) {
  CampaignRun run;
  run.dir = dir;
  run.seed = seed;
  prepareCampaignDir(dir);
  const std::string system = workload.system;

  resetFsyncs();
  const std::int64_t start = nowNs();
  const std::int64_t campaignSpan =
      trace.on ? trace.add({"campaign", start, 0, parent, 0, 0}) : -1;
  campaign::CampaignOptions options;
  options.seed = seed;
  options.totalTests = workload.tests;
  options.outDir = dir;
  options.system = system;
  options.checkpointEvery = 16;
  options.dedupMinImpact = 0.5;

  std::int64_t firstExec = 0;
  if (!workload.fleet) {
    ExecStats stats;
    options.workers = 1;
    campaign::CampaignRunner runner(
        [&] {
          return std::make_unique<TimedExecutor>(makeExecutor(system, seed),
                                                 &stats, &trace,
                                                 campaignSpan, true);
        },
        options);
    run.result = runner.run();
    firstExec = stats.firstExecNs;
  } else {
    campaign::fleet::FleetOptions fleetOptions;
    fleetOptions.campaign = options;
    fleetOptions.spawn = kFleetSpawn;
    fleetOptions.batch = kFleetBatch;
    fleetOptions.heartbeatMs = 200;
    fleetOptions.maxWorkerRespawns = 8;
    run.workers = fleetOptions.spawn;
    const std::string traceFlag = trace.on ? "1" : "0";
    fleetOptions.launcher = [dir, traceFlag](std::size_t) {
      return util::spawnWithSocket({util::selfExePath(), "fleet-worker", dir,
                                    traceFlag, std::to_string(nowNs())});
    };
    campaign::fleet::FleetCoordinator coordinator(
        std::move(fleetOptions),
        [system, seed] { return makeExecutor(system, seed); });
    run.result = coordinator.run();
  }
  const std::int64_t end = nowNs();
  if (workload.fleet) firstExec = readWorkerRecords(run, trace, campaignSpan);
  run.setup = setupTime(start, firstExec);
  run.wallS = seconds(end - firstExec);
  if (trace.on) {
    trace.spans[static_cast<std::size_t>(campaignSpan)].end = end;
    trace.add({"setup", start, firstExec, campaignSpan, 0, 0});
  }
  run.journalDigest =
      hex64(util::fnv1a(readFile(campaign::journalPath(dir))));
  return run;
}

/// Test number of the first scenario that enters vulnerability triage.
std::uint64_t firstClassTest(const campaign::CampaignResult& result) {
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    if (result.history[i].outcome.impact >= 0.5) return i + 1;
  }
  return 0;
}

void printCampaign(const CampaignRun& run, std::size_t rep, bool traced,
                   bool timed, std::size_t index, std::size_t budget) {
  std::uint64_t badImpacts = 0;
  std::uint64_t queueDrops = 0;
  std::uint64_t restarts = 0;
  for (const core::TestRecord& record : run.result.history) {
    const double impact = record.outcome.impact;
    if (!(impact >= 0.0 && impact <= 1.0)) ++badImpacts;
    queueDrops += record.outcome.queueDrops;
    restarts += record.outcome.restarts;
  }
  Record("campaign")
      .integer("rep", rep)
      .integer("traced", traced ? 1 : 0)
      .integer("timed", timed ? 1 : 0)
      .integer("index", index)
      .integer("seed", run.seed)
      .num("setup_s", run.setup.seconds)
      .num("setup_fsync_s", run.setup.fsyncSeconds)
      .integer("setup_fsyncs", run.setup.fsyncs)
      .num("wall_s", run.wallS)
      .integer("budget", budget)
      .integer("workers", run.workers)
      .integer("executed", run.result.executed)
      .integer("failed", run.result.failed)
      .integer("timed_out", run.result.timedOut)
      .integer("reassigned", run.result.reassigned)
      .integer("respawns", run.result.respawns)
      .integer("worker_crashes", run.result.workerCrashes)
      .integer("aborted", run.result.aborted ? 1 : 0)
      .integer("bad_impacts", badImpacts)
      .integer("first_class_test", firstClassTest(run.result))
      .integer("queue_drops", queueDrops)
      .integer("restarts", restarts)
      .str("journal", run.journalDigest)
      .print();
  for (const double spawn : run.spawnS) {
    Record("worker").integer("rep", rep).num("spawn_s", spawn).print();
  }
}

/// Runs the first `campaigns` campaigns of the workload's unit once and
/// returns them. Each repetition writes under DIR/r<rep>.
std::vector<CampaignRun> runUnit(const Workload& workload, std::uint64_t seed,
                                 const std::string& dir, std::size_t rep,
                                 std::size_t campaigns, bool timed,
                                 Trace& trace,
                                 const std::function<void(std::size_t)>&
                                     beforeCampaign = {}) {
  const std::int64_t unitSpan =
      trace.on ? trace.add({"unit", nowNs(), 0, -1, 0, 0}) : -1;
  std::vector<CampaignRun> runs;
  std::vector<core::TestRecord> all;
  for (std::size_t i = 0; i < campaigns; ++i) {
    if (beforeCampaign) beforeCampaign(i);
    const std::string campaignDir =
        dir + "/r" + std::to_string(rep) + "/c" + std::to_string(i);
    runs.push_back(runCampaign(workload, campaignSeed(seed, i), campaignDir,
                               trace, unitSpan));
    printCampaign(runs.back(), rep, trace.on, timed, i, workload.tests);
    all.insert(all.end(), runs.back().result.history.begin(),
               runs.back().result.history.end());
  }
  if (trace.on) trace.spans[static_cast<std::size_t>(unitSpan)].end = nowNs();
  const auto probe = makeExecutor(workload.system, seed);
  Record("unit")
      .integer("rep", rep)
      .integer("traced", trace.on ? 1 : 0)
      .integer("timed", timed ? 1 : 0)
      .integer("campaigns", campaigns)
      .integer("classes_union",
               campaign::dedupVulnerabilities(probe->space(), all, 0.5).size())
      .print();
  return runs;
}

// ---------------------------------------------------------------------------
// Layer probes (traced run only).

void printProbe(const char* name, double value) {
  Record("probe").str("name", name).num("value", value).print();
}

/// The simulator heap of pbft-mac's no-attack 250-client deployment
/// (seed 1), which the sim.* probes reproduce: medians over its measure
/// window, sampled every 10 ms, of the live events pending and of the
/// cancelled timers still in the heap, and its cancels per executed event.
/// The traced pbft-mac run reports the live figure as sim.pending_events;
/// the cancel figures were counted with an instrumented build of
/// src/sim/simulator.cpp (perfbench/README.md).
constexpr sim::Time kSimPending = 620;
constexpr sim::Time kSimTombstones = 930;
constexpr sim::Time kSimCancelPercent = 13;

/// Simulator dispatch: schedule + runUntil, per executed event, with
/// kSimPending messages pending, each rescheduling itself after the
/// workloads' 5 ms ± 0.5 ms link delay. With `withCancels`,
/// kSimCancelPercent of events also arm a timer and cancel the one armed
/// before it. A cancelled timer stays in the heap until its time comes, so
/// the timer delay sets how many are there: at kSimPending events per link
/// delay, kTimer keeps kSimTombstones in the heap, all popped during the
/// run. Timed over 3 s of virtual time after a 400 ms warm-up, the
/// deployments' own windows.
double probeDispatchNs(bool withCancels) {
  constexpr sim::Time kLink = sim::msec(5);
  constexpr sim::Time kTimer = kSimTombstones * kLink * 100 /
                               (kSimPending * kSimCancelPercent);
  constexpr sim::Time kWarmup = sim::msec(400);
  constexpr sim::Time kMeasure = sim::msec(3000);
  std::vector<double> samples;
  for (int round = 0; round < 5; ++round) {
    sim::Simulator simulator(1);
    std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
    sim::TimerId armed = 0;
    std::function<void()> message = [&] {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto jitter = static_cast<sim::Time>((lcg >> 33) % 1001);
      simulator.schedule(kLink - sim::usec(500) + jitter, message);
      if (withCancels &&
          static_cast<sim::Time>((lcg >> 20) % 100) < kSimCancelPercent) {
        simulator.cancel(armed);  // id 0 (none armed yet) is a no-op
        armed = simulator.schedule(kTimer, [] {});
      }
    };
    for (sim::Time i = 0; i < kSimPending; ++i) {
      simulator.schedule(kLink * i / kSimPending, message);
    }
    simulator.runUntil(kWarmup);
    const std::uint64_t before = simulator.executedEvents();
    const std::int64_t start = nowNs();
    simulator.runUntil(kWarmup + kMeasure);
    samples.push_back(
        static_cast<double>(nowNs() - start) /
        static_cast<double>(simulator.executedEvents() - before));
  }
  return medianOf(samples);
}

/// Keeps probe results observable so the timed loops are not optimised
/// away.
volatile std::uint64_t gProbeSink = 0;

template <typename Fn>
double probeNs(int calls, Fn&& fn) {
  std::vector<double> samples;
  for (int round = 0; round < 5; ++round) {
    const std::int64_t start = nowNs();
    for (int i = 0; i < calls; ++i) fn(i);
    samples.push_back(static_cast<double>(nowNs() - start) / calls);
  }
  return medianOf(samples);
}

void probeCrypto() {
  const crypto::Keychain keychain(42);
  crypto::MacService macs(0, &keychain);
  std::uint64_t sink = 0;
  printProbe("crypto.mac_ns", probeNs(1000000, [&](int i) {
               sink ^= macs.generate(1, 0x9e3779b97f4a7c15ULL + i);
             }));
  printProbe("crypto.authenticator_ns", probeNs(200000, [&](int i) {
               sink ^= macs.authenticate(0x9e3779b97f4a7c15ULL + i, 4)
                           .tags.front();
             }));
  gProbeSink = sink;
}

/// writeFrame/readFrame echo of an assign-sized frame over a socketpair.
double probeFrameRttUs(const core::Point& point) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  std::thread echo([fd = fds[1]] {
    while (const auto frame = util::readFrame(fd)) {
      if (frame->empty() || !util::writeFrame(fd, *frame)) break;
    }
  });
  const std::string payload =
      campaign::fleet::encodeAssign({123456, point});
  std::vector<double> samples;
  bool echoed = true;
  for (int round = 0; round < 5 && echoed; ++round) {
    constexpr int kTrips = 2000;
    const std::int64_t start = nowNs();
    for (int i = 0; i < kTrips && echoed; ++i) {
      echoed = util::writeFrame(fds[0], payload) &&
               util::readFrame(fds[0]).has_value();
    }
    samples.push_back(static_cast<double>(nowNs() - start) / kTrips / 1e3);
  }
  // An empty frame, or the closed socket, ends the echo thread.
  (void)util::writeFrame(fds[0], "");
  util::closeFd(fds[0]);
  echo.join();
  util::closeFd(fds[1]);
  if (!echoed) throw std::runtime_error("frame echo failed");
  return medianOf(samples);
}

void probeCampaignLayers(const Workload& workload,
                         const std::vector<CampaignRun>& runs,
                         const std::string& dir) {
  // Journal appends: the run's own lines, replayed into a scratch file.
  std::vector<std::string> lines;
  for (const CampaignRun& run : runs) {
    std::istringstream text(readFile(campaign::journalPath(run.dir)));
    for (std::string line; std::getline(text, line);) {
      lines.push_back(line + "\n");
    }
  }
  {
    campaign::JournalWriter writer;
    if (!writer.openFresh(dir + "/journal-replay.jsonl")) {
      throw std::runtime_error("cannot open the journal replay file");
    }
    const std::int64_t start = nowNs();
    for (const std::string& line : lines) {
      if (!writer.append(line)) throw std::runtime_error("append failed");
    }
    printProbe("campaign.journal_append_us",
               static_cast<double>(nowNs() - start) / 1e3 /
                   static_cast<double>(std::max<std::size_t>(lines.size(), 1)));
    (void)writer.close();
  }

  // Dedup and controller replay, per campaign.
  std::vector<double> dedupMs;
  double controllerNs = 0.0;
  std::size_t scenarios = 0;
  for (const CampaignRun& run : runs) {
    const auto executor = makeExecutor(workload.system, run.seed);
    for (int round = 0; round < 3; ++round) {
      const std::int64_t start = nowNs();
      const auto classes = campaign::dedupVulnerabilities(
          executor->space(), run.result.history, 0.5);
      dedupMs.push_back(static_cast<double>(nowNs() - start) / 1e6);
      if (classes.size() != run.result.classes.size()) {
        throw std::runtime_error("dedup replay disagrees with the run");
      }
    }
    const auto journal =
        campaign::loadJournal(campaign::journalPath(run.dir));
    if (!journal) throw std::runtime_error("cannot reload the journal");
    core::Controller controller(*executor,
                                core::defaultPlugins(executor->space()),
                                core::ControllerOptions{}, run.seed);
    const std::int64_t start = nowNs();
    (void)campaign::replayJournal(controller, journal->events);
    controllerNs += static_cast<double>(nowNs() - start);
    scenarios += run.result.executed;
  }
  printProbe("campaign.dedup_ms", medianOf(dedupMs));
  printProbe("avd.controller_us",
             controllerNs / 1e3 /
                 static_cast<double>(std::max<std::size_t>(scenarios, 1)));
}

/// pbft-mac only: deployment-level counts for every executed point, and
/// the event rate of the no-attack 250-client configuration.
void probePbftLayers(const std::vector<CampaignRun>& runs) {
  double events = 0, messages = 0, bytes = 0, viewChanges = 0;
  std::size_t points = 0;
  for (const CampaignRun& run : runs) {
    const auto executor = makeExecutor("pbft", run.seed);
    auto& pbftExec = dynamic_cast<core::PbftAttackExecutor&>(*executor);
    for (const core::TestRecord& record : run.result.history) {
      pbft::Deployment deployment(pbftExec.buildConfig(record.point));
      const pbft::RunResult result = deployment.run();
      events += static_cast<double>(result.eventsExecuted);
      messages += static_cast<double>(result.network.sent);
      bytes += static_cast<double>(result.network.bytesSent);
      viewChanges += static_cast<double>(result.viewChangesInitiated);
      ++points;
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(points, 1));
  printProbe("pbft.events_per_scenario", events / n);
  printProbe("pbft.messages_per_scenario", messages / n);
  printProbe("pbft.bytes_per_scenario", bytes / n);
  printProbe("pbft.view_changes_per_scenario", viewChanges / n);

  // mac_mask index 0 is the empty mask; 250 correct clients is the last
  // index of the client range; one malicious client is index 0. The run is
  // stepped 10 ms at a time (the same events in the same order as run())
  // to sample the live events pending in its measure window.
  const core::Point quiet{0, 24, 0};
  const auto executor = makeExecutor("pbft", runs.front().seed);
  pbft::Deployment deployment(
      dynamic_cast<core::PbftAttackExecutor&>(*executor).buildConfig(quiet));
  const sim::Time warmup = deployment.config().warmup;
  const sim::Time end = warmup + deployment.config().measure;
  std::vector<double> pending;
  const std::int64_t start = nowNs();
  for (sim::Time at = 0; at < end; at += sim::msec(10)) {
    deployment.runFor(std::min(sim::msec(10), end - at));
    if (at >= warmup) {
      pending.push_back(
          static_cast<double>(deployment.simulator().pendingEvents()));
    }
  }
  const double wallS = seconds(nowNs() - start);
  printProbe("pbft.events_per_s",
             static_cast<double>(deployment.simulator().executedEvents()) /
                 wallS);
  printProbe("sim.pending_events", medianOf(pending));
}

void writeSpans(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    const Span& span = trace.spans[i];
    out << "{\"id\": " << i << ", \"name\": \"" << span.name
        << "\", \"start\": " << span.start << ", \"end\": " << span.end
        << ", \"parent\": " << span.parent << ", \"test\": " << span.test
        << "}\n";
  }
}

// ---------------------------------------------------------------------------

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
};

/// The named workload, with its campaign count resolved from --seconds.
Workload resolveWorkload(const RunArgs& args) {
  const Workload* found = findWorkload(args.workload);
  if (found == nullptr) {
    throw std::runtime_error("unknown workload '" + args.workload + "'");
  }
  Workload chosen = *found;
  chosen.campaigns = static_cast<std::size_t>(std::max<long>(
      1, std::lround(0.85 * args.seconds / chosen.secondsPerCampaign)));
  return chosen;
}

/// The workload's first campaign into DIR, untimed, plus the avd_cli flags
/// that should write the same journal (for the parity test).
int cmdCampaign(const RunArgs& args) {
  const Workload workload = resolveWorkload(args);
  Trace trace;
  const std::uint64_t seed = campaignSeed(args.seed, 0);
  const CampaignRun run = runCampaign(workload, seed, args.dir, trace, -1);
  Record("parity")
      .str("system", workload.system)
      .integer("fleet", workload.fleet ? 1 : 0)
      .integer("seed", seed)
      .integer("tests", workload.tests)
      .integer("spawn", kFleetSpawn)
      .integer("batch", kFleetBatch)
      .integer("executed", run.result.executed)
      .print();
  return 0;
}

/// Set-up time of a one-scenario serial campaign that stops at its first
/// execute() call: runner, hyperspace, executor, controller, manifest and
/// journal, exactly as in a real campaign.
SetupTime probeSetup(const Workload& workload, std::uint64_t seed,
                     const std::string& dir) {
  prepareCampaignDir(dir);
  Trace trace;
  ExecStats stats;
  campaign::CampaignOptions options;
  options.seed = seed;
  options.totalTests = 1;
  options.outDir = dir;
  options.system = workload.system;
  const std::string system = workload.system;
  resetFsyncs();
  const std::int64_t start = nowNs();
  campaign::CampaignRunner runner(
      [&] {
        return std::make_unique<TimedExecutor>(
            makeExecutor(system, seed), &stats, &trace, -1, true, true);
      },
      options);
  const campaign::CampaignResult result = runner.run();
  if (result.failed != 1 || stats.firstExecNs == 0) {
    throw std::runtime_error("set-up probe did not reach execute()");
  }
  std::filesystem::remove_all(dir);
  return setupTime(start, stats.firstExecNs);
}

int cmdRun(const RunArgs& args) {
  const Workload chosen = resolveWorkload(args);
  const Workload* workload = &chosen;
  std::filesystem::create_directories(args.dir);
  Trace trace;

  if (!args.trace) {
    // Serial runs spread their set-up probes between the campaigns, so the
    // median sees the whole run rather than one moment of it.
    const std::size_t probesPerCampaign =
        workload->fleet ? 0
                        : (kSetupProbes + workload->campaigns - 1) /
                              workload->campaigns;
    std::size_t probe = 0;
    (void)runUnit(*workload, args.seed, args.dir, 0, workload->campaigns,
                  true, trace, [&](std::size_t) {
                    for (std::size_t i = 0; i < probesPerCampaign; ++i) {
                      const SetupTime setup = probeSetup(
                          *workload, campaignSeed(args.seed, probe++),
                          args.dir + "/setup");
                      Record("setup").num("setup_s", setup.seconds).print();
                    }
                  });
    std::filesystem::remove_all(args.dir + "/r0");
    // The first campaign once more, untimed: its journal must repeat.
    (void)runUnit(*workload, args.seed, args.dir, 1, 1, false, trace);
  } else {
    // The first half of the run, untraced and then traced: the difference
    // is the tracing overhead, and the journals must match.
    const std::size_t half = (workload->campaigns + 1) / 2;
    (void)runUnit(*workload, args.seed, args.dir, 0, half, true, trace);
    trace.on = true;
    const auto runs =
        runUnit(*workload, args.seed, args.dir, 1, half, true, trace);
    writeSpans(trace, args.dir + "/spans.jsonl");
    trace.on = false;
    // Before the probes, which build deployments of their own.
    Record("rss")
        .num("peak_rss_mb",
             static_cast<double>(std::max(peakRssKb(), gWorkerPeakRssKb)) /
                 1024.0)
        .print();

    printProbe("sim.dispatch_ns", probeDispatchNs(false));
    printProbe("sim.cancel_ns", probeDispatchNs(true));
    probeCrypto();
    printProbe("fleet.frame_rtt_us",
               probeFrameRttUs(runs.front().result.history.front().point));
    probeCampaignLayers(*workload, runs, args.dir);
    if (std::string(workload->system) == "pbft") {
      probePbftLayers(runs);
    }
  }
  Record("done").print();
  return 0;
}

int cmdFleetWorker(int argc, char** argv) {
  if (argc < 5) return campaign::fleet::kWorkerExitBadConfig;
  const std::string dir = argv[2];
  Trace trace;
  trace.on = std::strcmp(argv[3], "1") == 0;
  const std::int64_t launchNs = std::atoll(argv[4]);
  ExecStats stats;
  const int code = campaign::fleet::runWorker(
      util::kChildSocketFd,
      [&](const std::string& system, std::uint64_t seed) {
        return std::make_unique<TimedExecutor>(makeExecutor(system, seed),
                                               &stats, &trace, -1, false);
      });
  writeWorkerRecord(dir, launchNs, stats, trace);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "fleet-worker") == 0) {
      return cmdFleetWorker(argc, argv);
    }
    const bool run = argc >= 2 && std::strcmp(argv[1], "run") == 0;
    const bool parity = argc >= 2 && std::strcmp(argv[1], "campaign") == 0;
    if (run || parity) {
      RunArgs args;
      for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
          args.workload = value;
        } else if (key == "--seed") {
          args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "--seconds") {
          args.seconds = std::atof(value.c_str());
        } else if (key == "--trace") {
          args.trace = value == "1";
        } else if (key == "--dir") {
          args.dir = value;
        } else {
          std::fprintf(stderr, "unknown flag '%s'\n", key.c_str());
          return 2;
        }
      }
      if (args.workload.empty() || args.dir.empty()) {
        std::fprintf(stderr, "%s needs --workload and --dir\n", argv[1]);
        return 2;
      }
      return run ? cmdRun(args) : cmdCampaign(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "avd_perfbench: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: avd_perfbench run --workload NAME --seed S --seconds T "
               "--trace 0|1 --dir DIR\n"
               "       avd_perfbench campaign --workload NAME --seed S "
               "--dir DIR\n");
  return 2;
}
