// avd_cli — command-line front end to the AVD platform.
//
//   avd_cli explore --system SYS --strategy avd|random|genetic
//                   [--tests N] [--seed S] [--csv FILE] [--json FILE]
//                   [--threshold T]
//       Run an exploration against target system SYS (`avd_cli list` names
//       the systems) and print (or export) the per-test history and
//       summary.
//
//   avd_cli attack --name NAME [--clients N] [--seed S]
//                  [--rate R] [--bytes B] [--kind K] [--target T]
//       Replay one of the named, known attack scenarios and print its
//       measured damage. `avd_cli list` shows the names. The flood
//       attacks take --rate/--bytes/--kind/--target overrides.
//
//   avd_cli campaign [--system SYS] [--tests N] [--seed S]
//                    [--workers W] [--out DIR] [--resume DIR]
//                    [--checkpoint-every N] [--timeout-ms MS] [--min-impact X]
//       Run AVD exploration as a resumable, parallel campaign: W worker
//       threads, an append-only journal + checkpoint in DIR, and a
//       deduplicated vulnerability-class report at the end. W = 1 without
//       --timeout-ms is the serial loop; anything else runs on the fleet
//       coordinator with thread workers. `--resume DIR` continues a killed
//       campaign exactly where its journal stops.
//
//   avd_cli fleet [--system SYS] [--tests N] [--seed S]
//                 [--spawn W] [--remote R] [--batch B] [--out DIR]
//                 [--resume DIR] [--checkpoint-every N] [--timeout-ms MS]
//                 [--min-impact X] [--heartbeat-ms MS] [--max-respawns N]
//                 [--bind ADDR[:PORT]] [--allow-any-bind 1]
//       Multi-process campaign: this process becomes the coordinator, owns
//       the controller and journal, and spawns W fleet-worker child
//       processes (plus accepts R remote workers over loopback TCP). A
//       crashed or wedged worker is killed, respawned with capped backoff,
//       and its in-flight scenarios are re-executed elsewhere. SIGTERM
//       drains gracefully. `avd_cli campaign --resume DIR` also recognizes
//       fleet campaign directories and resumes them here.
//
//   avd_cli fleet-worker [--connect HOST:PORT]
//       Worker mode: executes scenarios for a coordinator. Spawned workers
//       inherit their socket on fd 3; remote workers pass --connect with
//       the coordinator's listen port.
//
//   avd_cli power [--budget N] [--threshold T] [--seeds a,b,c]
//       The §4 attacker-power ladder.
//
//   avd_cli list
//       Enumerate systems, strategies and named attacks.
//
// Unknown flags and malformed values are errors (exit status 2), not
// silently ignored.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "avd/attacker_power.h"
#include "avd/controller.h"
#include "avd/explorers.h"
#include "avd/genetic.h"
#include "avd/pbft_executor.h"
#include "avd/quorum_executor.h"
#include "avd/report.h"
#include "campaign/dedup.h"
#include "campaign/fleet/coordinator.h"
#include "campaign/fleet/worker.h"
#include "campaign/journal.h"
#include "campaign/runner.h"
#include "common/proc.h"
#include "faultinject/behaviors.h"
#include "faultinject/churn.h"
#include "faultinject/flood.h"
#include "pbft/deployment.h"

using namespace avd;

namespace {

/// All of `text` as a T in [lo, hi]; nullopt for anything else: empty, a
/// sign T cannot hold, trailing junk, overflow, NaN.
template <typename T>
[[nodiscard]] std::optional<T> parseNumber(const std::string& text, T lo,
                                           T hi) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !(value >= lo && value <= hi)) {
    return std::nullopt;
  }
  return value;
}

/// A malformed value is a usage error, like an unknown flag.
[[noreturn]] void badValue(const std::string& flag, const std::string& value,
                           const std::string& expected) {
  std::fprintf(stderr, "invalid value '%s' for '--%s': expected %s\n",
               value.c_str(), flag.c_str(), expected.c_str());
  std::exit(2);
}

/// The port after the last ':' of `--flag ADDR:PORT`; exits 2 unless it
/// is a whole number in 0..65535.
std::uint16_t portOf(const std::string& flag, const std::string& value,
                     std::size_t colon) {
  const auto port = parseNumber<std::uint32_t>(value.substr(colon + 1), 0,
                                               65535);
  if (!port) badValue(flag, value, "a port in 0..65535 after the ':'");
  return static_cast<std::uint16_t>(*port);
}

/// Minimal --flag VALUE parser; flags may appear in any order. Every
/// command declares its flag vocabulary: a flag outside it (or a flag
/// without a value) is a usage error, so a typo like `--seeed 7` fails
/// loudly instead of silently exploring with the default seed. Numeric
/// getters parse the whole value for the same reason: `--seed x12` is an
/// error, not seed 0.
class Args {
 public:
  Args(int argc, char** argv, int firstFlag,
       std::initializer_list<const char*> allowed) {
    for (int i = firstFlag; i < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "expected --flag, got '%s'\n", argv[i]);
        std::exit(2);
      }
      const std::string key = argv[i] + 2;
      const bool known =
          std::any_of(allowed.begin(), allowed.end(),
                      [&](const char* flag) { return key == flag; });
      if (!known) {
        std::fprintf(stderr, "unknown flag '--%s' for this command\n",
                     key.c_str());
        std::exit(2);
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for '--%s'\n", key.c_str());
        std::exit(2);
      }
      values_[key] = argv[i + 1];
    }
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  /// Counts, sizes, durations and seeds: a whole number in [0, max].
  std::uint64_t getCount(
      const std::string& key, std::uint64_t fallback,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const {
    return getNumber<std::uint64_t>(
        key, fallback, 0, max,
        max == std::numeric_limits<std::uint64_t>::max()
            ? "a non-negative whole number"
            : "a whole number in 0.." + std::to_string(max));
  }
  /// A whole number that may be negative (`attack --target -1`).
  long long getInt(const std::string& key, long long fallback) const {
    return getNumber<long long>(key, fallback,
                                std::numeric_limits<long long>::min(),
                                std::numeric_limits<long long>::max(),
                                "a whole number");
  }
  double getDouble(const std::string& key, double fallback) const {
    return getNumber<double>(key, fallback,
                             std::numeric_limits<double>::lowest(),
                             std::numeric_limits<double>::max(),
                             "a finite number");
  }

 private:
  template <typename T>
  T getNumber(const std::string& key, T fallback, T lo, T hi,
              const std::string& expected) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const auto value = parseNumber<T>(it->second, lo, hi);
    if (!value) badValue(key, it->second, expected);
    return *value;
  }

  std::map<std::string, std::string> values_;
};

/// The deployment timing of the pbft, pbft-churn and pbft-twins systems;
/// only the measurement window differs between them.
core::PbftExecutorOptions pbftOptions(sim::Time measure) {
  core::PbftExecutorOptions options;
  options.pbft.requestTimeout = sim::msec(400);
  options.pbft.viewChangeTimeout = sim::msec(400);
  options.clientRetx = sim::msec(100);
  options.link = sim::LinkModel{sim::msec(5), sim::usec(500)};
  options.warmup = sim::msec(400);
  options.measure = measure;
  return options;
}

std::unique_ptr<core::ScenarioExecutor> pbftExecutor(
    core::Hyperspace space, core::PbftExecutorOptions options,
    std::uint64_t seed) {
  options.baseSeed = seed;
  return std::make_unique<core::PbftAttackExecutor>(std::move(space),
                                                    std::move(options));
}

/// A target system a campaign can explore: its --system name, its line in
/// `avd_cli list`, and its executor for a seed.
struct System {
  const char* name;
  const char* summary;
  std::unique_ptr<core::ScenarioExecutor> (*makeExecutor)(std::uint64_t seed);
};

const System kSystems[] = {
    {"pbft", "MAC-corruption hyperspace, 204800 scenarios",
     [](std::uint64_t seed) {
       return pbftExecutor(core::makePaperMacHyperspace(),
                           pbftOptions(sim::msec(3000)), seed);
     }},
    // The pbft deployment; the space is which replica to crash, when, for
    // how long, and at what repeat period.
    {"pbft-churn", "crash-restart timing hyperspace",
     [](std::uint64_t seed) {
       return pbftExecutor(core::makeChurnHyperspace(),
                           pbftOptions(sim::msec(3000)), seed);
     }},
    // The ablation pair: one resource-exhaustion space over a
    // bounded-ingress deployment, without and with admission control +
    // fair scheduling.
    {"pbft-flood", "resource-exhaustion hyperspace, bounded ingress",
     [](std::uint64_t seed) {
       return pbftExecutor(core::makeFloodHyperspace(),
                           core::makeFloodExecutorOptions(false), seed);
     }},
    {"pbft-flood-defended", "pbft-flood against the Aardvark defenses",
     [](std::uint64_t seed) {
       return pbftExecutor(core::makeFloodHyperspace(),
                           core::makeFloodExecutorOptions(true), seed);
     }},
    // Divergence shows up within the first virtual second, so a shorter
    // window than the liveness systems keeps each scenario cheap.
    {"pbft-twins", "twinned identities; hunts safety violations",
     [](std::uint64_t seed) {
       return pbftExecutor(core::makeTwinsHyperspace(),
                           pbftOptions(sim::msec(2000)), seed);
     }},
    {"quorum", "timestamp/victims/replica-behaviour space",
     [](std::uint64_t seed) -> std::unique_ptr<core::ScenarioExecutor> {
       core::QuorumExecutorOptions options;
       options.baseSeed = seed;
       return std::make_unique<core::QuorumApiExecutor>(
           core::makeQuorumApiHyperspace(), options);
     }},
};

/// "pbft|pbft-churn|...": every --system value.
std::string systemNames() {
  std::string names;
  for (const System& system : kSystems) {
    if (!names.empty()) names += '|';
    names += system.name;
  }
  return names;
}

/// The system called `name`, or nullptr after reporting it as unknown.
const System* findSystem(const std::string& name) {
  for (const System& system : kSystems) {
    if (name == system.name) return &system;
  }
  std::fprintf(stderr, "unknown system '%s' (%s)\n", name.c_str(),
               systemNames().c_str());
  return nullptr;
}

std::unique_ptr<core::ScenarioExecutor> makeExecutor(const std::string& name,
                                                     std::uint64_t seed) {
  const System* system = findSystem(name);
  if (system == nullptr) std::exit(2);
  return system->makeExecutor(seed);
}

int usage() {
  std::fprintf(
      stderr,
      "usage: avd_cli explore|campaign|fleet|attack|power|list "
      "[--flag value ...]\n"
      "  explore      --system SYS  --strategy avd|random|genetic\n"
      "               --tests N  --seed S  --threshold T  --csv FILE "
      "--json FILE\n"
      "  campaign     --system SYS  --tests N  --seed S  --workers W\n"
      "               --out DIR  --resume DIR  --checkpoint-every N\n"
      "               --timeout-ms MS  --min-impact X\n"
      "  fleet        --system SYS  --tests N  --seed S\n"
      "               --spawn W  --remote R  --batch B\n"
      "               --out DIR  --resume DIR  --checkpoint-every N\n"
      "               --timeout-ms MS  --min-impact X  --heartbeat-ms MS\n"
      "               --max-respawns N  --bind ADDR[:PORT]\n"
      "               --allow-any-bind 1   (multi-process campaign; SIGTERM\n"
      "               drains gracefully, workers are respawned on crash;\n"
      "               the remote-worker listener stays on 127.0.0.1 unless\n"
      "               --bind names another interface — 0.0.0.0 additionally\n"
      "               needs --allow-any-bind 1)\n"
      "  fleet-worker --connect HOST:PORT   (worker mode; spawned workers\n"
      "               inherit their socket on fd 3)\n"
      "  attack       --name NAME  --clients N  --seed S\n"
      "               --rate R  --bytes B  --kind K  --target T  "
      "(flood only)\n"
      "  power        --budget N  --threshold T  --seeds a,b,c\n"
      "SYS is one of %s\n"
      "unknown flags and malformed values are errors; run 'avd_cli list' for\n"
      "systems, strategies and attacks\n",
      systemNames().c_str());
  return 2;
}

int cmdExplore(const Args& args) {
  const std::string system = args.get("system", "pbft");
  const std::string strategy = args.get("strategy", "avd");
  const auto tests = static_cast<std::size_t>(args.getCount("tests", 60));
  const std::uint64_t seed = args.getCount("seed", 2011);
  const double threshold = args.getDouble("threshold", 0.9);

  const auto executor = makeExecutor(system, seed);
  std::vector<core::TestRecord> history;

  std::printf("exploring %s with strategy '%s', %zu tests, seed %llu...\n",
              system.c_str(), strategy.c_str(), tests,
              static_cast<unsigned long long>(seed));
  if (strategy == "avd") {
    core::Controller controller(*executor,
                                core::defaultPlugins(executor->space()),
                                core::ControllerOptions{}, seed);
    controller.runTests(tests);
    history = controller.history();
  } else if (strategy == "random") {
    core::Controller controller = core::makeRandomExplorer(*executor, seed);
    controller.runTests(tests);
    history = controller.history();
  } else if (strategy == "genetic") {
    core::GeneticExplorer genetic(*executor,
                                  core::defaultPlugins(executor->space()),
                                  core::GeneticOptions{}, seed);
    genetic.runTests(tests);
    history = genetic.history();
  } else {
    std::fprintf(stderr, "unknown strategy '%s' (avd|random|genetic)\n",
                 strategy.c_str());
    return 2;
  }

  const std::string summary =
      core::summaryJson(executor->space(), history, threshold);
  std::fputs(summary.c_str(), stdout);

  const std::string csvPath = args.get("csv", "");
  if (!csvPath.empty()) {
    if (!core::writeFile(csvPath,
                         core::historyCsv(executor->space(), history))) {
      std::fprintf(stderr, "failed to write %s\n", csvPath.c_str());
      return 1;
    }
    std::printf("history written to %s\n", csvPath.c_str());
  }
  const std::string jsonPath = args.get("json", "");
  if (!jsonPath.empty() && !core::writeFile(jsonPath, summary)) {
    std::fprintf(stderr, "failed to write %s\n", jsonPath.c_str());
    return 1;
  }
  return 0;
}

/// Shared tail of `campaign` and `fleet`: summary lines, the deduplicated
/// class report, and classes.json. Returns the process exit status.
int reportCampaignResult(const campaign::CampaignResult& result,
                         const std::string& system, std::uint64_t seed,
                         const std::string& outDir) {
  std::printf("executed %zu scenarios (%zu failed, %zu timed out)%s\n",
              result.executed, result.failed, result.timedOut,
              result.aborted ? " — ABORTED: every worker wedged" : "");
  if (result.workerCrashes + result.respawns + result.reassigned > 0) {
    std::printf(
        "fleet: %zu worker crash(es), %zu respawn(s), %zu scenario(s) "
        "reassigned\n",
        result.workerCrashes, result.respawns, result.reassigned);
  }
  std::printf("max impact %.3f\n", result.maxImpact);
  std::printf("%zu distinct vulnerability class(es):\n",
              result.classes.size());

  const auto executor = makeExecutor(system, seed);
  for (const campaign::VulnClass& cls : result.classes) {
    std::printf("  [%4zu hits, best %.3f at test %zu] %s\n", cls.count,
                cls.exemplar.outcome.impact, cls.exemplarTest,
                campaign::signatureLabel(executor->space(), cls.signature)
                    .c_str());
  }
  if (!outDir.empty()) {
    const std::string classesPath = outDir + "/classes.json";
    if (core::writeFile(classesPath, campaign::vulnClassesJson(
                                         executor->space(), result.classes))) {
      std::printf("journal/checkpoint/classes written to %s\n",
                  outDir.c_str());
    }
  }
  return result.aborted ? 1 : 0;
}

/// Set by the SIGTERM/SIGINT handler while a fleet coordinator runs; the
/// coordinator polls it and drains gracefully.
std::atomic<bool> gFleetDrain{false};

/// Runs (or resumes) a fleet campaign. `campaign --resume` delegates here
/// when the manifest says mode="fleet", so either spelling resumes a fleet
/// directory. On resume the manifest overrides every flag-derived option.
int runFleetCampaign(const std::string& resumeDir,
                     campaign::fleet::FleetOptions options, std::string system,
                     std::uint64_t seed) {
  if (!resumeDir.empty()) {
    const auto manifest = campaign::loadManifest(resumeDir);
    if (!manifest) {
      std::fprintf(stderr, "no campaign manifest in '%s'\n",
                   resumeDir.c_str());
      return 1;
    }
    if (manifest->mode != "fleet") {
      std::fprintf(stderr,
                   "'%s' is a single-process campaign; use 'avd_cli campaign "
                   "--resume %s'\n",
                   resumeDir.c_str(), resumeDir.c_str());
      return 2;
    }
    system = manifest->system;
    seed = manifest->seed;
    options.campaign.outDir = resumeDir;
    // resume() re-reads the manifest for the full option set; spawn and
    // remoteSlots matter here because the constructor binds the TCP
    // listener before resume() runs.
    options.spawn = static_cast<std::size_t>(manifest->spawn);
    options.remoteSlots =
        manifest->workers > manifest->spawn
            ? static_cast<std::size_t>(manifest->workers - manifest->spawn)
            : 0;
    options.campaign.totalTests =
        static_cast<std::size_t>(manifest->totalTests);
    options.batch = static_cast<std::size_t>(manifest->batch);
  }
  if (findSystem(system) == nullptr) return 2;
  options.campaign.seed = seed;
  options.campaign.system = system;

  options.launcher = [](std::size_t) {
    return util::spawnWithSocket({util::selfExePath(), "fleet-worker"});
  };
  gFleetDrain.store(false);
  options.drainFlag = &gFleetDrain;
  util::installSignalHandler(SIGTERM, [](int) { gFleetDrain.store(true); });
  util::installSignalHandler(SIGINT, [](int) { gFleetDrain.store(true); });

  const std::size_t spawn = options.spawn;
  const std::size_t remote = options.remoteSlots;
  const std::string bindAddr = options.bindAddr;
  const std::size_t tests = options.campaign.totalTests;
  const std::string outDir = options.campaign.outDir;
  const std::string where = outDir.empty() ? "" : ", dir " + outDir;

  campaign::CampaignResult result;
  try {
    campaign::fleet::FleetCoordinator coordinator(
        std::move(options), [system, seed] { return makeExecutor(system, seed); });
    std::printf(
        "%s fleet campaign on %s: %zu tests, %zu spawned + %zu remote "
        "worker(s), seed %llu%s\n",
        resumeDir.empty() ? "starting" : "resuming", system.c_str(), tests,
        spawn, remote, static_cast<unsigned long long>(seed), where.c_str());
    if (coordinator.listenPort() != 0) {
      std::printf(
          "remote workers: avd_cli fleet-worker --connect %s:%u\n",
          bindAddr.c_str(), coordinator.listenPort());
    }
    result = resumeDir.empty() ? coordinator.run() : coordinator.resume();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet campaign failed: %s\n", e.what());
    return 1;
  }
  return reportCampaignResult(result, system, seed, outDir);
}

int cmdFleet(const Args& args) {
  campaign::fleet::FleetOptions options;
  options.campaign.totalTests =
      static_cast<std::size_t>(args.getCount("tests", 200));
  options.campaign.outDir = args.get("out", "");
  options.campaign.checkpointEvery =
      static_cast<std::size_t>(args.getCount("checkpoint-every", 16));
  options.campaign.scenarioTimeoutMs = args.getCount("timeout-ms", 0);
  options.campaign.dedupMinImpact = args.getDouble("min-impact", 0.5);
  options.spawn = static_cast<std::size_t>(args.getCount("spawn", 2));
  options.remoteSlots = static_cast<std::size_t>(args.getCount("remote", 0));
  options.batch = static_cast<std::size_t>(args.getCount("batch", 4));
  options.heartbeatMs = args.getCount("heartbeat-ms", 200);
  options.maxWorkerRespawns =
      static_cast<std::size_t>(args.getCount("max-respawns", 8));
  const std::uint64_t seed = args.getCount("seed", 2011);
  const bool allowAnyBind = args.getCount("allow-any-bind", 0) != 0;
  const std::string bind = args.get("bind", "");
  if (!bind.empty()) {
    // ADDR or ADDR:PORT; PORT 0 (or absent) keeps the ephemeral default.
    const std::size_t colon = bind.rfind(':');
    if (colon == std::string::npos) {
      options.bindAddr = bind;
    } else {
      options.bindAddr = bind.substr(0, colon);
      options.bindPort = portOf("bind", bind, colon);
    }
    if (options.bindAddr == "0.0.0.0" && !allowAnyBind) {
      std::fprintf(stderr,
                   "refusing to bind 0.0.0.0: the worker protocol is "
                   "unauthenticated; pass --allow-any-bind 1 to expose it\n");
      return 2;
    }
  }
  return runFleetCampaign(args.get("resume", ""), std::move(options),
                          args.get("system", "quorum"), seed);
}

int cmdFleetWorker(const Args& args) {
  int fd = util::kChildSocketFd;
  const std::string connect = args.get("connect", "");
  if (!connect.empty()) {
    const std::size_t colon = connect.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "--connect expects HOST:PORT, got '%s'\n",
                   connect.c_str());
      return campaign::fleet::kWorkerExitBadConfig;
    }
    const std::string host = connect.substr(0, colon);
    const auto sock = util::connectTcp(host, portOf("connect", connect, colon));
    if (!sock) {
      std::fprintf(stderr, "cannot connect to coordinator at %s\n",
                   connect.c_str());
      return campaign::fleet::kWorkerExitBadConfig;
    }
    fd = *sock;
  }
  return campaign::fleet::runWorker(
      fd, [](const std::string& system, std::uint64_t seed) {
        return makeExecutor(system, seed);
      });
}

int cmdCampaign(const Args& args) {
  const std::string resumeDir = args.get("resume", "");
  std::string system = args.get("system", "quorum");
  std::uint64_t seed = args.getCount("seed", 2011);

  campaign::CampaignOptions options;
  options.totalTests = static_cast<std::size_t>(args.getCount("tests", 200));
  options.workers = static_cast<std::size_t>(args.getCount("workers", 1));
  options.outDir = args.get("out", "");
  options.checkpointEvery =
      static_cast<std::size_t>(args.getCount("checkpoint-every", 16));
  options.scenarioTimeoutMs = args.getCount("timeout-ms", 0);
  options.dedupMinImpact = args.getDouble("min-impact", 0.5);

  if (!resumeDir.empty()) {
    // The manifest pins system/seed/budget; flags are ignored on resume.
    const auto manifest = campaign::loadManifest(resumeDir);
    if (!manifest) {
      std::fprintf(stderr, "no campaign manifest in '%s'\n",
                   resumeDir.c_str());
      return 1;
    }
    if (manifest->mode == "fleet") {
      // A fleet directory resumes under the fleet coordinator, whichever
      // command the user typed; the manifest supplies every option.
      return runFleetCampaign(resumeDir, campaign::fleet::FleetOptions{},
                              manifest->system, manifest->seed);
    }
    system = manifest->system;
    seed = manifest->seed;
    options.outDir = resumeDir;
    options.totalTests = manifest->totalTests;
    // A non-fleet directory continues on the serial loop, whatever worker
    // count wrote it.
    options.workers = 1;
  }
  if (findSystem(system) == nullptr) return 2;
  options.seed = seed;
  options.system = system;

  campaign::CampaignRunner runner(
      [system, seed] { return makeExecutor(system, seed); }, options);

  const std::string where =
      options.outDir.empty() ? "" : ", dir " + options.outDir;
  std::printf("%s campaign on %s: %zu tests, %zu worker(s), seed %llu%s\n",
              resumeDir.empty() ? "starting" : "resuming", system.c_str(),
              options.totalTests, options.workers,
              static_cast<unsigned long long>(seed), where.c_str());

  campaign::CampaignResult result;
  try {
    result = resumeDir.empty() ? runner.run() : runner.resume();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign failed: %s\n", e.what());
    return 1;
  }
  return reportCampaignResult(result, system, seed, options.outDir);
}

int cmdAttack(const Args& args) {
  const std::string name = args.get("name", "big-mac");
  const auto clients = static_cast<std::uint32_t>(
      args.getCount("clients", 20, std::numeric_limits<std::uint32_t>::max()));
  const std::uint64_t seed = args.getCount("seed", 17);
  // Flood overrides; parsed up front so a malformed one fails before the run
  // even for attacks that ignore it.
  const long long kind = args.getInt("kind", 1);
  const auto rate = static_cast<sim::Time>(args.getCount(
      "rate", 16000, std::numeric_limits<sim::Time>::max()));
  const std::uint64_t bytes = args.getCount("bytes", 1);
  const long long target = args.getInt("target", -1);

  pbft::DeploymentConfig config;
  if (name == "big-mac") {
    config = fi::makeBigMacScenario(clients, fi::bigMacMaskValidOnlyFor(0, 4),
                                    seed);
  } else if (name == "big-mac-fixed") {
    config = fi::makeBigMacScenario(clients, fi::bigMacMaskValidOnlyFor(0, 4),
                                    seed);
    config.pbft.viewChangeCrashBug = false;
  } else if (name == "rotating") {
    config = fi::makeBigMacScenario(clients, fi::rotatingBigMacMask(), seed);
  } else if (name == "slow-primary") {
    config = fi::makeSlowPrimaryScenario(clients, false, false, seed);
  } else if (name == "colluding") {
    config = fi::makeSlowPrimaryScenario(clients, true, false, seed);
  } else if (name == "aardvark-guard") {
    config = fi::makeSlowPrimaryScenario(clients, true, false, seed);
    config.pbft.primaryThroughputGuard = true;
    config.pbft.guardWindow = sim::sec(2);
  } else if (name == "churn") {
    // No message-level attack: repeated crash-restart cycles against one
    // backup exercise durable-state recovery and the rejoin protocol.
    config = fi::makeBigMacScenario(clients, 0, seed);
  } else if (name == "flood" || name == "flood-defended") {
    // Resource exhaustion against a bounded-ingress deployment; the
    // -defended variant enables admission control + fair scheduling.
    config = fi::makeBigMacScenario(clients, 0, seed);
    const core::PbftExecutorOptions bounded = core::makeFloodExecutorOptions();
    config.link.ingressCapacity = bounded.link.ingressCapacity;
    config.link.ingressByteBudget = bounded.link.ingressByteBudget;
    config.link.ingressServiceTime = bounded.link.ingressServiceTime;
    if (name == "flood-defended") {
      fi::enableFloodDefenses(config.pbft);
      config.link.fairIngress = true;
    }
  } else if (name == "baseline") {
    config = fi::makeBigMacScenario(clients, 0, seed);
  } else {
    std::fprintf(stderr, "unknown attack '%s'; see 'avd_cli list'\n",
                 name.c_str());
    return 2;
  }

  pbft::Deployment deployment(config);
  std::unique_ptr<fi::FloodClient> flood;
  if (name == "flood" || name == "flood-defended") {
    fi::FloodOptions floodOptions;
    floodOptions.kind =
        kind >= 1 && kind <= 4 ? static_cast<fi::FloodKind>(kind)
                               : fi::FloodKind::kRequestSpam;
    floodOptions.interval =
        rate > 0 ? std::max<sim::Time>(sim::sec(1) / rate, 1) : sim::msec(1);
    floodOptions.payloadBytes =
        static_cast<std::size_t>(std::max<std::uint64_t>(bytes, 1));
    floodOptions.target =
        target >= 0 &&
                target < static_cast<long long>(config.pbft.replicaCount())
            ? static_cast<util::NodeId>(target)
            : util::kNoNode;
    flood = std::make_unique<fi::FloodClient>(
        config.pbft.replicaCount() + config.totalClients(), config.pbft,
        &deployment.keychain(), floodOptions);
    deployment.network().registerNode(flood.get());
    flood->install();
  }
  std::shared_ptr<fi::ChurnFault> churn;
  if (name == "churn") {
    fi::ChurnFault::Options churnOptions;
    churnOptions.target = 1;
    churnOptions.firstCrash = sim::msec(500);
    churnOptions.downtime = sim::msec(400);
    churnOptions.period = sim::msec(1200);
    churn = std::make_shared<fi::ChurnFault>(&deployment.simulator(),
                                             &deployment.network(),
                                             churnOptions);
    churn->install();
  }
  const pbft::RunResult result = deployment.run();
  std::uint64_t crashed = 0;
  for (std::uint32_t r = 0; r < deployment.replicaCount(); ++r) {
    crashed += deployment.replica(r).stats().crashedOnViewChange;
  }
  std::printf("attack: %s, %u correct clients, seed %llu\n", name.c_str(),
              clients, static_cast<unsigned long long>(seed));
  std::printf("  throughput      %12.2f req/s\n", result.throughputRps);
  std::printf("  avg latency     %12.4f s (p50 %.4f, p99 %.4f)\n",
              result.avgLatencySec, result.p50LatencySec,
              result.p99LatencySec);
  std::printf("  correct done    %12llu\n",
              static_cast<unsigned long long>(result.correctCompleted));
  std::printf("  malicious done  %12llu\n",
              static_cast<unsigned long long>(result.maliciousCompleted));
  std::printf("  view changes    %12llu (max view %llu)\n",
              static_cast<unsigned long long>(result.viewChangesInitiated),
              static_cast<unsigned long long>(result.maxView));
  std::printf("  crashed replicas%12llu\n",
              static_cast<unsigned long long>(crashed));
  if (result.restarts > 0) {
    std::printf("  restarts        %12llu\n",
                static_cast<unsigned long long>(result.restarts));
    std::printf("  recovery latency%12.4f s\n", result.recoveryLatencySec);
  }
  if (flood != nullptr) {
    std::printf("  flood sent      %12llu\n",
                static_cast<unsigned long long>(flood->messagesSent()));
    std::printf("  queue drops     %12llu (peak depth %llu)\n",
                static_cast<unsigned long long>(result.queueDrops),
                static_cast<unsigned long long>(result.peakQueueDepth));
    std::printf("  quota drops     %12llu\n",
                static_cast<unsigned long long>(result.quotaDrops));
    std::printf("  replays stopped %12llu\n",
                static_cast<unsigned long long>(result.replaysSuppressed));
  }
  std::printf("  safety violated %12s\n",
              result.safetyViolated ? "YES (BUG!)" : "no");
  return result.safetyViolated ? 1 : 0;
}

int cmdPower(const Args& args) {
  const auto budget = static_cast<std::size_t>(args.getCount("budget", 120));
  const double threshold = args.getDouble("threshold", 0.95);
  std::vector<std::uint64_t> seeds;
  const std::string list = args.get("seeds", "11,22,33");
  for (std::size_t start = 0;;) {
    const std::size_t comma = list.find(',', start);
    const auto seed = parseNumber<std::uint64_t>(
        list.substr(start, comma - start), 0,
        std::numeric_limits<std::uint64_t>::max());
    if (!seed) badValue("seeds", list, "comma-separated whole numbers");
    seeds.push_back(*seed);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }

  std::printf("%-16s %8s %10s %14s\n", "power level", "found", "median",
              "strong frac");
  for (const core::AttackerPower power :
       {core::AttackerPower::kBlindFuzz, core::AttackerPower::kGrayFeedback,
        core::AttackerPower::kProtocolAware}) {
    std::vector<std::size_t> finds;
    double strongFraction = 0;
    int found = 0;
    for (const std::uint64_t seed : seeds) {
      const core::PowerMeasurement measurement =
          core::measureAttackerPower(power, threshold, budget, seed);
      if (measurement.found) ++found;
      finds.push_back(measurement.testsToFind);
      strongFraction += measurement.strongFraction;
    }
    std::sort(finds.begin(), finds.end());
    std::printf("%-16s %5d/%zu %10zu %14.2f\n",
                core::powerName(power).c_str(), found, seeds.size(),
                finds[finds.size() / 2],
                strongFraction / static_cast<double>(seeds.size()));
  }
  return 0;
}

int cmdList() {
  const char* label = "systems:";
  for (const System& system : kSystems) {
    std::printf("%-11s %-20s %s\n", label, system.name, system.summary);
    label = "";
  }
  std::printf(
      "strategies: avd (Algorithm 1), random, genetic\n"
      "attacks:    baseline        no attack, for reference numbers\n"
      "            big-mac         inconsistent authenticators -> view\n"
      "                            change -> historical crash bug\n"
      "            big-mac-fixed   same, against the repaired view change\n"
      "            rotating        stealth mask: ~10x slowdown, no alarms\n"
      "            slow-primary    one request per 5 s timer period\n"
      "            colluding       slow primary + colluding client: 0 req/s\n"
      "            aardvark-guard  colluding attack vs the throughput guard\n"
      "            churn           periodic crash-restart of one backup\n"
      "            flood           resource exhaustion (--kind 1 spam,\n"
      "                            2 replay storm, 3 oversized, 4 status\n"
      "                            amplify; --rate/--bytes/--target)\n"
      "            flood-defended  same flood vs admission control + fair\n"
      "                            scheduling + bounded queues\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "explore") {
    return cmdExplore(Args(argc, argv, 2,
                           {"system", "strategy", "tests", "seed",
                            "threshold", "csv", "json"}));
  }
  if (command == "campaign") {
    return cmdCampaign(Args(argc, argv, 2,
                            {"system", "tests", "seed", "workers", "out",
                             "resume", "checkpoint-every", "timeout-ms",
                             "min-impact"}));
  }
  if (command == "fleet") {
    return cmdFleet(Args(argc, argv, 2,
                         {"system", "tests", "seed", "spawn", "remote",
                          "batch", "out", "resume", "checkpoint-every",
                          "timeout-ms", "min-impact", "heartbeat-ms",
                          "max-respawns", "bind", "allow-any-bind"}));
  }
  if (command == "fleet-worker") {
    return cmdFleetWorker(Args(argc, argv, 2, {"connect"}));
  }
  if (command == "attack") {
    return cmdAttack(Args(argc, argv, 2,
                          {"name", "clients", "seed", "rate", "bytes", "kind",
                           "target"}));
  }
  if (command == "power") {
    return cmdPower(Args(argc, argv, 2, {"budget", "threshold", "seeds"}));
  }
  if (command == "list") return cmdList();
  return usage();
}
