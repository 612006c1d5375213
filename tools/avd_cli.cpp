// avd_cli — command-line front end to the AVD platform.
//
//   avd_cli campaign [--system SYS] [--tests N] [--seed S]
//                    [--workers W] [--out DIR] [--resume DIR]
//                    [--timeout-ms MS] [--min-impact X]
//       Run AVD exploration as a resumable, parallel campaign: W worker
//       threads, an append-only journal + checkpoint in DIR, and a
//       deduplicated vulnerability-class report at the end. W = 1 without
//       --timeout-ms is the serial loop; anything else runs on the fleet
//       coordinator with thread workers. `--resume DIR` continues a killed
//       campaign exactly where its journal stops, with the options its
//       manifest records.
//
//   avd_cli fleet [--system SYS] [--tests N] [--seed S]
//                 [--spawn W] [--remote R] [--batch B] [--out DIR]
//                 [--resume DIR] [--timeout-ms MS] [--min-impact X]
//                 [--bind ADDR[:PORT]] [--allow-any-bind 1]
//       Multi-process campaign: this process becomes the coordinator, owns
//       the controller and journal, and spawns W fleet-worker child
//       processes (plus accepts R remote workers over loopback TCP). A
//       crashed or wedged worker is killed, respawned with capped backoff,
//       and its in-flight scenarios are re-executed elsewhere. SIGTERM
//       drains gracefully. Either command's `--resume DIR` resumes a fleet
//       directory here and any other on the serial loop.
//
//   avd_cli fleet-worker [--connect HOST:PORT]
//       Worker mode: executes scenarios for a coordinator. Spawned workers
//       inherit their socket on fd 3; remote workers pass --connect with
//       the coordinator's listen port.
//
//   avd_cli list
//       Enumerate the target systems (campaign/systems.h), one per line.
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
#include <optional>
#include <string>
#include <system_error>

#include "campaign/dedup.h"
#include "campaign/fleet/coordinator.h"
#include "campaign/fleet/worker.h"
#include "campaign/journal.h"
#include "campaign/runner.h"
#include "campaign/systems.h"
#include "common/proc.h"

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
  /// Counts, sizes, durations and seeds: a non-negative whole number.
  std::uint64_t getCount(const std::string& key, std::uint64_t fallback) const {
    return getNumber<std::uint64_t>(key, fallback, 0,
                                    std::numeric_limits<std::uint64_t>::max(),
                                    "a non-negative whole number");
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

/// "pbft|pbft-churn|...": every --system value.
std::string systemNames() {
  std::string names;
  for (const campaign::System& system : campaign::systems()) {
    if (!names.empty()) names += '|';
    names += system.name;
  }
  return names;
}

/// True for a registry system; otherwise reports `name` as unknown,
/// naming every system.
bool knownSystem(const std::string& name) {
  if (campaign::findSystem(name) != nullptr) return true;
  std::fprintf(stderr, "unknown system '%s' (%s)\n", name.c_str(),
               systemNames().c_str());
  return false;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: avd_cli campaign|fleet|fleet-worker|list [--flag value ...]\n"
      "  campaign     --system SYS  --tests N  --seed S  --workers W\n"
      "               --out DIR  --resume DIR  --timeout-ms MS\n"
      "               --min-impact X\n"
      "  fleet        --system SYS  --tests N  --seed S\n"
      "               --spawn W  --remote R  --batch B\n"
      "               --out DIR  --resume DIR  --timeout-ms MS\n"
      "               --min-impact X  --bind ADDR[:PORT]\n"
      "               --allow-any-bind 1   (multi-process campaign; SIGTERM\n"
      "               drains gracefully, workers are respawned on crash;\n"
      "               the remote-worker listener stays on 127.0.0.1 unless\n"
      "               --bind names another interface — 0.0.0.0 additionally\n"
      "               needs --allow-any-bind 1)\n"
      "  fleet-worker --connect HOST:PORT   (worker mode; spawned workers\n"
      "               inherit their socket on fd 3)\n"
      "SYS is one of %s\n"
      "unknown flags and malformed values are errors; run 'avd_cli list' for\n"
      "the systems\n",
      systemNames().c_str());
  return 2;
}

/// Shared tail of `campaign` and `fleet`: summary lines, the deduplicated
/// class report, and classes.json. Returns the process exit status.
int reportCampaignResult(const campaign::CampaignResult& result,
                         const std::string& system, std::uint64_t seed,
                         const std::string& outDir) {
  std::printf("executed %zu scenarios (%zu failed, %zu timed out)%s\n",
              result.executed, result.failed, result.timedOut,
              result.aborted
                  ? " — ABORTED: no worker left to run the remaining tests"
                  : "");
  if (result.workerCrashes + result.respawns + result.reassigned > 0) {
    std::printf(
        "fleet: %zu worker crash(es), %zu respawn(s), %zu scenario(s) "
        "reassigned\n",
        result.workerCrashes, result.respawns, result.reassigned);
  }
  std::printf("max impact %.3f\n", result.maxImpact);
  std::printf("%zu SAFETY verdict(s)\n", result.safetyViolations);
  std::printf("%zu distinct vulnerability class(es):\n",
              result.classes.size());

  const auto executor = campaign::makeSystemExecutor(system, seed);
  for (const campaign::VulnClass& cls : result.classes) {
    std::printf("  [%4zu hits, best %.3f at test %zu] %s\n", cls.count,
                cls.exemplar.outcome.impact, cls.exemplarTest,
                campaign::signatureLabel(executor->space(), cls.signature)
                    .c_str());
  }
  if (!outDir.empty() &&
      campaign::writeFileAtomicDurable(
          campaign::classesPath(outDir),
          campaign::vulnClassesJson(executor->space(), result.classes))) {
    std::printf("journal/checkpoint/classes written to %s\n", outDir.c_str());
  }
  return result.aborted ? 1 : 0;
}

/// Set by the SIGTERM/SIGINT handler while a fleet coordinator runs; the
/// coordinator polls it and drains gracefully.
std::atomic<bool> gFleetDrain{false};

/// `campaign` and `fleet`: one parse of their flags (a command's vocabulary
/// admits only its own flags, so the other command's keep their defaults),
/// one resume path, one banner and one report. `fleet` runs worker
/// processes; `campaign` the serial loop or thread workers. On resume the
/// manifest picks the driver — a mode="fleet" directory resumes on worker
/// processes, whichever command resumes it — and supplies every option it
/// records, so of the flags only the deployment settings --bind and
/// --allow-any-bind still apply.
int cmdCampaign(const Args& args, bool processes) {
  campaign::fleet::FleetOptions options;
  campaign::CampaignOptions& run = options.campaign;
  run.system = args.get("system", "quorum");
  run.totalTests = static_cast<std::size_t>(args.getCount("tests", 200));
  run.seed = args.getCount("seed", 2011);
  run.workers = static_cast<std::size_t>(args.getCount("workers", 1));
  run.outDir = args.get("out", "");
  run.scenarioTimeoutMs = args.getCount("timeout-ms", 0);
  run.dedupMinImpact = args.getDouble("min-impact", 0.5);
  options.spawn = static_cast<std::size_t>(args.getCount("spawn", 2));
  options.remoteSlots = static_cast<std::size_t>(args.getCount("remote", 0));
  options.batch = static_cast<std::size_t>(args.getCount("batch", 4));
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

  const std::string resumeDir = args.get("resume", "");
  if (!resumeDir.empty()) {
    const auto manifest = campaign::loadManifest(resumeDir);
    if (!manifest) {
      std::fprintf(stderr, "missing or corrupt campaign manifest '%s'\n",
                   campaign::manifestPath(resumeDir).c_str());
      return 1;
    }
    processes = manifest->mode == "fleet";
    run = campaign::restoreOptions(*manifest, resumeDir);
    if (processes) campaign::fleet::restoreShape(*manifest, options);
  }
  if (!knownSystem(run.system)) return 2;

  std::string workers = std::to_string(processes ? options.spawn : run.workers);
  if (processes) {
    workers += " spawned + ";
    workers += std::to_string(options.remoteSlots);
    workers += " remote";
  }
  const std::string where = run.outDir.empty() ? "" : ", dir " + run.outDir;
  std::printf("%s %scampaign on %s: %zu tests, %s worker(s), seed %llu%s\n",
              resumeDir.empty() ? "starting" : "resuming",
              processes ? "fleet " : "", run.system.c_str(), run.totalTests,
              workers.c_str(), static_cast<unsigned long long>(run.seed),
              where.c_str());

  const campaign::ExecutorFactory factory = [system = run.system,
                                             seed = run.seed] {
    return campaign::makeSystemExecutor(system, seed);
  };
  campaign::CampaignResult result;
  try {
    if (processes) {
      options.launcher = [](std::size_t) {
        return util::spawnWithSocket({util::selfExePath(), "fleet-worker"});
      };
      gFleetDrain.store(false);
      options.drainFlag = &gFleetDrain;
      util::installSignalHandler(SIGTERM, [](int) { gFleetDrain.store(true); });
      util::installSignalHandler(SIGINT, [](int) { gFleetDrain.store(true); });
      campaign::fleet::FleetCoordinator coordinator(options, factory);
      if (coordinator.listenPort() != 0) {
        std::printf("remote workers: avd_cli fleet-worker --connect %s:%u\n",
                    options.bindAddr.c_str(), coordinator.listenPort());
      }
      result = resumeDir.empty() ? coordinator.run() : coordinator.resume();
    } else {
      campaign::CampaignRunner runner(factory, run);
      result = resumeDir.empty() ? runner.run() : runner.resume();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%scampaign failed: %s\n", processes ? "fleet " : "",
                 e.what());
    return 1;
  }
  return reportCampaignResult(result, run.system, run.seed, run.outDir);
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
  return campaign::fleet::runWorker(fd, campaign::makeSystemExecutor);
}

int cmdList() {
  for (const campaign::System& system : campaign::systems()) {
    std::printf("%-20s %s\n", system.name, system.summary);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "campaign") {
    return cmdCampaign(Args(argc, argv, 2,
                            {"system", "tests", "seed", "workers", "out",
                             "resume", "timeout-ms", "min-impact"}),
                       false);
  }
  if (command == "fleet") {
    return cmdCampaign(Args(argc, argv, 2,
                            {"system", "tests", "seed", "spawn", "remote",
                             "batch", "out", "resume", "timeout-ms",
                             "min-impact", "bind", "allow-any-bind"}),
                       true);
  }
  if (command == "fleet-worker") {
    return cmdFleetWorker(Args(argc, argv, 2, {"connect"}));
  }
  if (command == "list") return cmdList();
  return usage();
}
