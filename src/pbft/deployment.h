// Full simulated PBFT deployment and impact measurement.
//
// A Deployment assembles replicas, clients and the simulated network —
// the in-process equivalent of the paper's Emulab testbed — runs the
// workload for a warmup + measurement window, and reports the metric AVD
// optimizes: throughput and latency *observed by the correct clients* (§3:
// "the impact on the correct, unmodified nodes of the target system").
// Individual AVD tests construct a fresh Deployment each time, matching the
// paper's per-test re-initialization.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/keychain.h"
#include "pbft/client.h"
#include "pbft/config.h"
#include "pbft/replica.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace avd::pbft {

enum class ServiceKind { kCounter, kKv };

struct DeploymentConfig {
  Config pbft;
  std::uint32_t correctClients = 10;
  std::uint32_t maliciousClients = 0;
  ClientBehavior correctClientBehavior;
  ClientBehavior maliciousClientBehavior;
  /// Behaviour overrides by replica id (absent = correct replica).
  std::map<util::NodeId, ReplicaBehavior> replicaBehaviors;
  sim::LinkModel link{sim::usec(500), sim::usec(100)};
  sim::Time clientRetx = sim::msec(150);
  sim::Time warmup = sim::sec(1);
  sim::Time measure = sim::sec(4);
  std::uint64_t seed = 1;
  ServiceKind service = ServiceKind::kCounter;

  std::uint32_t totalClients() const noexcept {
    return correctClients + maliciousClients;
  }
};

/// Witness of a safety violation: the two conflicting commit certificates
/// the oracle found at one sequence number. Voter-set intersection shows
/// who double-voted (the twinned identities); an empty voter set means the
/// replica executed the sequence via f+1 sync attestations, not commits.
struct SafetyWitness {
  util::SeqNum seq = 0;
  util::NodeId replicaA = 0;
  util::NodeId replicaB = 0;
  std::uint64_t digestA = 0;
  std::uint64_t digestB = 0;
  std::vector<util::NodeId> votersA;
  std::vector<util::NodeId> votersB;
};

/// Compact one-token-per-field rendering with no commas or quotes, safe to
/// embed in CSV cells and JSON strings, e.g.
/// "seq=5 r2=00000000deadbeef[votes 0.1.2] r3=00000000cafef00d[synced]".
std::string formatSafetyWitness(const SafetyWitness& witness);

/// Outcome of one test run.
struct RunResult {
  /// Requests completed by correct clients per second of measured time.
  double throughputRps = 0.0;
  /// Mean completion latency of correct-client requests (seconds).
  double avgLatencySec = 0.0;
  std::uint64_t correctCompleted = 0;
  std::uint64_t maliciousCompleted = 0;
  std::uint64_t viewChangesInitiated = 0;
  util::ViewId maxView = 0;
  /// True if two non-twin replicas committed different digests at the same
  /// sequence number — a PBFT safety violation. Within the f bound
  /// (including up to f twinned identities) this must never fire; the
  /// twins tool hunts for it beyond the bound.
  bool safetyViolated = false;
  /// The first conflicting certificate pair found (set iff safetyViolated).
  std::optional<SafetyWitness> safetyWitness;
  sim::NetworkCounters network;
  std::uint64_t eventsExecuted = 0;
  /// Resource-exhaustion observability (flood tools / defenses).
  /// Ingress-queue overflow drops across all nodes (= network counter,
  /// surfaced for campaign outcomes).
  std::uint64_t queueDrops = 0;
  /// Replica-side admission rejections: quota + oversized + bounded
  /// ordering-queue drops, summed over replicas.
  std::uint64_t quotaDrops = 0;
  /// Reply-cache resends suppressed by replay suppression (all replicas).
  std::uint64_t replaysSuppressed = 0;
  /// Highest ingress-queue depth any node reached.
  std::uint64_t peakQueueDepth = 0;
  /// Total replica crash–restart cycles over the run (churn faults).
  std::uint64_t restarts = 0;
  /// Protocol-transition observability (see src/avd/gen/protocol_events.h):
  /// checkpoints taken, state transfers completed, and pre-prepares parked
  /// pending authentication, summed over replicas.
  std::uint64_t checkpointsTaken = 0;
  std::uint64_t stateTransfers = 0;
  std::uint64_t prePreparesParked = 0;
  /// Seconds from the LAST replica restart to the first correct-client
  /// completion after it — how long the deployment took to come back. 0 when
  /// no restarts happened; the full remaining run time if it never recovered.
  double recoveryLatencySec = 0.0;
};

class Deployment {
 public:
  explicit Deployment(DeploymentConfig config);

  /// Runs warmup + measurement and returns the collected result.
  RunResult run();

  /// Advances virtual time (for tests that want stepwise control).
  void runFor(sim::Time duration);

  /// Collects metrics over the window [warmup, warmup + measure].
  RunResult collect() const;

  // --- Accessors ------------------------------------------------------------
  sim::Simulator& simulator() noexcept { return simulator_; }
  sim::Network& network() noexcept { return network_; }
  const crypto::Keychain& keychain() const noexcept { return keychain_; }
  const DeploymentConfig& config() const noexcept { return config_; }

  std::uint32_t replicaCount() const noexcept {
    return config_.pbft.replicaCount();
  }
  Replica& replica(std::uint32_t index) { return *replicas_.at(index); }

  /// Mints a second physical replica behind replica `id`'s logical identity
  /// — same id, keys, service kind and behavior, but genesis state (the
  /// Twins "amnesia" shape). The caller owns it, registers it via
  /// Network::registerTwin, start()s it, and keeps it alive for the run;
  /// fi::TwinFault wraps all of that.
  std::unique_ptr<Replica> makeTwinReplica(util::NodeId id) const;

  /// Clients are laid out as: malicious [0, m), then correct [m, m+c).
  Client& maliciousClient(std::uint32_t index) {
    return *clients_.at(index);
  }
  Client& correctClient(std::uint32_t index) {
    return *clients_.at(config_.maliciousClients + index);
  }
  util::NodeId maliciousClientId(std::uint32_t index) const noexcept {
    return replicaCount() + index;
  }
  util::NodeId correctClientId(std::uint32_t index) const noexcept {
    return replicaCount() + config_.maliciousClients + index;
  }

 private:
  static std::unique_ptr<Service> makeService(ServiceKind kind);
  /// The link model actually installed: fairClientScheduling also turns on
  /// per-sender ingress lanes (Aardvark's resource isolation spans the
  /// network and the scheduler — one switch enables the coherent defense).
  static sim::LinkModel effectiveLink(const DeploymentConfig& config);

  DeploymentConfig config_;
  crypto::Keychain keychain_;
  sim::Simulator simulator_;
  sim::Network network_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<Client>> clients_;
  bool started_ = false;
};

/// Convenience: build, run and summarize one deployment in a single call —
/// the shape of "execute one test scenario" used all over the benches.
RunResult runScenario(const DeploymentConfig& config);

}  // namespace avd::pbft
