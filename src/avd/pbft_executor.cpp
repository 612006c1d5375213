#include "avd/pbft_executor.h"

#include <algorithm>

#include <memory>
#include <vector>

#include "common/hash.h"
#include "faultinject/churn.h"
#include "faultinject/flood.h"
#include "faultinject/mac_corruptor.h"
#include "faultinject/network_faults.h"
#include "faultinject/reorder.h"
#include "faultinject/tamper.h"
#include "faultinject/twins.h"

namespace avd::core {

PbftAttackExecutor::PbftAttackExecutor(Hyperspace space,
                                       PbftExecutorOptions options)
    : space_(std::move(space)), options_(std::move(options)) {}

pbft::DeploymentConfig PbftAttackExecutor::buildConfig(
    const Point& point) const {
  pbft::DeploymentConfig config;
  config.pbft = options_.pbft;
  config.link = options_.link;
  config.clientRetx = options_.clientRetx;
  config.warmup = options_.warmup;
  config.measure = options_.measure;
  config.service = options_.service;

  config.correctClients = static_cast<std::uint32_t>(space_.valueOf(
      point, "correct_clients", options_.defaultCorrectClients));
  config.maliciousClients = static_cast<std::uint32_t>(space_.valueOf(
      point, "malicious_clients", options_.defaultMaliciousClients));

  const auto mask =
      static_cast<std::uint64_t>(space_.valueOf(point, "mac_mask", 0));
  if (mask != 0 && config.maliciousClients > 0) {
    config.maliciousClientBehavior.macPolicy = fi::makeMacCorruptor(mask);
  }

  switch (space_.valueOf(point, "replica_behavior", 0)) {
    case 0:
      break;
    case 1: {  // slow primary
      pbft::ReplicaBehavior primary;
      primary.slowPrimary = true;
      config.replicaBehaviors[0] = primary;
      break;
    }
    case 2: {  // slow primary + colluding client
      pbft::ReplicaBehavior primary;
      primary.slowPrimary = true;
      if (config.maliciousClients == 0) config.maliciousClients = 1;
      primary.colludingClient = config.pbft.replicaCount();
      config.maliciousClientBehavior.broadcastRequests = true;
      config.replicaBehaviors[0] = primary;
      break;
    }
    case 3: {  // spurious view changes
      pbft::ReplicaBehavior replica;
      replica.spuriousViewChangeInterval = config.pbft.requestTimeout / 2;
      config.replicaBehaviors[0] = replica;
      break;
    }
    case 4: {  // silent prepares
      pbft::ReplicaBehavior replica;
      replica.silentPrepares = true;
      config.replicaBehaviors[0] = replica;
      break;
    }
    case 5: {  // equivocating primary
      pbft::ReplicaBehavior primary;
      primary.equivocate = true;
      config.replicaBehaviors[0] = primary;
      break;
    }
    case 6: {  // one fast-clock backup (premature timeouts)
      pbft::ReplicaBehavior replica;
      replica.timerSkew = 0.1;
      config.replicaBehaviors[1] = replica;
      break;
    }
    case 7: {  // f+1 fast-clock backups — enough to co-opt view changes
      pbft::ReplicaBehavior replica;
      replica.timerSkew = 0.1;
      config.replicaBehaviors[1] = replica;
      config.replicaBehaviors[2] = replica;
      break;
    }
    default:
      break;
  }

  // Deterministic per scenario: re-running a point reproduces its outcome.
  config.seed = util::hashCombine(options_.baseSeed, space_.pointHash(point));
  return config;
}

pbft::RunResult PbftAttackExecutor::runConfigured(
    const pbft::DeploymentConfig& config, const Point* point) const {
  pbft::Deployment deployment(config);
  // Scheduled churn events reference their fault objects; keep them alive
  // for the duration of the run.
  std::vector<std::shared_ptr<fi::ChurnFault>> churnFaults;
  if (point != nullptr) {
    const auto dropPercent = space_.valueOf(*point, "drop_probability", 0);
    if (dropPercent > 0) {
      deployment.network().addFault(std::make_shared<fi::DropFault>(
          static_cast<double>(dropPercent) / 100.0));
    }
    const auto reorderPercent =
        space_.valueOf(*point, "reorder_intensity", 0);
    if (reorderPercent > 0) {
      deployment.network().addFault(std::make_shared<fi::ReorderFault>(
          static_cast<double>(reorderPercent) / 100.0, sim::msec(20)));
    }
    const auto tamperPercent =
        space_.valueOf(*point, "tamper_probability", 0);
    if (tamperPercent > 0) {
      deployment.network().addFault(std::make_shared<fi::TamperFault>(
          static_cast<double>(tamperPercent) / 100.0));
    }
    // Churn: scheduled crash–restart cycles against one replica. Target -1
    // disables the tool (index 0 of the choice dimension, so the dedup
    // baseline treats "no churn" as inactive); -2 is the protocol-aware
    // variant that re-acquires the current primary at every crash.
    const auto churnTarget = space_.valueOf(*point, "churn_target", -1);
    if (churnTarget == kChurnFollowPrimary ||
        (churnTarget >= 0 &&
         churnTarget < static_cast<std::int64_t>(config.pbft.replicaCount()))) {
      fi::ChurnFault::Options churn;
      if (churnTarget == kChurnFollowPrimary) {
        churn.dynamicTarget = [&deployment,
                               n = config.pbft.replicaCount()] {
          // The attacker's view of "who is primary": the highest view any
          // live replica has adopted. Crashed replicas hold stale views.
          util::ViewId view = 0;
          for (std::uint32_t r = 0; r < n; ++r) {
            const pbft::Replica& replica = deployment.replica(r);
            if (replica.alive()) view = std::max(view, replica.view());
          }
          return static_cast<util::NodeId>(view % n);
        };
      } else {
        churn.target = static_cast<util::NodeId>(churnTarget);
      }
      churn.firstCrash =
          sim::msec(space_.valueOf(*point, "churn_start_ms", 0));
      churn.downtime =
          sim::msec(space_.valueOf(*point, "churn_downtime_ms", 100));
      churn.period = sim::msec(space_.valueOf(*point, "churn_period_ms", 0));
      churnFaults.push_back(std::make_shared<fi::ChurnFault>(
          &deployment.simulator(), &deployment.network(), churn));
      churnFaults.back()->install();
    }
  }
  // Twins: mint two physical replicas per twinned identity behind a
  // deterministic partition schedule. Index 0 of twin_pairs disables the
  // tool, anchoring the dedup baseline; the fault objects own the twin
  // replicas, so they must outlive the run.
  std::vector<std::shared_ptr<fi::TwinFault>> twinFaults;
  if (point != nullptr) {
    const auto twinPairs = space_.valueOf(*point, "twin_pairs", 0);
    if (twinPairs > 0) {
      const auto n = static_cast<std::int64_t>(config.pbft.replicaCount());
      fi::TwinFault::Options twins;
      const std::int64_t first =
          std::clamp<std::int64_t>(space_.valueOf(*point, "twin_first", 0), 0,
                                   n - 1);
      for (std::int64_t i = 0; i < std::min(twinPairs, n); ++i) {
        twins.targets.push_back(static_cast<util::NodeId>((first + i) % n));
      }
      twins.activation =
          sim::msec(space_.valueOf(*point, "twin_start_ms", 0));
      twins.period = sim::msec(space_.valueOf(*point, "twin_period_ms", 0));
      twins.shape = space_.valueOf(*point, "twin_shape", 0) == 1
                        ? fi::TwinFault::Shape::kSplitHalf
                        : fi::TwinFault::Shape::kSplitParity;
      twinFaults.push_back(
          std::make_shared<fi::TwinFault>(&deployment, twins));
      twinFaults.back()->install();
    }
  }
  // Flood: an open-loop attack client pumping traffic at flood_rate.
  // Kind 0 (index 0 of the choice) disables the tool, so the dedup
  // baseline treats flood scenarios as active dimensions.
  std::unique_ptr<fi::FloodClient> flood;
  if (point != nullptr) {
    const auto floodKind = space_.valueOf(*point, "flood_kind", 0);
    if (floodKind > 0 && floodKind <= 4) {
      fi::FloodOptions options;
      options.kind = static_cast<fi::FloodKind>(floodKind);
      const auto rate = space_.valueOf(*point, "flood_rate", 1000);
      options.interval =
          rate > 0 ? std::max<sim::Time>(sim::sec(1) / rate, 1) : sim::msec(1);
      options.payloadBytes = static_cast<std::size_t>(
          std::max<std::int64_t>(space_.valueOf(*point, "flood_bytes", 1), 1));
      const auto target = space_.valueOf(*point, "flood_target", -1);
      options.target =
          target >= 0 &&
                  target < static_cast<std::int64_t>(config.pbft.replicaCount())
              ? static_cast<util::NodeId>(target)
              : util::kNoNode;
      flood = std::make_unique<fi::FloodClient>(
          config.pbft.replicaCount() + config.totalClients(), config.pbft,
          &deployment.keychain(), options);
      deployment.network().registerNode(flood.get());
      flood->install();
    }
  }
  return deployment.run();
}

double PbftAttackExecutor::baselineFor(std::uint32_t correctClients,
                                       std::uint32_t maliciousClients) {
  const auto key = std::make_pair(correctClients, maliciousClients);
  const auto it = baselineCache_.find(key);
  if (it != baselineCache_.end()) return it->second;

  pbft::DeploymentConfig config;
  config.pbft = options_.pbft;
  config.link = options_.link;
  config.clientRetx = options_.clientRetx;
  config.warmup = options_.warmup;
  config.measure = options_.measure;
  config.service = options_.service;
  config.correctClients = correctClients;
  // Tool-less malicious clients behave exactly like correct ones; keep them
  // so the offered load matches the attack run.
  config.maliciousClients = maliciousClients;
  config.seed = util::hashCombine(options_.baseSeed,
                                  util::hashCombine(correctClients + 1,
                                                    maliciousClients));

  const double throughput = runConfigured(config, nullptr).throughputRps;
  baselineCache_.emplace(key, throughput);
  return throughput;
}

Outcome PbftAttackExecutor::execute(const Point& point) {
  const pbft::DeploymentConfig config = buildConfig(point);
  const pbft::RunResult result = runConfigured(config, &point);
  ++executed_;

  Outcome outcome;
  outcome.throughputRps = result.throughputRps;
  outcome.avgLatencySec = result.avgLatencySec;
  outcome.viewChanges = result.viewChangesInitiated;
  outcome.safetyViolated = result.safetyViolated;
  if (result.safetyWitness) {
    outcome.safetyWitness = pbft::formatSafetyWitness(*result.safetyWitness);
  }
  outcome.restarts = result.restarts;
  outcome.recoveryLatencySec = result.recoveryLatencySec;
  outcome.queueDrops = result.queueDrops;
  outcome.quotaDrops = result.quotaDrops;

  const double baseline =
      baselineFor(config.correctClients, config.maliciousClients);
  outcome.impact =
      baseline > 0.0
          ? std::clamp(1.0 - result.throughputRps / baseline, 0.0, 1.0)
          : 0.0;
  return outcome;
}

Hyperspace makePaperMacHyperspace() {
  Hyperspace space;
  space.add(Dimension::grayBitmask("mac_mask", 12));
  space.add(Dimension::range("correct_clients", 10, 250, 10));
  space.add(Dimension::choice("malicious_clients", {1, 2}));
  return space;
}

Hyperspace makeFigure3Subspace() {
  Hyperspace space;
  space.add(Dimension::grayBitmask("mac_mask", 10));
  space.add(Dimension::range("correct_clients", 10, 100, 10));
  return space;
}

Hyperspace makeChurnHyperspace() {
  // Crash-timing exploration: which replica to cycle, when the first crash
  // lands (relative to checkpoint/view-change cadence), how long it stays
  // down, and whether it repeats. Index 0 of churn_target is -1 (tool off),
  // so the dedup baseline marks churn scenarios as active dimensions; -2 is
  // primary-tracking churn, the strongest crash-timing tool class.
  Hyperspace space;
  space.add(Dimension::choice("churn_target", {-1, 0, 1, 2, 3,
                                               kChurnFollowPrimary}));
  space.add(Dimension::range("churn_start_ms", 0, 2000, 250));
  space.add(Dimension::range("churn_downtime_ms", 50, 850, 100));
  space.add(Dimension::choice("churn_period_ms", {0, 400, 800}));
  space.add(Dimension::range("correct_clients", 10, 50, 10));
  return space;
}

Hyperspace makeFloodHyperspace() {
  // Resource-exhaustion exploration: which flood tool, how hard, how big,
  // and at whom. Index 0 of flood_kind disables the tool so non-flood
  // points anchor the dedup baseline. Rates bracket the bounded-ingress
  // service rate (~10k msgs/s/node with makeFloodExecutorOptions): 500/s is
  // background noise, 16000/s oversubscribes a shared queue outright.
  Hyperspace space;
  space.add(Dimension::choice("flood_kind", {0, 1, 2, 3, 4}));
  space.add(Dimension::choice("flood_rate", {500, 2000, 8000, 16000}));
  space.add(Dimension::choice("flood_bytes", {1, 256, 1024, 4096}));
  space.add(Dimension::choice("flood_target", {-1, 0, 1, 3}));
  space.add(Dimension::range("correct_clients", 10, 30, 10));
  return space;
}

Hyperspace makeTwinsHyperspace() {
  // Safety-hunting exploration: how many identities are twinned, where the
  // pairs sit relative to the view-0 primary, when the twins come online
  // (before warmup = divergence from sequence 1; later = divergence after
  // shared prefix + checkpoints), and the partition schedule. Index 0 of
  // twin_pairs is "twins off" so non-twin points anchor the dedup
  // baseline. One pair stays within f=1 — those points probe robustness;
  // two pairs exceed the bound and hunt conflicting commit certificates.
  Hyperspace space;
  space.add(Dimension::choice("twin_pairs", {0, 1, 2}));
  space.add(Dimension::choice("twin_first", {0, 1, 2, 3}));
  space.add(Dimension::choice("twin_start_ms", {0, 250, 500, 1000}));
  space.add(Dimension::choice("twin_period_ms", {0, 400, 900}));
  space.add(Dimension::choice("twin_shape", {0, 1}));
  space.add(Dimension::range("correct_clients", 10, 30, 10));
  return space;
}

PbftExecutorOptions makePaperExecutorOptions(sim::Time measure) {
  PbftExecutorOptions options;
  options.pbft.requestTimeout = sim::msec(400);
  options.pbft.viewChangeTimeout = sim::msec(400);
  options.clientRetx = sim::msec(100);
  options.link = sim::LinkModel{sim::msec(5), sim::usec(500)};
  options.warmup = sim::msec(400);
  options.measure = measure;
  return options;
}

PbftExecutorOptions makeFloodExecutorOptions(bool defended) {
  PbftExecutorOptions options;
  options.link.ingressCapacity = 64;
  options.link.ingressByteBudget = 32 * 1024;
  options.link.ingressServiceTime = sim::usec(100);
  if (defended) fi::enableFloodDefenses(options.pbft);
  return options;
}

}  // namespace avd::core
