#include "pbft/deployment.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/hash.h"

namespace avd::pbft {

std::unique_ptr<Service> Deployment::makeService(ServiceKind kind) {
  switch (kind) {
    case ServiceKind::kCounter:
      return std::make_unique<CounterService>();
    case ServiceKind::kKv:
      return std::make_unique<KvService>();
  }
  return std::make_unique<CounterService>();
}

std::string formatSafetyWitness(const SafetyWitness& witness) {
  const auto appendCert = [](std::string& out, util::NodeId replica,
                             std::uint64_t digest,
                             const std::vector<util::NodeId>& voters) {
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(digest));
    out += 'r';
    out += std::to_string(replica);
    out += '=';
    out += buffer;
    out += '[';
    if (voters.empty()) {
      out += "synced";
    } else {
      out += "votes ";
      for (std::size_t i = 0; i < voters.size(); ++i) {
        if (i != 0) out += '.';
        out += std::to_string(voters[i]);
      }
    }
    out += "]";
  };
  std::string out = "seq=" + std::to_string(witness.seq) + " ";
  appendCert(out, witness.replicaA, witness.digestA, witness.votersA);
  out += ' ';
  appendCert(out, witness.replicaB, witness.digestB, witness.votersB);
  return out;
}

sim::LinkModel Deployment::effectiveLink(const DeploymentConfig& config) {
  sim::LinkModel link = config.link;
  if (config.pbft.fairClientScheduling) {
    // Aardvark's deployment shape: per-sender client lanes serviced
    // round-robin, with replica-to-replica agreement traffic on its own
    // NIC so a client flood cannot displace it.
    link.fairIngress = true;
    link.ingressPriorityNodes = config.pbft.replicaCount();
  }
  return link;
}

Deployment::Deployment(DeploymentConfig config)
    : config_(std::move(config)),
      keychain_(util::hashCombine(util::fnv1a("avd.deployment"),
                                  config_.seed)),
      simulator_(config_.seed),
      network_(&simulator_, effectiveLink(config_)) {
  const std::uint32_t n = config_.pbft.replicaCount();

  replicas_.reserve(n);
  for (util::NodeId id = 0; id < n; ++id) {
    ReplicaBehavior behavior;
    if (const auto it = config_.replicaBehaviors.find(id);
        it != config_.replicaBehaviors.end()) {
      behavior = it->second;
    }
    replicas_.push_back(std::make_unique<Replica>(
        id, config_.pbft, &keychain_, makeService(config_.service), behavior));
    network_.registerNode(replicas_.back().get());
  }

  clients_.reserve(config_.totalClients());
  for (std::uint32_t i = 0; i < config_.maliciousClients; ++i) {
    clients_.push_back(std::make_unique<Client>(
        maliciousClientId(i), config_.pbft, &keychain_,
        config_.maliciousClientBehavior, config_.clientRetx));
    network_.registerNode(clients_.back().get());
  }
  for (std::uint32_t i = 0; i < config_.correctClients; ++i) {
    clients_.push_back(std::make_unique<Client>(
        correctClientId(i), config_.pbft, &keychain_,
        config_.correctClientBehavior, config_.clientRetx));
    network_.registerNode(clients_.back().get());
  }
}

std::unique_ptr<Replica> Deployment::makeTwinReplica(util::NodeId id) const {
  if (id >= replicas_.size()) {
    throw std::out_of_range("makeTwinReplica: unknown replica id");
  }
  ReplicaBehavior behavior;
  if (const auto it = config_.replicaBehaviors.find(id);
      it != config_.replicaBehaviors.end()) {
    behavior = it->second;
  }
  return std::make_unique<Replica>(id, config_.pbft, &keychain_,
                                   makeService(config_.service), behavior);
}

void Deployment::runFor(sim::Time duration) {
  if (!started_) {
    started_ = true;
    for (auto& replica : replicas_) replica->start();
    for (auto& client : clients_) client->start();
  }
  simulator_.runUntil(simulator_.now() + duration);
}

RunResult Deployment::run() {
  runFor(config_.warmup + config_.measure);
  return collect();
}

RunResult Deployment::collect() const {
  RunResult result;
  const sim::Time windowStart = config_.warmup;
  const sim::Time windowEnd = config_.warmup + config_.measure;
  const double windowSeconds = sim::toSeconds(config_.measure);

  double latencySum = 0.0;
  for (std::uint32_t i = 0; i < config_.correctClients; ++i) {
    const Client& client = *clients_[config_.maliciousClients + i];
    for (const Client::Completion& completion : client.completions()) {
      if (completion.when < windowStart || completion.when >= windowEnd) {
        continue;
      }
      ++result.correctCompleted;
      latencySum += sim::toSeconds(completion.latency);
    }
  }
  for (std::uint32_t i = 0; i < config_.maliciousClients; ++i) {
    const Client& client = *clients_[i];
    for (const Client::Completion& completion : client.completions()) {
      if (completion.when >= windowStart && completion.when < windowEnd) {
        ++result.maliciousCompleted;
      }
    }
  }

  result.throughputRps =
      windowSeconds > 0.0
          ? static_cast<double>(result.correctCompleted) / windowSeconds
          : 0.0;
  result.avgLatencySec =
      result.correctCompleted > 0
          ? latencySum / static_cast<double>(result.correctCompleted)
          : 0.0;

  for (const auto& replica : replicas_) {
    result.viewChangesInitiated += replica->stats().viewChangesInitiated;
    result.maxView = std::max(result.maxView, replica->view());
    result.restarts += replica->restarts();
  }

  // Recovery latency: from the last replica restart to the first correct
  // completion after it. If nothing completed after the last restart the
  // system never recovered within the run — charge the full remaining time.
  sim::Time lastRestart = 0;
  for (const auto& replica : replicas_) {
    lastRestart = std::max(lastRestart, replica->lastRestartAt());
  }
  if (lastRestart > 0) {
    sim::Time firstCompletionAfter = 0;
    for (std::uint32_t i = 0; i < config_.correctClients; ++i) {
      const Client& client = *clients_[config_.maliciousClients + i];
      for (const Client::Completion& completion : client.completions()) {
        if (completion.when < lastRestart) continue;
        if (firstCompletionAfter == 0 ||
            completion.when < firstCompletionAfter) {
          firstCompletionAfter = completion.when;
        }
        break;  // completions are chronological per client
      }
    }
    const sim::Time recoveredAt =
        firstCompletionAfter > 0 ? firstCompletionAfter : simulator_.now();
    result.recoveryLatencySec = sim::toSeconds(recoveredAt - lastRestart);
  }

  // Safety oracle: every pair of non-twin replicas must agree on the commit
  // certificate executed at every sequence number both executed. Twinned
  // identities are excluded — their two physical instances ARE the injected
  // fault (equivocation by construction, worth at most one Byzantine
  // identity each); what must still hold, as long as at most f identities
  // are twinned, is agreement among the remaining replicas. On a conflict
  // the witness snapshots both certificates: the voter-set intersection is
  // exactly the set of identities that double-voted.
  for (std::size_t a = 0; a + 1 < replicas_.size() && !result.safetyViolated;
       ++a) {
    if (network_.isTwinned(static_cast<util::NodeId>(a))) continue;
    const auto& certsA = replicas_[a]->commitCerts();
    for (std::size_t b = a + 1; b < replicas_.size() && !result.safetyViolated;
         ++b) {
      if (network_.isTwinned(static_cast<util::NodeId>(b))) continue;
      const auto& certsB = replicas_[b]->commitCerts();
      const bool aIsShorter = certsA.size() <= certsB.size();
      const auto& shorter = aIsShorter ? certsA : certsB;
      const auto& longer = aIsShorter ? certsB : certsA;
      for (const auto& [seq, cert] : shorter) {
        const auto it = longer.find(seq);
        if (it == longer.end() || it->second.digest == cert.digest) continue;
        result.safetyViolated = true;
        SafetyWitness witness;
        witness.seq = seq;
        witness.replicaA = static_cast<util::NodeId>(a);
        witness.replicaB = static_cast<util::NodeId>(b);
        const Replica::CommitCert& certA = aIsShorter ? cert : it->second;
        const Replica::CommitCert& certB = aIsShorter ? it->second : cert;
        witness.digestA = certA.digest;
        witness.digestB = certB.digest;
        witness.votersA = certA.voters;
        witness.votersB = certB.voters;
        result.safetyWitness = std::move(witness);
        break;
      }
    }
  }

  result.network = network_.counters();
  result.eventsExecuted = simulator_.executedEvents();
  result.queueDrops = result.network.droppedQueueOverflow;
  result.peakQueueDepth = result.network.peakIngressDepth;
  for (const auto& replica : replicas_) {
    const ReplicaStats& stats = replica->stats();
    result.quotaDrops +=
        stats.quotaDrops + stats.oversizedRejected + stats.orderingDropped;
    result.replaysSuppressed += stats.replaysSuppressed;
    result.checkpointsTaken += stats.checkpointsTaken;
    result.stateTransfers += stats.stateTransfersCompleted;
    result.prePreparesParked += stats.prePreparesPended;
  }
  return result;
}

RunResult runScenario(const DeploymentConfig& config) {
  Deployment deployment(config);
  return deployment.run();
}

}  // namespace avd::pbft
