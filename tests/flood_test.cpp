// Resource-exhaustion tests: the bounded ingress queue in the simulated
// network, the flooding attack tools, the Aardvark-style replica defenses,
// and the flood campaign plumbing (hyperspace, outcome metrics, dedup,
// journal determinism).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "avd/pbft_executor.h"
#include "campaign/dedup.h"
#include "campaign/runner.h"
#include "campaign/systems.h"
#include "faultinject/flood.h"
#include "pbft/deployment.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace avd {
namespace {

// --- Bounded ingress at the network layer ------------------------------------

class SinkNode final : public sim::Node {
 public:
  explicit SinkNode(util::NodeId id) : Node(id) {}
  void receive(util::NodeId from, const sim::MessagePtr&) override {
    received.push_back(from);
    receivedAt.push_back(now());
  }
  std::vector<util::NodeId> received;
  std::vector<sim::Time> receivedAt;

  using Node::send;
};

class SizedPayload final : public sim::Message {
 public:
  explicit SizedPayload(std::size_t bytes) : bytes_(bytes) {}
  std::uint32_t kind() const noexcept override { return 0xF00D; }
  std::size_t wireSize() const noexcept override { return bytes_; }

 private:
  std::size_t bytes_;
};

struct IngressHarness {
  explicit IngressHarness(sim::LinkModel model, std::size_t nodeCount = 4)
      : simulator(7), network(&simulator, model) {
    for (util::NodeId id = 0; id < nodeCount; ++id) {
      nodes.push_back(std::make_unique<SinkNode>(id));
      network.registerNode(nodes.back().get());
    }
  }

  sim::Simulator simulator;
  sim::Network network;
  std::vector<std::unique_ptr<SinkNode>> nodes;
};

TEST(BoundedIngress, ZeroedModelKeepsDirectDelivery) {
  IngressHarness h(sim::LinkModel{sim::msec(1), 0});
  ASSERT_FALSE(h.network.linkModel().ingressEnabled());
  for (int i = 0; i < 100; ++i) {
    h.nodes[0]->send(1, std::make_shared<SizedPayload>(64));
  }
  h.simulator.run();
  EXPECT_EQ(h.nodes[1]->received.size(), 100u);
  EXPECT_EQ(h.network.counters().droppedQueueOverflow, 0u);
  EXPECT_EQ(h.network.counters().peakIngressDepth, 0u);
}

TEST(BoundedIngress, SharedQueueCapacityOverflowDropsNewest) {
  sim::LinkModel model{sim::msec(1), 0};
  model.ingressCapacity = 4;
  model.ingressServiceTime = sim::msec(10);  // slower than the burst
  IngressHarness h(model);
  for (int i = 0; i < 10; ++i) {
    h.nodes[0]->send(1, std::make_shared<SizedPayload>(64));
  }
  h.simulator.run();
  EXPECT_EQ(h.nodes[1]->received.size(), 4u);
  EXPECT_EQ(h.network.counters().droppedQueueOverflow, 6u);
  EXPECT_EQ(h.network.counters().peakIngressDepth, 4u);
  EXPECT_EQ(h.network.ingressStats(1).drops, 6u);
  EXPECT_EQ(h.network.ingressStats(1).peakDepth, 4u);
  EXPECT_EQ(h.network.ingressStats(0).drops, 0u) << "per-receiver stats";
}

TEST(BoundedIngress, ByteBudgetAdmitsOneOversizeOnlyIntoAnEmptyLane) {
  sim::LinkModel model{sim::msec(1), 0};
  model.ingressByteBudget = 100;
  model.ingressServiceTime = sim::msec(10);
  IngressHarness h(model);
  // A message above the whole budget still enters an empty lane (otherwise
  // it could never be delivered at all)...
  h.nodes[0]->send(1, std::make_shared<SizedPayload>(500));
  // ...but everything behind it is over budget until it drains.
  h.nodes[0]->send(1, std::make_shared<SizedPayload>(64));
  h.nodes[0]->send(1, std::make_shared<SizedPayload>(64));
  h.simulator.run();
  EXPECT_EQ(h.nodes[1]->received.size(), 1u);
  EXPECT_EQ(h.network.counters().droppedQueueOverflow, 2u);
  EXPECT_EQ(h.network.counters().peakIngressBytes, 500u);
}

TEST(BoundedIngress, ServiceTimePacesDeliveries) {
  sim::LinkModel model{sim::msec(1), 0};
  model.ingressServiceTime = sim::msec(3);
  IngressHarness h(model);
  for (int i = 0; i < 3; ++i) {
    h.nodes[0]->send(1, std::make_shared<SizedPayload>(64));
  }
  h.simulator.run();
  ASSERT_EQ(h.nodes[1]->received.size(), 3u);
  // Arrive together at t=1ms, then one service completion every 3ms.
  EXPECT_EQ(h.nodes[1]->receivedAt[0], sim::msec(4));
  EXPECT_EQ(h.nodes[1]->receivedAt[1], sim::msec(7));
  EXPECT_EQ(h.nodes[1]->receivedAt[2], sim::msec(10));
}

TEST(BoundedIngress, FairLanesIsolateTheFlooder) {
  sim::LinkModel model{sim::msec(1), 0};
  model.ingressCapacity = 4;
  model.ingressServiceTime = sim::msec(5);
  model.fairIngress = true;
  IngressHarness h(model);
  // Node 0 floods, node 2 sends a polite trickle; with per-sender lanes the
  // flood can only exhaust its own lane.
  for (int i = 0; i < 50; ++i) {
    h.nodes[0]->send(1, std::make_shared<SizedPayload>(64));
  }
  for (int i = 0; i < 3; ++i) {
    h.nodes[2]->send(1, std::make_shared<SizedPayload>(64));
  }
  h.simulator.run();
  const auto& got = h.nodes[1]->received;
  EXPECT_EQ(std::count(got.begin(), got.end(), util::NodeId{2}), 3)
      << "every polite message survives the flood";
  EXPECT_EQ(std::count(got.begin(), got.end(), util::NodeId{0}), 4)
      << "the flooder keeps only its own lane's capacity";
  EXPECT_EQ(h.network.counters().droppedQueueOverflow, 46u);
}

TEST(BoundedIngress, PrioritySendersBypassTheQueue) {
  sim::LinkModel model{sim::msec(1), 0};
  model.ingressCapacity = 2;
  model.ingressServiceTime = sim::msec(10);
  model.ingressPriorityNodes = 1;  // sender 0 has its own NIC
  IngressHarness h(model);
  for (int i = 0; i < 10; ++i) {
    h.nodes[0]->send(1, std::make_shared<SizedPayload>(64));
    h.nodes[2]->send(1, std::make_shared<SizedPayload>(64));
  }
  h.simulator.run();
  const auto& got = h.nodes[1]->received;
  EXPECT_EQ(std::count(got.begin(), got.end(), util::NodeId{0}), 10)
      << "priority traffic is never queued or dropped";
  EXPECT_EQ(std::count(got.begin(), got.end(), util::NodeId{2}), 2);
  EXPECT_EQ(h.network.counters().droppedQueueOverflow, 8u);
}

TEST(BoundedIngress, SameSeedRunsProduceIdenticalDropCounters) {
  const auto run = [] {
    sim::LinkModel model{sim::msec(1), sim::usec(300)};
    model.ingressCapacity = 3;
    model.ingressServiceTime = sim::msec(2);
    IngressHarness h(model);
    for (int i = 0; i < 200; ++i) {
      h.nodes[i % 3]->send(3, std::make_shared<SizedPayload>(64));
    }
    h.simulator.run();
    return h.network.counters();
  };
  const sim::NetworkCounters a = run();
  const sim::NetworkCounters b = run();
  EXPECT_EQ(a.droppedQueueOverflow, b.droppedQueueOverflow);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.peakIngressDepth, b.peakIngressDepth);
  EXPECT_EQ(a.peakIngressBytes, b.peakIngressBytes);
  EXPECT_GT(a.droppedQueueOverflow, 0u);
}

// --- Flood tools against a PBFT deployment -----------------------------------

/// A deployment with a bounded receive path — the resource surface the
/// flood tools attack. Mirrors core::makeFloodExecutorOptions.
pbft::DeploymentConfig boundedConfig(bool defended, std::uint64_t seed = 17) {
  pbft::DeploymentConfig config;
  config.pbft.f = 1;
  config.pbft.requestTimeout = sim::msec(400);
  config.pbft.viewChangeTimeout = sim::msec(400);
  config.correctClients = 10;
  config.clientRetx = sim::msec(100);
  config.warmup = sim::msec(300);
  config.measure = sim::msec(1500);
  config.seed = seed;
  config.link = sim::LinkModel{sim::usec(500), sim::usec(100)};
  config.link.ingressCapacity = 64;
  config.link.ingressByteBudget = 32 * 1024;
  config.link.ingressServiceTime = sim::usec(100);
  if (defended) fi::enableFloodDefenses(config.pbft);
  return config;
}

struct FloodRun {
  pbft::RunResult result;
  std::uint64_t floodSent = 0;
  std::uint64_t floodReplies = 0;
  std::uint64_t replaysSuppressed = 0;
  std::uint64_t oversizedRejected = 0;
  std::uint64_t replyCacheEvicted = 0;
  std::uint64_t syncBytesCapped = 0;
  std::size_t replyCacheBytes = 0;
};

FloodRun runFlood(const pbft::DeploymentConfig& config,
                  fi::FloodOptions options) {
  pbft::Deployment deployment(config);
  fi::FloodClient flood(config.pbft.replicaCount() + config.totalClients(),
                        config.pbft, &deployment.keychain(), options);
  deployment.network().registerNode(&flood);
  flood.install();

  FloodRun run;
  run.result = deployment.run();
  run.floodSent = flood.messagesSent();
  run.floodReplies = flood.repliesReceived();
  for (std::uint32_t r = 0; r < deployment.replicaCount(); ++r) {
    const pbft::ReplicaStats& stats = deployment.replica(r).stats();
    run.replaysSuppressed += stats.replaysSuppressed;
    run.oversizedRejected += stats.oversizedRejected;
    run.replyCacheEvicted += stats.replyCacheEvicted;
    run.syncBytesCapped += stats.syncBytesCapped;
    run.replyCacheBytes =
        std::max(run.replyCacheBytes, deployment.replica(r).replyCacheBytes());
  }
  return run;
}

fi::FloodOptions spamAt(std::uint32_t perSecond) {
  fi::FloodOptions options;
  options.kind = fi::FloodKind::kRequestSpam;
  options.interval = sim::sec(1) / perSecond;
  return options;
}

TEST(FloodAttack, RequestSpamStarvesTheUndefendedDeployment) {
  const pbft::DeploymentConfig config = boundedConfig(/*defended=*/false);
  const pbft::RunResult baseline = pbft::runScenario(config);
  ASSERT_GT(baseline.throughputRps, 500.0);

  const FloodRun flood = runFlood(config, spamAt(16000));
  EXPECT_LT(flood.result.throughputRps, 0.5 * baseline.throughputRps)
      << "the shared bounded queue lets the flood displace correct traffic";
  EXPECT_GT(flood.result.queueDrops, 1000u);
  EXPECT_GT(flood.result.peakQueueDepth, 0u);
  EXPECT_GT(flood.floodSent, 10000u);
  EXPECT_FALSE(flood.result.safetyViolated)
      << "resource exhaustion is a liveness attack, never a safety one";
}

TEST(FloodAttack, DefenseProfileRestoresServiceUnderTheSameSpam) {
  const pbft::DeploymentConfig defended = boundedConfig(/*defended=*/true);
  const pbft::RunResult baseline = pbft::runScenario(defended);
  ASSERT_GT(baseline.throughputRps, 500.0);

  const FloodRun flood = runFlood(defended, spamAt(16000));
  EXPECT_GT(flood.result.throughputRps, 0.8 * baseline.throughputRps)
      << "fair lanes + admission quotas confine the flood's damage";
  EXPECT_GT(flood.result.quotaDrops, 0u)
      << "the admission layer visibly sheds the flood";
  EXPECT_FALSE(flood.result.safetyViolated)
      << "no committed state may be lost under defense";
  EXPECT_LE(flood.result.maxView, 3u)
      << "at most a brief view transient while the quotas engage — not the "
         "sustained thrashing the undefended deployment suffers";
}

TEST(FloodAttack, SameSeedFloodRunsAreIdentical) {
  const pbft::DeploymentConfig config = boundedConfig(/*defended=*/false);
  const FloodRun a = runFlood(config, spamAt(8000));
  const FloodRun b = runFlood(config, spamAt(8000));
  EXPECT_EQ(a.result.throughputRps, b.result.throughputRps);
  EXPECT_EQ(a.result.correctCompleted, b.result.correctCompleted);
  EXPECT_EQ(a.result.queueDrops, b.result.queueDrops);
  EXPECT_EQ(a.result.network.delivered, b.result.network.delivered);
  EXPECT_EQ(a.result.eventsExecuted, b.result.eventsExecuted);
  EXPECT_EQ(a.floodSent, b.floodSent);
}

TEST(FloodAttack, OversizedPayloadsAreRejectedBeforeProtocolWork) {
  pbft::DeploymentConfig config = boundedConfig(/*defended=*/true);
  fi::FloodOptions options;
  options.kind = fi::FloodKind::kOversizedPayload;
  options.interval = sim::sec(1) / 2000;
  options.payloadBytes = 4096;  // above Config::maxRequestBytes
  const FloodRun flood = runFlood(config, options);
  EXPECT_GT(flood.oversizedRejected, 0u);
  EXPECT_GT(flood.result.throughputRps, 100.0)
      << "correct clients keep making progress";
}

TEST(FloodAttack, ReplayStormIsSuppressedAndReplyCacheStaysBounded) {
  // Satellite: reply-cache eviction at the stable checkpoint bounds cache
  // growth under a replay storm, without ever weakening at-most-once.
  pbft::DeploymentConfig config = boundedConfig(/*defended=*/true);
  fi::FloodOptions options;
  options.kind = fi::FloodKind::kReplayStorm;
  options.interval = sim::sec(1) / 8000;
  options.payloadBytes = 512;
  const FloodRun flood = runFlood(config, options);
  EXPECT_GT(flood.replaysSuppressed, 100u)
      << "at most one cached-reply resend per admission window";
  EXPECT_GT(flood.replyCacheEvicted, 0u)
      << "replies older than the stable checkpoint's snapshot are evicted";
  EXPECT_LT(flood.replyCacheBytes, std::size_t{64} * 1024)
      << "the cache holds at most one recent reply per client";
  EXPECT_FALSE(flood.result.safetyViolated);
}

TEST(FloodAttack, ReplayStormAmplifiesAgainstTheUndefendedCache) {
  // The observable the storm exploits: each replayed request earns a resent
  // reply from the cache, so bandwidth out scales with replay rate.
  pbft::DeploymentConfig config = boundedConfig(/*defended=*/false);
  fi::FloodOptions options;
  options.kind = fi::FloodKind::kReplayStorm;
  options.interval = sim::sec(1) / 4000;
  const FloodRun flood = runFlood(config, options);
  EXPECT_GT(flood.floodReplies, 100u)
      << "no replay suppression: the cache answers the storm";
}

TEST(FloodAttack, SyncByteBudgetCapsStatusReplayAmplification) {
  // Satellite: the per-peer SyncSeq/retransmission budget is on *bytes*, so
  // a replayed lagging STATUS cannot elicit unbounded state-transfer push.
  pbft::DeploymentConfig uncapped = boundedConfig(/*defended=*/false);
  uncapped.pbft.syncBytesPerPeer = 0;
  pbft::DeploymentConfig capped = boundedConfig(/*defended=*/false);
  capped.pbft.syncBytesPerPeer = 4 * 1024;

  fi::FloodOptions options;
  options.kind = fi::FloodKind::kStatusAmplify;
  options.interval = sim::msec(2);
  options.target = 3;

  const FloodRun a = runFlood(uncapped, options);
  const FloodRun b = runFlood(capped, options);
  EXPECT_GT(a.floodSent, 100u);
  EXPECT_GT(b.syncBytesCapped, 0u) << "the cap visibly engages";
  EXPECT_LT(b.result.network.bytesSent, a.result.network.bytesSent)
      << "capping the per-peer budget shrinks the amplification";
}

// --- Executor, hyperspace and campaign plumbing ------------------------------

/// Point in makeFloodHyperspace() order: {flood_kind, flood_rate,
/// flood_bytes, flood_target, correct_clients}.
core::Point spamPoint() { return {1, 3, 0, 0, 1}; }  // spam @16k, broadcast

TEST(FloodHyperspace, ShapeMatchesTheDocumentedDimensions) {
  const core::Hyperspace space = core::makeFloodHyperspace();
  ASSERT_EQ(space.dimensionCount(), 5u);
  EXPECT_EQ(space.dimension(0).name(), "flood_kind");
  EXPECT_EQ(space.dimension(1).name(), "flood_rate");
  EXPECT_EQ(space.dimension(2).name(), "flood_bytes");
  EXPECT_EQ(space.dimension(3).name(), "flood_target");
  EXPECT_EQ(space.dimension(4).name(), "correct_clients");
  EXPECT_EQ(space.dimension(0).value(0), 0) << "index 0 = flood off";
  EXPECT_EQ(space.dimension(1).value(3), 16000);
}

TEST(FloodExecutor, UndefendedSpamScoresHighDefendedScoresLow) {
  // The acceptance ablation: the same scenario point must read >= 0.5
  // impact on the vulnerable deployment and <= 0.2 with the defense
  // profile, with the committed-state oracle clean both ways.
  const auto undefended = campaign::makeSystemExecutor("pbft-flood", 1);
  const core::Outcome raw = undefended->execute(spamPoint());
  EXPECT_GE(raw.impact, 0.5);
  EXPECT_GT(raw.queueDrops, 0u);
  EXPECT_FALSE(raw.safetyViolated);

  const auto defended =
      campaign::makeSystemExecutor("pbft-flood-defended", 1);
  const core::Outcome guarded = defended->execute(spamPoint());
  EXPECT_LE(guarded.impact, 0.2);
  EXPECT_GT(guarded.quotaDrops, 0u);
  EXPECT_FALSE(guarded.safetyViolated);
}

TEST(FloodExecutor, FloodOffPointIsNearBaseline) {
  const auto executor = campaign::makeSystemExecutor("pbft-flood", 1);
  const core::Outcome outcome = executor->execute({0, 0, 0, 0, 1});
  EXPECT_LT(outcome.impact, 0.2);
}

TEST(FloodExecutor, OutcomesAreDeterministicAcrossExecutors) {
  const auto once = [] {
    return campaign::makeSystemExecutor("pbft-flood", 1)->execute(spamPoint());
  };
  const core::Outcome a = once();
  const core::Outcome b = once();
  EXPECT_EQ(a.impact, b.impact);
  EXPECT_EQ(a.throughputRps, b.throughputRps);
  EXPECT_EQ(a.queueDrops, b.queueDrops);
  EXPECT_EQ(a.quotaDrops, b.quotaDrops);
  EXPECT_EQ(a.viewChanges, b.viewChanges);
}

TEST(FloodDedup, ResourceBandSplitsFloodClassesFromTimingClasses) {
  core::Hyperspace space = core::makeFloodHyperspace();
  core::TestRecord timing;
  timing.point = {1, 3, 0, 0, 1};
  timing.outcome.impact = 0.8;
  core::TestRecord flood = timing;
  flood.outcome.queueDrops = 50000;

  const campaign::VulnSignature a = campaign::signatureOf(space, timing);
  const campaign::VulnSignature b = campaign::signatureOf(space, flood);
  EXPECT_NE(a, b) << "same impact, different resource damage";
  EXPECT_EQ(a.resourceBand, 0);
  EXPECT_EQ(b.resourceBand, 3);
  const std::string label = campaign::signatureLabel(space, b);
  EXPECT_NE(label.find("resource drops >10k"), std::string::npos) << label;
  EXPECT_EQ(campaign::signatureLabel(space, a).find("resource drops"),
            std::string::npos)
      << "band 0 stays silent, like the restart band";
}

std::string floodScratchDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "avd_flood_test" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FloodCampaign, SameSeedCampaignsWriteByteIdenticalJournals) {
  const auto runCampaign = [](const std::string& dir) {
    campaign::CampaignOptions options;
    options.seed = 99;
    options.totalTests = 8;
    options.outDir = dir;
    options.system = "pbft-flood";
    options.checkpointEvery = 4;
    campaign::CampaignRunner runner(
        [] {
          core::PbftExecutorOptions executorOptions =
              core::makeFloodExecutorOptions(false);
          executorOptions.measure = sim::msec(1000);
          return std::make_unique<core::PbftAttackExecutor>(
              core::makeFloodHyperspace(), executorOptions);
        },
        options);
    return runner.run();
  };

  const std::string dirA = floodScratchDir("journal_a");
  const std::string dirB = floodScratchDir("journal_b");
  const campaign::CampaignResult a = runCampaign(dirA);
  const campaign::CampaignResult b = runCampaign(dirB);

  const std::string journalA = readAll(dirA + "/journal.jsonl");
  ASSERT_FALSE(journalA.empty());
  EXPECT_EQ(journalA, readAll(dirB + "/journal.jsonl"))
      << "same-seed flood campaigns must be byte-identical";

  std::uint64_t dropsA = 0;
  std::uint64_t dropsB = 0;
  for (const core::TestRecord& record : a.history) {
    dropsA += record.outcome.queueDrops;
  }
  for (const core::TestRecord& record : b.history) {
    dropsB += record.outcome.queueDrops;
  }
  EXPECT_EQ(dropsA, dropsB) << "identical queue-drop counters";
  EXPECT_EQ(a.history.size(), 8u);
}

}  // namespace
}  // namespace avd
