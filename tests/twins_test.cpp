// Twins fault tool and safety-violation oracle tests.
//
// Three layers: the Network's twin routing primitive (instance pinning,
// cross-side suppression, sender-side resolution of twinned receivers),
// the deployment-level safety semantics (within the f bound — up to f
// twinned identities, including under churn, view changes, and partition
// heal — the oracle must stay silent; beyond it a seeded scenario
// deterministically produces conflicting commit certificates), and the
// AVD surface (twins hyperspace points reach the executor and safety
// outcomes lead the dedup report).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "avd/pbft_executor.h"
#include "campaign/dedup.h"
#include "campaign/journal.h"
#include "campaign/systems.h"
#include "faultinject/churn.h"
#include "faultinject/network_faults.h"
#include "faultinject/twins.h"
#include "pbft/deployment.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace avd {
namespace {

// --- Network twin routing ----------------------------------------------------

class ProbeNode final : public sim::Node {
 public:
  explicit ProbeNode(util::NodeId id) : Node(id) {}

  void receive(util::NodeId from, const sim::MessagePtr&) override {
    received.push_back(from);
  }

  std::vector<util::NodeId> received;

  using Node::send;
};

class Ping final : public sim::Message {
 public:
  std::uint32_t kind() const noexcept override { return 0xF00D; }
};

struct TwinNetFixture : ::testing::Test {
  TwinNetFixture()
      : simulator(1), network(&simulator, sim::LinkModel{sim::msec(1), 0}) {
    for (util::NodeId id = 0; id < 3; ++id) {
      nodes.push_back(std::make_unique<ProbeNode>(id));
      network.registerNode(nodes.back().get());
    }
    twin = std::make_unique<ProbeNode>(0);
    network.registerTwin(twin.get());
    // Node 1 lives on side 1 with the twin; node 2 stays on side 0.
    network.setTwinRouter(
        [](util::NodeId node, sim::Time) { return node == 1 ? 1 : 0; });
  }

  sim::Simulator simulator;
  sim::Network network;
  std::vector<std::unique_ptr<ProbeNode>> nodes;
  std::unique_ptr<ProbeNode> twin;
};

TEST_F(TwinNetFixture, RegisterTwinTracksInstances) {
  EXPECT_TRUE(network.isTwinned(0));
  EXPECT_FALSE(network.isTwinned(1));
  EXPECT_EQ(network.twinInstance(0), twin.get());
  EXPECT_EQ(network.twinInstance(1), nullptr);
  EXPECT_EQ(network.twinCount(), 1u);
  EXPECT_EQ(network.node(0), nodes[0].get())
      << "node() keeps resolving to the side-0 instance";
}

TEST_F(TwinNetFixture, TwinnedReceiverResolvesToSenderSideInstance) {
  nodes[2]->send(0, std::make_shared<Ping>());  // side 0 -> original
  nodes[1]->send(0, std::make_shared<Ping>());  // side 1 -> twin
  simulator.run();
  ASSERT_EQ(nodes[0]->received.size(), 1u);
  EXPECT_EQ(nodes[0]->received[0], 2u);
  ASSERT_EQ(twin->received.size(), 1u);
  EXPECT_EQ(twin->received[0], 1u);
}

TEST_F(TwinNetFixture, CrossSideSendsToNonTwinsAreSuppressed) {
  nodes[1]->send(2, std::make_shared<Ping>());  // side 1 -> side 0: cut
  twin->send(2, std::make_shared<Ping>());      // twin (side 1) -> side 0: cut
  nodes[0]->send(2, std::make_shared<Ping>());  // side 0 -> side 0: delivered
  twin->send(1, std::make_shared<Ping>());      // twin -> side-1 peer: ok
  simulator.run();
  ASSERT_EQ(nodes[2]->received.size(), 1u);
  EXPECT_EQ(nodes[2]->received[0], 0u);
  ASSERT_EQ(nodes[1]->received.size(), 1u);
  EXPECT_EQ(nodes[1]->received[0], 0u)
      << "the twin's traffic carries the shared logical id";
  EXPECT_EQ(network.counters().droppedTwinRouting, 2u);
}

TEST_F(TwinNetFixture, ClearTwinRouterIsolatesTheTwin) {
  network.clearTwinRouter();
  // Every non-twin node collapses to side 0; the side-1 twin instance is
  // unreachable and its own sends are suppressed.
  nodes[1]->send(0, std::make_shared<Ping>());
  twin->send(1, std::make_shared<Ping>());
  simulator.run();
  ASSERT_EQ(nodes[0]->received.size(), 1u);
  EXPECT_TRUE(twin->received.empty());
  EXPECT_TRUE(nodes[1]->received.empty());
  EXPECT_EQ(network.counters().droppedTwinRouting, 1u);
}

// --- witness formatting ------------------------------------------------------

TEST(SafetyWitness, FormatIsCompactAndDelimiterFree) {
  pbft::SafetyWitness witness;
  witness.seq = 5;
  witness.replicaA = 2;
  witness.replicaB = 3;
  witness.digestA = 0xdeadbeef;
  witness.digestB = 0xcafef00d;
  witness.votersA = {0, 1, 2};
  const std::string text = pbft::formatSafetyWitness(witness);
  EXPECT_EQ(text,
            "seq=5 r2=00000000deadbeef[votes 0.1.2] "
            "r3=00000000cafef00d[synced]");
  EXPECT_EQ(text.find(','), std::string::npos);
  EXPECT_EQ(text.find('"'), std::string::npos);
}

// --- deployment-level safety semantics ---------------------------------------

pbft::DeploymentConfig twinsConfig(std::uint64_t seed) {
  pbft::DeploymentConfig config;
  config.pbft.f = 1;
  config.pbft.requestTimeout = sim::msec(400);
  config.pbft.viewChangeTimeout = sim::msec(400);
  config.clientRetx = sim::msec(100);
  config.link = sim::LinkModel{sim::msec(5), sim::usec(500)};
  config.correctClients = 10;
  config.warmup = sim::msec(400);
  config.measure = sim::sec(2);
  config.seed = seed;
  return config;
}

pbft::RunResult runTwins(pbft::DeploymentConfig config,
                         fi::TwinFault::Options twins,
                         fi::TwinFault** faultOut = nullptr) {
  pbft::Deployment deployment(std::move(config));
  fi::TwinFault fault(&deployment, std::move(twins));
  fault.install();
  if (faultOut != nullptr) *faultOut = &fault;
  return deployment.run();
}

TEST(TwinsSafety, SinglePairWithinFStaysSafe) {
  // One twinned identity = one Byzantine fault = exactly f. The parity
  // split gives side 1 the quorum {0b, 1, 3}; side 0 ({0a, 2}) can never
  // commit, so no conflicting certificates are reachable.
  for (std::uint64_t seed : {21, 22, 23}) {
    fi::TwinFault::Options twins;
    twins.targets = {0};
    const pbft::RunResult result = runTwins(twinsConfig(seed), twins);
    EXPECT_FALSE(result.safetyViolated) << "seed " << seed;
    EXPECT_FALSE(result.safetyWitness.has_value());
  }
}

TEST(TwinsSafety, SinglePairPeriodicFlipsStayWithinF) {
  // Side-flipping schedules re-route which peers hear which instance but
  // never let both instances assemble quorums simultaneously.
  fi::TwinFault::Options twins;
  twins.targets = {0};
  twins.period = sim::msec(400);
  const pbft::RunResult result = runTwins(twinsConfig(24), twins);
  EXPECT_FALSE(result.safetyViolated);
}

TEST(TwinsSafety, TwoPairsBeyondFProduceConflictingCommits) {
  // Beyond the bound: twins {0, 1} under the parity split give BOTH sides
  // a full logical quorum ({0,1,2} vs {0,1,3}). Each side orders its own
  // clients' requests at the same sequence numbers, so the non-twin
  // replicas 2 and 3 end up with conflicting commit certificates.
  fi::TwinFault::Options twins;
  twins.targets = {0, 1};
  fi::TwinFault* fault = nullptr;
  const pbft::RunResult result = runTwins(twinsConfig(25), twins, &fault);
  EXPECT_TRUE(result.safetyViolated);
  ASSERT_TRUE(result.safetyWitness.has_value());
  const pbft::SafetyWitness& witness = *result.safetyWitness;
  EXPECT_NE(witness.digestA, witness.digestB);
  EXPECT_NE(witness.replicaA, witness.replicaB);
  const std::string text = pbft::formatSafetyWitness(witness);
  EXPECT_EQ(text.rfind("seq=", 0), 0u) << text;
}

TEST(TwinsSafety, BeyondFRunIsDeterministicUnderFixedSeed) {
  auto runOnce = [] {
    fi::TwinFault::Options twins;
    twins.targets = {0, 1};
    return runTwins(twinsConfig(26), twins);
  };
  const pbft::RunResult first = runOnce();
  const pbft::RunResult second = runOnce();
  EXPECT_EQ(first.safetyViolated, second.safetyViolated);
  EXPECT_EQ(first.throughputRps, second.throughputRps);
  EXPECT_EQ(first.correctCompleted, second.correctCompleted);
  ASSERT_EQ(first.safetyWitness.has_value(), second.safetyWitness.has_value());
  if (first.safetyWitness) {
    EXPECT_EQ(pbft::formatSafetyWitness(*first.safetyWitness),
              pbft::formatSafetyWitness(*second.safetyWitness));
  }
}

TEST(TwinsSafety, LateActivationMintsTwinsMidRun) {
  fi::TwinFault::Options twins;
  twins.targets = {0};
  twins.activation = sim::msec(800);
  pbft::Deployment deployment(twinsConfig(27));
  fi::TwinFault fault(&deployment, twins);
  fault.install();
  deployment.runFor(sim::msec(500));
  EXPECT_EQ(fault.twinsActivated(), 0u);
  EXPECT_EQ(deployment.network().twinCount(), 0u);
  deployment.runFor(sim::msec(500));
  EXPECT_EQ(fault.twinsActivated(), 1u);
  EXPECT_TRUE(deployment.network().isTwinned(0));
  const pbft::RunResult result = deployment.collect();
  EXPECT_FALSE(result.safetyViolated);
}

// --- oracle x recovery (twins interacting with the other fault tools) --------

TEST(TwinsRecovery, TwinDuringChurnRestartStaysSafe) {
  // A backup crash-restarts while an identity is twinned. The rejoining
  // replica state-transfers from whichever side it can reach; within the
  // bound that sync can only reflect the one committing side.
  pbft::Deployment deployment(twinsConfig(31));
  fi::TwinFault::Options twins;
  twins.targets = {0};
  fi::TwinFault fault(&deployment, twins);
  fault.install();
  fi::ChurnFault::Options churn;
  churn.target = 2;
  churn.firstCrash = sim::msec(900);
  churn.downtime = sim::msec(250);
  auto churnFault = std::make_shared<fi::ChurnFault>(
      &deployment.simulator(), &deployment.network(), churn);
  churnFault->install();

  const pbft::RunResult result = deployment.run();
  EXPECT_FALSE(result.safetyViolated);
  EXPECT_EQ(churnFault->crashesInjected(), 1u);
  EXPECT_EQ(result.restarts, 1u);
}

TEST(TwinsRecovery, TwinnedPrimaryThroughViewChangeStaysSafe) {
  // Crash the original primary instance while its identity is twinned:
  // the backups' timeouts drive a view change away from the twinned
  // identity, and the oracle must stay silent throughout.
  pbft::Deployment deployment(twinsConfig(32));
  fi::TwinFault::Options twins;
  twins.targets = {0};  // view-0 primary
  fi::TwinFault fault(&deployment, twins);
  fault.install();
  fi::ChurnFault::Options churn;
  churn.target = 0;
  churn.firstCrash = sim::msec(800);
  churn.downtime = sim::msec(600);
  auto churnFault = std::make_shared<fi::ChurnFault>(
      &deployment.simulator(), &deployment.network(), churn);
  churnFault->install();

  const pbft::RunResult result = deployment.run();
  EXPECT_FALSE(result.safetyViolated);
  EXPECT_GE(result.viewChangesInitiated, 1u);
}

TEST(TwinsRecovery, TwinWithPartitionHealStaysSafe) {
  // A network partition opens across the twin schedule and later heals
  // (Network::removeFault). Healing restores links between router sides
  // only to the extent the twin schedule allows — safety must hold before,
  // during, and after.
  pbft::Deployment deployment(twinsConfig(33));
  fi::TwinFault::Options twins;
  twins.targets = {0};
  fi::TwinFault fault(&deployment, twins);
  fault.install();
  auto partition = std::make_shared<fi::PartitionFault>(
      std::set<util::NodeId>{2}, std::set<util::NodeId>{1, 3});
  deployment.network().addFault(partition);
  deployment.simulator().scheduleAt(sim::msec(1200), [&] {
    ASSERT_TRUE(deployment.network().removeFault(partition));
  });

  const pbft::RunResult result = deployment.run();
  EXPECT_FALSE(result.safetyViolated);
}

// --- AVD surface: hyperspace, executor, dedup --------------------------------

TEST(TwinsHyperspace, DimensionsAndBaselinePoint) {
  const core::Hyperspace space = core::makeTwinsHyperspace();
  ASSERT_EQ(space.dimensionCount(), 6u);
  EXPECT_EQ(space.dimension(0).name(), "twin_pairs");
  EXPECT_EQ(space.dimension(0).value(0), 0) << "index 0 = twins off";
  EXPECT_EQ(space.dimension(1).name(), "twin_first");
  EXPECT_EQ(space.dimension(2).name(), "twin_start_ms");
  EXPECT_EQ(space.dimension(3).name(), "twin_period_ms");
  EXPECT_EQ(space.dimension(4).name(), "twin_shape");
  EXPECT_EQ(space.dimension(5).name(), "correct_clients");
}

TEST(TwinsExecutor, BeyondFPointReportsSafetyViolation) {
  const auto executor = campaign::makeSystemExecutor("pbft-twins", 11);
  ASSERT_NE(executor, nullptr);

  // twin_pairs=2, twin_first=0, activation 0, static parity, 10 clients.
  const core::Outcome beyond = executor->execute({2, 0, 0, 0, 0, 0});
  EXPECT_TRUE(beyond.safetyViolated);
  EXPECT_FALSE(beyond.safetyWitness.empty());
  EXPECT_EQ(beyond.safetyWitness.rfind("seq=", 0), 0u);

  // The all-baseline point runs twin-free and clean.
  const core::Outcome baseline = executor->execute({0, 0, 0, 0, 0, 0});
  EXPECT_FALSE(baseline.safetyViolated);
  EXPECT_TRUE(baseline.safetyWitness.empty());
  EXPECT_LT(baseline.impact, 0.2);

  // One pair stays within the bound regardless of the other dims.
  const core::Outcome withinF = executor->execute({1, 0, 0, 0, 0, 0});
  EXPECT_FALSE(withinF.safetyViolated);
}

TEST(TwinsDedup, SafetyLeadsTheLabelAndSortsFirst) {
  const core::Hyperspace space = core::makeTwinsHyperspace();

  core::TestRecord unsafe;
  unsafe.point = {2, 0, 0, 0, 0, 0};
  unsafe.outcome.impact = 0.55;
  unsafe.outcome.safetyViolated = true;
  unsafe.outcome.safetyWitness = "seq=3 r2=0[votes 0.1.2] r3=1[votes 0.1.3]";

  core::TestRecord loud;  // higher impact but no safety violation
  loud.point = {1, 0, 0, 0, 0, 2};
  loud.outcome.impact = 0.95;

  const auto classes =
      campaign::dedupVulnerabilities(space, {loud, unsafe}, 0.5);
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_TRUE(classes[0].signature.safetyViolated)
      << "safety classes outrank higher-impact liveness classes";
  const std::string label =
      campaign::signatureLabel(space, classes[0].signature);
  EXPECT_EQ(label.rfind("SAFETY VIOLATED", 0), 0u) << label;

  const std::string json = campaign::vulnClassesJson(space, classes);
  EXPECT_NE(json.find("\"safetyWitness\": \"seq=3"), std::string::npos);
}

TEST(TwinsJournal, WitnessRoundTripsAndStaysOffNonSafetyLines) {
  campaign::DoneEvent event;
  event.test = 7;
  event.outcome.impact = 0.5;
  event.outcome.safetyViolated = true;
  event.outcome.safetyWitness =
      "seq=9 r2=00000000000000aa[votes 0.1.2] r3=00000000000000bb[synced]";
  const auto decoded = campaign::decodeLine(campaign::encodeDone(event));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->done.outcome.safetyWitness,
            event.outcome.safetyWitness);

  campaign::DoneEvent clean;
  clean.test = 8;
  EXPECT_EQ(campaign::encodeDone(clean).find("safetyWitness"),
            std::string::npos)
      << "non-safety lines keep the pre-twins byte format";
}

}  // namespace
}  // namespace avd
