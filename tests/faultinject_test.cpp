// Unit tests for the fault-injection tool suite: mask factories, the
// reordering tool (with Levenshtein-measured effect), and the network fault
// adapters.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/gray_code.h"
#include "common/levenshtein.h"
#include "faultinject/behaviors.h"
#include "faultinject/churn.h"
#include "faultinject/mac_corruptor.h"
#include "faultinject/network_faults.h"
#include "faultinject/reorder.h"
#include "sim/network.h"
#include "sim/node.h"

namespace avd::fi {
namespace {

// --- Mask factories ---------------------------------------------------------------

TEST(Masks, ValidOnlyForCorruptsEveryoneElseEveryRound) {
  const std::uint64_t mask = bigMacMaskValidOnlyFor(0, 4, 12);
  EXPECT_EQ(mask, 0xEEEull);
  for (std::uint32_t bit = 0; bit < 12; ++bit) {
    const bool corrupts = (mask >> bit) & 1;
    EXPECT_EQ(corrupts, bit % 4 != 0) << "bit " << bit;
  }
}

TEST(Masks, ValidOnlyForOtherReplicas) {
  EXPECT_EQ(bigMacMaskValidOnlyFor(1, 4, 12), 0xDDDull);
  EXPECT_EQ(bigMacMaskValidOnlyFor(2, 4, 12), 0xBBBull);
  EXPECT_EQ(bigMacMaskValidOnlyFor(3, 4, 12), 0x777ull);
}

TEST(Masks, RotatingMaskGivesEachReplicaOneValidRound) {
  const std::uint64_t mask = rotatingBigMacMask();
  // For each replica, at least one round's call must be un-corrupted.
  for (std::uint32_t replica = 0; replica < 4; ++replica) {
    bool hasValidRound = false;
    for (std::uint32_t round = 0; round < 3; ++round) {
      if (((mask >> (round * 4 + replica)) & 1) == 0) hasValidRound = true;
    }
    EXPECT_TRUE(hasValidRound) << "replica " << replica;
  }
  // Round 0 (the round in which a fresh request is ordered by primary 0)
  // corrupts all three backups: first transmissions always stall.
  int corruptBackupsRoundZero = 0;
  for (std::uint32_t replica = 1; replica < 4; ++replica) {
    corruptBackupsRoundZero += static_cast<int>((mask >> replica) & 1);
  }
  EXPECT_EQ(corruptBackupsRoundZero, 3);
}

// --- Network adapters -----------------------------------------------------------------

class SinkNode final : public sim::Node {
 public:
  explicit SinkNode(util::NodeId id) : sim::Node(id) {}
  void receive(util::NodeId, const sim::MessagePtr& message) override {
    received.push_back(message.get());
  }
  std::vector<const sim::Message*> received;
  using sim::Node::send;
};

class TaggedMessage final : public sim::Message {
 public:
  std::uint32_t kind() const noexcept override { return 0xCAFE; }
};

TEST(ReorderFault, ZeroIntensityPreservesOrder) {
  sim::Simulator simulator(2);
  sim::Network network(&simulator, sim::LinkModel{sim::msec(1), 0});
  SinkNode sender(0);
  SinkNode receiver(1);
  network.registerNode(&sender);
  network.registerNode(&receiver);
  auto tap = std::make_shared<SequenceTap>();
  network.addFault(tap);
  network.addFault(std::make_shared<ReorderFault>(0.0, sim::msec(10)));

  for (int i = 0; i < 30; ++i) {
    sender.send(1, std::make_shared<TaggedMessage>());
  }
  simulator.run();
  ASSERT_EQ(receiver.received.size(), 30u);
  EXPECT_EQ(util::levenshtein(
                std::span<const sim::Message* const>(tap->sendOrder()),
                std::span<const sim::Message* const>(receiver.received)),
            0u);
}

TEST(ReorderFault, EditDistanceGrowsWithIntensity) {
  const auto measure = [](double intensity) {
    sim::Simulator simulator(3);
    sim::Network network(&simulator, sim::LinkModel{sim::msec(1), 0});
    SinkNode sender(0);
    SinkNode receiver(1);
    network.registerNode(&sender);
    network.registerNode(&receiver);
    auto tap = std::make_shared<SequenceTap>();
    auto reorder =
        std::make_shared<ReorderFault>(intensity, sim::msec(20));
    network.addFault(tap);
    network.addFault(reorder);
    for (int i = 0; i < 200; ++i) {
      simulator.schedule(i * 100, [&sender] {
        sender.send(1, std::make_shared<TaggedMessage>());
      });
    }
    simulator.run();
    return util::levenshtein(
        std::span<const sim::Message* const>(tap->sendOrder()),
        std::span<const sim::Message* const>(receiver.received));
  };

  const std::size_t weak = measure(0.1);
  const std::size_t strong = measure(0.9);
  EXPECT_GT(weak, 0u);
  EXPECT_GT(strong, weak)
      << "the tool's mutateDistance contract: stronger intensity, larger "
         "edit distance";
}

// --- Churn tool --------------------------------------------------------------

TEST(ChurnFault, CrashRestartCycleFollowsTheConfiguredSchedule) {
  sim::Simulator simulator(1);
  sim::Network network(&simulator, sim::LinkModel{sim::msec(1), 0});
  SinkNode node(0);
  network.registerNode(&node);

  ChurnFault::Options options;
  options.target = 0;
  options.firstCrash = sim::msec(100);
  options.downtime = sim::msec(50);
  options.period = sim::msec(200);
  options.maxCycles = 3;
  ChurnFault churn(&simulator, &network, options);
  churn.install();

  simulator.runUntil(sim::msec(120));
  EXPECT_FALSE(node.alive());
  simulator.runUntil(sim::msec(180));
  EXPECT_TRUE(node.alive());
  EXPECT_EQ(node.incarnation(), 1u);

  simulator.runUntil(sim::sec(2));
  EXPECT_EQ(churn.crashesInjected(), 3u);
  EXPECT_EQ(churn.restartsInjected(), 3u);
  EXPECT_TRUE(node.alive()) << "every cycle ends with a restart";
  EXPECT_EQ(node.restarts(), 3u);
}

TEST(ChurnFault, DynamicTargetIsReResolvedAtEveryCrash) {
  sim::Simulator simulator(1);
  sim::Network network(&simulator, sim::LinkModel{sim::msec(1), 0});
  SinkNode a(0);
  SinkNode b(1);
  network.registerNode(&a);
  network.registerNode(&b);

  // Alternate victims: whichever node the selector names goes down, and the
  // restart must revive that same node even though the selector has moved on.
  std::uint32_t calls = 0;
  ChurnFault::Options options;
  options.dynamicTarget = [&calls] {
    return static_cast<util::NodeId>(calls++ % 2);
  };
  options.firstCrash = sim::msec(100);
  options.downtime = sim::msec(50);
  options.period = sim::msec(200);
  options.maxCycles = 2;
  ChurnFault churn(&simulator, &network, options);
  churn.install();

  simulator.runUntil(sim::msec(120));
  EXPECT_FALSE(a.alive());
  EXPECT_TRUE(b.alive());
  simulator.runUntil(sim::msec(320));
  EXPECT_TRUE(a.alive()) << "first victim restarted";
  EXPECT_FALSE(b.alive()) << "second cycle picked the other node";
  simulator.runUntil(sim::sec(1));
  EXPECT_TRUE(b.alive());
  EXPECT_EQ(a.restarts(), 1u);
  EXPECT_EQ(b.restarts(), 1u);
}

TEST(FlowFilter, EmptySetsMatchEverything) {
  const FlowFilter all;
  EXPECT_TRUE(all.matches(0, 1));
  EXPECT_TRUE(all.matches(42, 7));

  const FlowFilter fromOnly{.fromNodes = {1}, .toNodes = {}};
  EXPECT_TRUE(fromOnly.matches(1, 99));
  EXPECT_FALSE(fromOnly.matches(2, 99));

  const FlowFilter both{.fromNodes = {1}, .toNodes = {2}};
  EXPECT_TRUE(both.matches(1, 2));
  EXPECT_FALSE(both.matches(1, 3));
  EXPECT_FALSE(both.matches(0, 2));
}

}  // namespace
}  // namespace avd::fi
