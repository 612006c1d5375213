// Unit tests for the discrete-event simulation engine and network fabric.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "faultinject/network_faults.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace avd::sim {
namespace {

// --- Simulator ------------------------------------------------------------------

TEST(Simulator, ExecutesInTimestampOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule(30, [&] { order.push_back(3); });
  simulator.schedule(10, [&] { order.push_back(1); });
  simulator.schedule(20, [&] { order.push_back(2); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.now(), 30);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulator.schedule(5, [&order, i] { order.push_back(i); });
  }
  simulator.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, CancelledEventsDoNotFire) {
  Simulator simulator;
  bool fired = false;
  const TimerId id = simulator.schedule(10, [&] { fired = true; });
  simulator.cancel(id);
  simulator.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(simulator.pendingEvents(), 0u);
}

TEST(Simulator, CancelIsIdempotentAndTolerant) {
  Simulator simulator;
  const TimerId id = simulator.schedule(1, [] {});
  simulator.cancel(id);
  simulator.cancel(id);       // double cancel: no-op
  simulator.cancel(0);        // invalid id: no-op
  simulator.cancel(99999);    // never-issued id: no-op
  simulator.run();
}

TEST(Simulator, CancelAfterFireIsANoOp) {
  Simulator simulator;
  int fired = 0;
  const TimerId id = simulator.schedule(10, [&] { ++fired; });
  simulator.run();
  EXPECT_EQ(fired, 1);
  simulator.cancel(id);  // already fired: nothing to cancel
  EXPECT_EQ(simulator.pendingEvents(), 0u);
  simulator.schedule(5, [&] { ++fired; });
  EXPECT_EQ(simulator.pendingEvents(), 1u);
  simulator.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(simulator.pendingEvents(), 0u);
}

TEST(Simulator, RunUntilNeverMovesTimeBackwards) {
  Simulator simulator;
  simulator.runUntil(100);
  simulator.runUntil(40);  // a deadline in the past runs nothing
  EXPECT_EQ(simulator.now(), 100);
  Time firedAt = 0;
  simulator.schedule(10, [&] { firedAt = simulator.now(); });
  simulator.run();
  EXPECT_EQ(firedAt, 110);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator simulator;
  std::vector<Time> fired;
  for (Time t : {5, 10, 15, 20}) {
    simulator.schedule(t, [&fired, &simulator] {
      fired.push_back(simulator.now());
    });
  }
  simulator.runUntil(12);
  EXPECT_EQ(fired, (std::vector<Time>{5, 10}));
  EXPECT_EQ(simulator.now(), 12);
  simulator.runUntil(100);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_EQ(simulator.now(), 100);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator simulator;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) simulator.schedule(10, chain);
  };
  simulator.schedule(0, chain);
  simulator.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(simulator.now(), 40);
}

TEST(Simulator, RunHonorsMaxEvents) {
  Simulator simulator;
  int count = 0;
  for (int i = 0; i < 10; ++i) simulator.schedule(i, [&] { ++count; });
  EXPECT_EQ(simulator.run(4), 4u);
  EXPECT_EQ(count, 4);
}

TEST(Simulator, DeterministicRngStream) {
  Simulator a(77);
  Simulator b(77);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.rng().next(), b.rng().next());
}

TEST(Simulator, MatchesAnOrderedReferenceUnderHeavyCancellation) {
  // A seeded mix of schedule, cancel, step and runUntil against a
  // reference ordered by (when, id). Every other stretch of 2,000
  // operations cancels almost as often as it schedules, mostly far-future
  // events, so cancelled entries outnumber live ones again and again and
  // the queue drops them many times.
  Simulator simulator;
  util::Rng rng(2024);
  enum class Fate : std::uint8_t { kPending, kCancelled, kFired };
  std::vector<Fate> fates(1);  // fates[id]; id 0 is never issued
  std::vector<Time> whenOf(1);
  std::set<std::pair<Time, TimerId>> reference;
  std::vector<TimerId> live;             // pending ids, in no order
  std::vector<std::size_t> liveAt(1);    // index of a pending id in `live`
  std::vector<TimerId> fired;
  std::size_t cancels = 0;

  const auto forget = [&](TimerId id) {
    reference.erase({whenOf[id], id});
    liveAt[live.back()] = liveAt[id];
    live[liveAt[id]] = live.back();
    live.pop_back();
  };
  // Fires what the reference says is due and checks the simulator did the
  // same, in the same order.
  const auto expectFired = [&](const std::vector<TimerId>& due) {
    ASSERT_EQ(fired, due);
    for (const TimerId id : due) {
      ASSERT_EQ(fates[id], Fate::kPending) << "id " << id << " fired twice "
                                           << "or after its cancel";
      fates[id] = Fate::kFired;
      forget(id);
    }
    fired.clear();
  };

  for (int op = 0; op < 120'000; ++op) {
    const bool churn = (op / 2'000) % 2 == 0;
    const std::uint64_t roll = rng.below(100);
    if (roll < (churn ? 48u : 25u)) {
      // Coarse delays make ties; one in three events is far in the future.
      const Time delay = rng.chance(1.0 / 3) ? rng.range(1'000, 1'000'000)
                                              : rng.range(0, 40) * 5;
      const TimerId expected = fates.size();
      const TimerId id = simulator.schedule(
          delay, [&fired, expected] { fired.push_back(expected); });
      ASSERT_EQ(id, expected) << "ids are insertion numbers";
      fates.push_back(Fate::kPending);
      whenOf.push_back(simulator.now() + delay);
      liveAt.push_back(live.size());
      live.push_back(id);
      reference.emplace(simulator.now() + delay, id);
    } else if (roll < (churn ? 90u : 40u)) {
      if (live.empty()) continue;
      const TimerId id = live[rng.below(live.size())];
      simulator.cancel(id);
      fates[id] = Fate::kCancelled;
      forget(id);
      ++cancels;
    } else if (roll < (churn ? 92u : 45u)) {
      // Cancelling an id that already fired or was cancelled, was never
      // issued, or is 0 changes nothing.
      const std::size_t before = simulator.pendingEvents();
      const TimerId issued = fates.size() - 1;
      const TimerId settled = issued == 0 ? 0 : rng.range(1, issued);
      for (const TimerId id : {TimerId{0}, issued + 1 + rng.below(1'000),
                               settled}) {
        if (id != 0 && id <= issued && fates[id] == Fate::kPending) continue;
        simulator.cancel(id);
      }
      ASSERT_EQ(simulator.pendingEvents(), before);
    } else if (roll < (churn ? 99u : 95u) || reference.empty()) {
      const bool ran = simulator.step();
      ASSERT_EQ(ran, !reference.empty());
      if (ran) {
        const auto [when, id] = *reference.begin();
        expectFired({id});
        ASSERT_EQ(simulator.now(), when);
      }
    } else {
      const Time deadline = simulator.now() + rng.range(0, 400);
      std::vector<TimerId> due;
      for (const auto& [when, id] : reference) {
        if (when > deadline) break;
        due.push_back(id);
      }
      simulator.runUntil(deadline);
      expectFired(due);
      ASSERT_EQ(simulator.now(), deadline);
    }
    ASSERT_EQ(simulator.pendingEvents(), reference.size()) << "op " << op;
  }
  EXPECT_GT(cancels, 25'000u);

  std::vector<TimerId> rest;
  for (const auto& entry : reference) rest.push_back(entry.second);
  EXPECT_EQ(simulator.run(), rest.size());
  expectFired(rest);
  EXPECT_EQ(simulator.pendingEvents(), 0u);
}

TEST(Simulator, CancelReleasesTheClosureBeforeTheEventsTime) {
  // A cancelled far-future event gives up what its closure holds once
  // cancelled entries outnumber live ones, not when its time comes.
  Simulator simulator;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> observer = token;
  const TimerId far = simulator.schedule(sec(100), [token] { (void)*token; });
  token.reset();
  simulator.cancel(far);
  // A live event ahead of it, and short timers armed and then cancelled,
  // as clients' retry timers are.
  bool sentinelFired = false;
  (void)simulator.schedule(sec(50), [&sentinelFired] { sentinelFired = true; });
  std::vector<TimerId> retries;
  for (int i = 0; i < 100; ++i) {
    retries.push_back(simulator.schedule(msec(5), [] {}));
  }
  for (const TimerId id : retries) simulator.cancel(id);
  simulator.runUntil(sec(40));
  EXPECT_TRUE(observer.expired())
      << "the cancelled event still held its capture";
  EXPECT_EQ(simulator.pendingEvents(), 1u);
  simulator.run();
  EXPECT_TRUE(sentinelFired);
  EXPECT_EQ(simulator.now(), sec(50)) << "the cancelled event did not fire";
}

// --- Network -------------------------------------------------------------------

/// Records every delivery for assertions.
class ProbeNode final : public Node {
 public:
  explicit ProbeNode(util::NodeId id) : Node(id) {}

  void receive(util::NodeId from, const MessagePtr& message) override {
    deliveries.push_back({from, message, now()});
  }

  struct Delivery {
    util::NodeId from;
    MessagePtr message;
    Time when;
  };
  std::vector<Delivery> deliveries;

  using Node::send;      // expose for tests
  using Node::setTimer;  // expose for tests
};

class TestPayload final : public Message {
 public:
  explicit TestPayload(int tag) : tag_(tag) {}
  std::uint32_t kind() const noexcept override { return 0xBEEF; }
  int tag() const noexcept { return tag_; }

 private:
  int tag_;
};

struct NetFixture : ::testing::Test {
  NetFixture() : simulator(1), network(&simulator, LinkModel{msec(2), 0}) {
    for (util::NodeId id = 0; id < 3; ++id) {
      nodes.push_back(std::make_unique<ProbeNode>(id));
      network.registerNode(nodes.back().get());
    }
  }

  Simulator simulator;
  Network network;
  std::vector<std::unique_ptr<ProbeNode>> nodes;
};

TEST_F(NetFixture, DeliversAfterBaseLatency) {
  nodes[0]->send(1, std::make_shared<TestPayload>(7));
  simulator.run();
  ASSERT_EQ(nodes[1]->deliveries.size(), 1u);
  EXPECT_EQ(nodes[1]->deliveries[0].from, 0u);
  EXPECT_EQ(nodes[1]->deliveries[0].when, msec(2));
  EXPECT_EQ(nodes[2]->deliveries.size(), 0u);
}

TEST_F(NetFixture, FifoPerLinkWithoutJitter) {
  for (int i = 0; i < 5; ++i) {
    nodes[0]->send(1, std::make_shared<TestPayload>(i));
  }
  simulator.run();
  ASSERT_EQ(nodes[1]->deliveries.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    const auto* payload = static_cast<const TestPayload*>(
        nodes[1]->deliveries[i].message.get());
    EXPECT_EQ(payload->tag(), i);
  }
}

TEST_F(NetFixture, CountersTrackTraffic) {
  nodes[0]->send(1, std::make_shared<TestPayload>(0));
  nodes[1]->send(2, std::make_shared<TestPayload>(1));
  simulator.run();
  EXPECT_EQ(network.counters().sent, 2u);
  EXPECT_EQ(network.counters().delivered, 2u);
  EXPECT_EQ(network.counters().droppedByFaults, 0u);
  EXPECT_GT(network.counters().bytesSent, 0u);
}

TEST_F(NetFixture, DeadReceiverDropsDelivery) {
  nodes[1]->setAlive(false);
  nodes[0]->send(1, std::make_shared<TestPayload>(0));
  simulator.run();
  EXPECT_EQ(nodes[1]->deliveries.size(), 0u);
  EXPECT_EQ(network.counters().droppedDeadNode, 1u);
}

TEST_F(NetFixture, DeadSenderCannotSend) {
  nodes[0]->setAlive(false);
  nodes[0]->send(1, std::make_shared<TestPayload>(0));
  simulator.run();
  EXPECT_EQ(nodes[1]->deliveries.size(), 0u);
}

TEST_F(NetFixture, CrashBetweenSendAndDeliveryDrops) {
  nodes[0]->send(1, std::make_shared<TestPayload>(0));
  simulator.schedule(msec(1), [&] { nodes[1]->setAlive(false); });
  simulator.run();
  EXPECT_EQ(nodes[1]->deliveries.size(), 0u);
}

TEST_F(NetFixture, TimersSuppressedOnDeadNode) {
  bool fired = false;
  nodes[0]->setTimer(msec(5), [&] { fired = true; });
  simulator.schedule(msec(1), [&] { nodes[0]->setAlive(false); });
  simulator.run();
  EXPECT_FALSE(fired);
}

// Regression: a timer armed before a crash must not fire inside the
// restarted process, even though the node is alive again when it expires.
TEST_F(NetFixture, StaleTimerSuppressedAcrossRestart) {
  bool staleFired = false;
  bool freshFired = false;
  nodes[0]->setTimer(msec(10), [&] { staleFired = true; });
  simulator.schedule(msec(2), [&] { nodes[0]->crash(); });
  simulator.schedule(msec(4), [&] {
    nodes[0]->restart();
    // A timer armed by the new incarnation fires normally.
    nodes[0]->setTimer(msec(10), [&] { freshFired = true; });
  });
  simulator.run();
  EXPECT_FALSE(staleFired);
  EXPECT_TRUE(freshFired);
  EXPECT_EQ(nodes[0]->incarnation(), 1u);
  EXPECT_EQ(nodes[0]->restarts(), 1u);
}

TEST_F(NetFixture, RestartIsNoOpOnLiveNodeAndCrashIsIdempotent) {
  nodes[0]->restart();  // live node: nothing happens
  EXPECT_EQ(nodes[0]->incarnation(), 0u);
  nodes[0]->crash();
  nodes[0]->crash();
  nodes[0]->restart();
  EXPECT_EQ(nodes[0]->incarnation(), 1u);
  EXPECT_TRUE(nodes[0]->alive());
}

TEST_F(NetFixture, RestartedNodeReceivesAgain) {
  nodes[1]->crash();
  nodes[0]->send(1, std::make_shared<TestPayload>(0));  // dropped: dead
  simulator.run();
  EXPECT_EQ(nodes[1]->deliveries.size(), 0u);
  nodes[1]->restart();
  nodes[0]->send(1, std::make_shared<TestPayload>(1));
  simulator.run();
  ASSERT_EQ(nodes[1]->deliveries.size(), 1u);
}

// onRestart runs after the incarnation bump, so timers it arms belong to
// the new incarnation and fire normally.
TEST(NodeLifecycle, OnRestartUpcallSeesNewIncarnation) {
  class RecoveringNode final : public Node {
   public:
    explicit RecoveringNode(util::NodeId id) : Node(id) {}
    void receive(util::NodeId, const MessagePtr&) override {}
    void onRestart() override {
      incarnationAtUpcall = incarnation();
      setTimer(msec(1), [this] { recoveryTimerFired = true; });
    }
    using Node::setTimer;
    uint64_t incarnationAtUpcall = 0;
    bool recoveryTimerFired = false;
  };

  Simulator simulator(1);
  Network network(&simulator, LinkModel{msec(1), 0});
  RecoveringNode node(0);
  network.registerNode(&node);
  node.crash();
  node.restart();
  simulator.run();
  EXPECT_EQ(node.incarnationAtUpcall, 1u);
  EXPECT_TRUE(node.recoveryTimerFired);
}

TEST_F(NetFixture, RemoveFaultRestoresDelivery) {
  auto drop = std::make_shared<fi::DropFault>(1.0, fi::FlowFilter{});
  network.addFault(drop);
  nodes[0]->send(1, std::make_shared<TestPayload>(0));  // dropped
  simulator.run();
  EXPECT_EQ(nodes[1]->deliveries.size(), 0u);
  EXPECT_TRUE(network.removeFault(drop));
  EXPECT_FALSE(network.removeFault(drop));  // already gone
  nodes[0]->send(1, std::make_shared<TestPayload>(1));
  simulator.run();
  EXPECT_EQ(nodes[1]->deliveries.size(), 1u);
}

TEST_F(NetFixture, DropFaultFiltersFlows) {
  auto drop = std::make_shared<fi::DropFault>(
      1.0, fi::FlowFilter{.fromNodes = {0}, .toNodes = {}});
  network.addFault(drop);
  nodes[0]->send(1, std::make_shared<TestPayload>(0));  // dropped
  nodes[1]->send(0, std::make_shared<TestPayload>(1));  // delivered
  simulator.run();
  EXPECT_EQ(nodes[1]->deliveries.size(), 0u);
  EXPECT_EQ(nodes[0]->deliveries.size(), 1u);
  EXPECT_EQ(drop->dropped(), 1u);
  EXPECT_EQ(network.counters().droppedByFaults, 1u);
}

TEST_F(NetFixture, DelayFaultAddsLatency) {
  network.addFault(std::make_shared<fi::DelayFault>(msec(10)));
  nodes[0]->send(1, std::make_shared<TestPayload>(0));
  simulator.run();
  ASSERT_EQ(nodes[1]->deliveries.size(), 1u);
  EXPECT_EQ(nodes[1]->deliveries[0].when, msec(12));
}

TEST_F(NetFixture, PartitionCutsBothDirectionsAndHeals) {
  auto partition = std::make_shared<fi::PartitionFault>(
      std::set<util::NodeId>{0}, std::set<util::NodeId>{1});
  network.addFault(partition);
  nodes[0]->send(1, std::make_shared<TestPayload>(0));
  nodes[1]->send(0, std::make_shared<TestPayload>(1));
  nodes[0]->send(2, std::make_shared<TestPayload>(2));  // outside partition
  simulator.run();
  EXPECT_EQ(nodes[0]->deliveries.size(), 0u);
  EXPECT_EQ(nodes[1]->deliveries.size(), 0u);
  EXPECT_EQ(nodes[2]->deliveries.size(), 1u);

  partition->heal();
  nodes[0]->send(1, std::make_shared<TestPayload>(3));
  simulator.run();
  EXPECT_EQ(nodes[1]->deliveries.size(), 1u);
}

TEST(NetworkJitter, JitterBoundsDeliveryTime) {
  Simulator simulator(3);
  Network network(&simulator, LinkModel{msec(2), msec(1)});
  ProbeNode sender(0);
  ProbeNode receiver(1);
  network.registerNode(&sender);
  network.registerNode(&receiver);
  for (int i = 0; i < 100; ++i) {
    sender.send(1, std::make_shared<TestPayload>(i));
  }
  simulator.run();
  ASSERT_EQ(receiver.deliveries.size(), 100u);
  for (const auto& delivery : receiver.deliveries) {
    EXPECT_GE(delivery.when, msec(2));
    EXPECT_LE(delivery.when, msec(3));
  }
}

TEST(NetworkDeterminism, SameSeedSameDeliverySchedule) {
  const auto run = [](std::uint64_t seed) {
    Simulator simulator(seed);
    Network network(&simulator, LinkModel{msec(1), msec(2)});
    ProbeNode sender(0);
    ProbeNode receiver(1);
    network.registerNode(&sender);
    network.registerNode(&receiver);
    for (int i = 0; i < 50; ++i) {
      sender.send(1, std::make_shared<TestPayload>(i));
    }
    simulator.run();
    std::vector<Time> times;
    for (const auto& delivery : receiver.deliveries) {
      times.push_back(delivery.when);
    }
    return times;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

// --- Simulator shutdown ----------------------------------------------------------
//
// Written to give TSan something to bite on: the sanitizer legs run them
// under -fsanitize=thread, so hidden shared state between Simulator
// instances fails the build.

TEST(SimulatorShutdown, IndependentSimulatorsShareNoState) {
  // The simulator is single-threaded by design; this pins down that two
  // instances driven from different threads touch no hidden globals
  // (TSan would flag any).
  std::vector<std::thread> drivers;
  std::vector<std::size_t> executed(4, 0);
  for (std::size_t t = 0; t < 4; ++t) {
    drivers.emplace_back([t, &executed] {
      Simulator simulator;
      std::size_t fired = 0;
      for (int i = 0; i < 500; ++i) {
        (void)simulator.scheduleAt(msec(i), [&fired] { ++fired; });
      }
      // Cancel a band of timers, then drain; cancelled ones must not fire.
      for (TimerId id = 100; id < 200; ++id) simulator.cancel(id);
      simulator.runUntil(sec(10));
      executed[t] = fired;
    });
  }
  for (std::thread& driver : drivers) driver.join();
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(executed[t], 400u) << "driver " << t;
  }
}

TEST(SimulatorShutdown, DestructionWithPendingEventsIsClean) {
  // Events still queued at destruction must simply be dropped — their
  // callbacks own captured state that is released, not invoked.
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> observer = token;
  {
    Simulator simulator;
    (void)simulator.scheduleAt(sec(1), [token] { (void)*token; });
    token.reset();
    EXPECT_FALSE(observer.expired()) << "event still holds the capture";
    // No run: destructor discards the pending event.
  }
  EXPECT_TRUE(observer.expired()) << "pending event leaked its capture";
}

}  // namespace
}  // namespace avd::sim
