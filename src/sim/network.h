// Simulated network fabric.
//
// The network delivers messages between registered nodes after a per-link
// latency (base + uniform jitter) and passes every send through a chain of
// NetworkFault hooks. The hooks are how AVD's network-level testing tools
// (drops, delays, partitions, reordering — §2 "the networks may also be
// under the control of AVD") plug into a deployment without the protocol
// code knowing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/message.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace avd::sim {

/// Latency model applied to every link, plus the receiver's ingress-queue
/// resource model. With the ingress fields at their zero defaults the
/// network behaves exactly as before: messages are delivered straight from
/// the event queue, which can absorb any volume. Enabling them bounds each
/// node's receive path, so a flood *displaces* useful traffic instead of
/// vanishing into an infinite event queue — the resource-exhaustion fault
/// surface the flood tools attack.
struct LinkModel {
  Time baseLatency = msec(1);
  /// Uniform extra delay in [0, jitter].
  Time jitter = 0;
  /// Max messages queued at a receiver (per sender lane when `fairIngress`,
  /// shared otherwise). 0 = unbounded.
  std::uint32_t ingressCapacity = 0;
  /// Max bytes queued at a receiver (per lane / shared as above). 0 = no
  /// byte budget.
  std::size_t ingressByteBudget = 0;
  /// Time the receiver spends servicing each queued message before the next
  /// one is delivered. 0 = infinitely fast service (queue never backs up
  /// except transiently within one timestamp).
  Time ingressServiceTime = 0;
  /// Aardvark-style resource isolation: one ingress lane per sender,
  /// serviced round-robin, so one flooding sender can only exhaust its own
  /// lane. Off = one shared FIFO queue (the vulnerable baseline).
  bool fairIngress = false;
  /// Senders with id < this value bypass the bounded ingress queue and are
  /// delivered directly — Aardvark's separate replica-to-replica NIC, which
  /// keeps agreement traffic out of the client ingress path. 0 = everyone
  /// queues (the vulnerable baseline).
  std::uint32_t ingressPriorityNodes = 0;

  bool ingressEnabled() const noexcept {
    return ingressCapacity > 0 || ingressByteBudget > 0 ||
           ingressServiceTime > 0 || fairIngress;
  }
};

/// Hook invoked for every message send. Implementations may drop the
/// message, add extra delay (delaying selected messages is how the
/// reordering tool permutes delivery order), or substitute a tampered
/// payload (the blind bit-flipping tool).
class NetworkFault {
 public:
  struct Decision {
    bool drop = false;
    Time extraDelay = 0;
    /// Non-null: deliver this payload instead of the original.
    MessagePtr replace;
  };

  virtual ~NetworkFault() = default;
  virtual Decision onMessage(util::NodeId from, util::NodeId to,
                             const MessagePtr& message, util::Rng& rng) = 0;
};

/// Traffic counters, exposed for tests and impact analysis.
struct NetworkCounters {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t droppedByFaults = 0;
  std::uint64_t droppedDeadNode = 0;
  std::uint64_t tamperedByFaults = 0;
  std::uint64_t bytesSent = 0;
  /// Messages suppressed by the twin routing schedule: the sender's
  /// partition side differs from the receiver's, so physically the link
  /// does not exist this interval.
  std::uint64_t droppedTwinRouting = 0;
  /// Messages dropped on arrival because the receiver's bounded ingress
  /// queue was full (message capacity or byte budget).
  std::uint64_t droppedQueueOverflow = 0;
  /// High-water marks across all nodes (0 when ingress is unbounded).
  std::uint64_t peakIngressDepth = 0;
  std::uint64_t peakIngressBytes = 0;
  /// Deliveries per message kind (the wire discriminator, see
  /// src/avd/gen/protocol_events.h). Ordered so iteration is replayable;
  /// keys absent = zero deliveries of that kind.
  std::map<std::uint32_t, std::uint64_t> deliveredByKind;
};

/// Per-node ingress observability for tests and the flood bench.
struct IngressStats {
  std::uint64_t drops = 0;
  std::uint64_t peakDepth = 0;
  std::uint64_t peakBytes = 0;
};

/// Deterministic twin routing schedule (the Twins methodology, "BFT Systems
/// Made Robust"): assigns every node id to partition side 0 or 1 at virtual
/// time `now`. Instance 0 of a twinned identity (the originally registered
/// node) always lives on side 0 and its twin on side 1, regardless of what
/// the router returns for that id; for every other node the router's value
/// decides which twin it hears from — and whether it can reach a peer on
/// the other side at all. Returning 0 for everything reduces to a normal
/// network with the twins isolated.
using TwinRouter = std::function<int(util::NodeId node, Time now)>;

class Network {
 public:
  Network(Simulator* simulator, LinkModel model) noexcept
      : simulator_(simulator), model_(model) {}

  /// Registers a node; its id must be < the deployment's node count and
  /// unique. Nodes are attached to this network and simulator.
  void registerNode(Node* node);

  /// Registers a second physical node behind an already-registered id: both
  /// instances share the logical identity (id, keys, client-visible
  /// address) and the twin is attached to this network and simulator. The
  /// TwinRouter decides which instance each peer reaches; without one the
  /// twin is fully isolated (side 1 has no members). The caller owns the
  /// twin and must keep it alive for the run; twins cannot be unregistered.
  void registerTwin(Node* twin);

  /// Installs / clears the partition-side schedule consulted on every send.
  void setTwinRouter(TwinRouter router) { twinRouter_ = std::move(router); }
  void clearTwinRouter() noexcept { twinRouter_ = nullptr; }

  bool isTwinned(util::NodeId id) const noexcept {
    return twins_.find(id) != twins_.end();
  }
  /// The side-1 instance of a twinned id (nullptr when not twinned).
  Node* twinInstance(util::NodeId id) const noexcept {
    const auto it = twins_.find(id);
    return it != twins_.end() ? it->second : nullptr;
  }
  std::size_t twinCount() const noexcept { return twins_.size(); }

  Node* node(util::NodeId id) const noexcept {
    return id < nodes_.size() ? nodes_[id] : nullptr;
  }
  std::size_t nodeCount() const noexcept { return nodes_.size(); }

  /// Sends `message` from `from` to `to`; applies fault hooks and latency.
  /// Attributed to the side-0 instance when `from` is twinned — twin
  /// instances must send through sendFrom (Node::send does).
  void send(util::NodeId from, util::NodeId to, MessagePtr message);

  /// Send with an explicit physical sender, so a twin instance's traffic is
  /// routed from its own partition side. This is the path Node::send takes.
  void sendFrom(Node* sender, util::NodeId to, MessagePtr message);

  void addFault(std::shared_ptr<NetworkFault> fault) {
    faults_.push_back(std::move(fault));
  }

  /// Removes one fault mid-run (e.g. a partition that heals); returns
  /// whether it was installed. Messages already in flight keep whatever
  /// decision the fault made when they were sent.
  bool removeFault(const std::shared_ptr<NetworkFault>& fault) {
    auto it = std::find(faults_.begin(), faults_.end(), fault);
    if (it == faults_.end()) return false;
    faults_.erase(it);
    return true;
  }

  void clearFaults() noexcept { faults_.clear(); }

  const NetworkCounters& counters() const noexcept { return counters_; }
  const LinkModel& linkModel() const noexcept { return model_; }

  /// Ingress-queue stats for one receiver (all zero when ingress is off or
  /// the node never queued a message).
  IngressStats ingressStats(util::NodeId id) const noexcept;

 private:
  // The simulator dispatches Deliver and IngressService records to
  // deliver() and serviceIngress().
  friend class Simulator;

  /// Delivery of a message sent earlier: straight to `receiver`, or into
  /// the bounded ingress queue of `to` when that is enabled.
  void deliver(util::NodeId from, util::NodeId to, Node* receiver,
               MessagePtr message);

  /// One sender's FIFO lane within a receiver's ingress queue. In shared
  /// (non-fair) mode a single lane keyed by sender 0 holds all traffic.
  struct IngressLane {
    std::deque<std::pair<util::NodeId, MessagePtr>> queue;
    std::size_t bytes = 0;
  };
  struct IngressQueue {
    std::map<util::NodeId, IngressLane> lanes;  // non-empty lanes only
    std::size_t depth = 0;                      // messages across all lanes
    std::size_t bytes = 0;
    util::NodeId cursor = 0;  // fair mode: last lane serviced
    bool serving = false;     // a service-completion event is booked
    IngressStats stats;
  };

  void enqueueIngress(util::NodeId from, util::NodeId to, MessagePtr message);
  void serviceIngress(util::NodeId to);

  /// Partition side of a non-twin node under the current schedule (0 when
  /// no router is installed).
  int sideOf(util::NodeId id) const {
    return twinRouter_ ? (twinRouter_(id, simulator_->now()) & 1) : 0;
  }

  Simulator* simulator_;
  LinkModel model_;
  std::vector<Node*> nodes_;
  /// Side-1 instances by logical id. Ordered so any iteration (oracle
  /// queries, teardown) is deterministic.
  std::map<util::NodeId, Node*> twins_;
  TwinRouter twinRouter_;
  std::vector<std::shared_ptr<NetworkFault>> faults_;
  NetworkCounters counters_;
  std::vector<IngressQueue> ingress_;
};

}  // namespace avd::sim
