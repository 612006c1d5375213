#include "sim/network.h"

#include <cassert>

namespace avd::sim {

void Network::registerNode(Node* node) {
  assert(node != nullptr);
  const util::NodeId id = node->id();
  if (id >= nodes_.size()) nodes_.resize(id + 1, nullptr);
  assert(nodes_[id] == nullptr && "duplicate node id");
  nodes_[id] = node;
  node->attach(simulator_, this);
}

void Network::registerTwin(Node* twin) {
  assert(twin != nullptr);
  const util::NodeId id = twin->id();
  assert(node(id) != nullptr && "twin requires a registered original");
  assert(twins_.find(id) == twins_.end() && "node already twinned");
  twins_[id] = twin;
  twin->attach(simulator_, this);
}

void Network::send(util::NodeId from, util::NodeId to, MessagePtr message) {
  sendFrom(node(from), to, std::move(message));
}

void Network::sendFrom(Node* sender, util::NodeId to, MessagePtr message) {
  assert(message != nullptr);
  ++counters_.sent;
  counters_.bytesSent += message->wireSize();

  Node* const target = node(to);
  if (sender == nullptr || !sender->alive() || target == nullptr) {
    ++counters_.droppedDeadNode;
    return;
  }
  const util::NodeId from = sender->id();

  // Twin routing: resolve the sender's partition side, then (a) suppress
  // sends toward non-twin peers on the other side — that link does not
  // physically exist this interval — and (b) pick which physical instance
  // of a twinned receiver this side is connected to. Both decisions are
  // made at send time so in-flight messages keep them, mirroring
  // removeFault semantics.
  Node* receiver = target;
  if (!twins_.empty()) {
    int senderSide = 0;
    if (const auto it = twins_.find(from); it != twins_.end()) {
      senderSide = sender == it->second ? 1 : 0;
    } else {
      senderSide = sideOf(from);
    }
    if (const auto it = twins_.find(to); it != twins_.end()) {
      if (senderSide == 1) receiver = it->second;
    } else if (sideOf(to) != senderSide) {
      ++counters_.droppedTwinRouting;
      return;
    }
  }

  Time extraDelay = 0;
  for (const auto& fault : faults_) {
    NetworkFault::Decision decision =
        fault->onMessage(from, to, message, simulator_->rng());
    if (decision.drop) {
      ++counters_.droppedByFaults;
      return;
    }
    extraDelay += decision.extraDelay;
    if (decision.replace != nullptr) {
      message = std::move(decision.replace);
      ++counters_.tamperedByFaults;
    }
  }

  Time delay = model_.baseLatency + extraDelay;
  if (model_.jitter > 0) {
    delay += static_cast<Time>(simulator_->rng().below(
        static_cast<std::uint64_t>(model_.jitter) + 1));
  }

  simulator_->scheduleDelivery(delay, this, from, to, receiver,
                               std::move(message));
}

void Network::deliver(util::NodeId from, util::NodeId to, Node* receiver,
                      MessagePtr message) {
  // Twin instances bypass the bounded ingress path (lanes are keyed by
  // logical id, which would always resolve to the side-0 instance).
  if (model_.ingressEnabled() && from >= model_.ingressPriorityNodes &&
      receiver == node(to)) {
    enqueueIngress(from, to, std::move(message));
    return;
  }
  if (!receiver->alive()) {
    ++counters_.droppedDeadNode;
    return;
  }
  ++counters_.delivered;
  ++counters_.deliveredByKind[message->kind()];
  receiver->receive(from, message);
}

void Network::enqueueIngress(util::NodeId from, util::NodeId to,
                             MessagePtr message) {
  if (to >= ingress_.size()) ingress_.resize(to + 1);
  IngressQueue& queue = ingress_[to];
  const util::NodeId laneKey = model_.fairIngress ? from : util::NodeId{0};
  const std::size_t size = message->wireSize();

  // Capacity and byte budget apply per lane: in shared mode that is the
  // whole queue (a flood displaces everyone's traffic — the vulnerable
  // baseline); in fair mode each sender can only fill its own lane.
  IngressLane& lane = queue.lanes[laneKey];
  const bool overCapacity =
      model_.ingressCapacity > 0 && lane.queue.size() >= model_.ingressCapacity;
  const bool overBudget = model_.ingressByteBudget > 0 && !lane.queue.empty() &&
                          lane.bytes + size > model_.ingressByteBudget;
  if (overCapacity || overBudget) {
    ++counters_.droppedQueueOverflow;
    ++queue.stats.drops;
    if (lane.queue.empty()) queue.lanes.erase(laneKey);
    return;
  }

  lane.queue.emplace_back(from, std::move(message));
  lane.bytes += size;
  ++queue.depth;
  queue.bytes += size;
  queue.stats.peakDepth = std::max<std::uint64_t>(queue.stats.peakDepth,
                                                  queue.depth);
  queue.stats.peakBytes = std::max<std::uint64_t>(queue.stats.peakBytes,
                                                  queue.bytes);
  counters_.peakIngressDepth =
      std::max<std::uint64_t>(counters_.peakIngressDepth, queue.depth);
  counters_.peakIngressBytes =
      std::max<std::uint64_t>(counters_.peakIngressBytes, queue.bytes);

  if (!queue.serving) {
    queue.serving = true;
    simulator_->scheduleIngressService(model_.ingressServiceTime, this, to);
  }
}

void Network::serviceIngress(util::NodeId to) {
  IngressQueue& queue = ingress_[to];
  assert(queue.depth > 0);

  // Pick the next lane: strict FIFO in shared mode, round-robin across
  // sender lanes in fair mode (empty lanes are erased eagerly, so every
  // lane present holds at least one message).
  auto it = queue.lanes.begin();
  if (model_.fairIngress) {
    it = queue.lanes.upper_bound(queue.cursor);
    if (it == queue.lanes.end()) it = queue.lanes.begin();
    queue.cursor = it->first;
  }

  auto [from, message] = std::move(it->second.queue.front());
  it->second.queue.pop_front();
  const std::size_t size = message->wireSize();
  it->second.bytes -= size;
  if (it->second.queue.empty()) queue.lanes.erase(it);
  --queue.depth;
  queue.bytes -= size;

  Node* const receiver = node(to);
  if (receiver == nullptr || !receiver->alive()) {
    ++counters_.droppedDeadNode;
  } else {
    ++counters_.delivered;
    ++counters_.deliveredByKind[message->kind()];
    receiver->receive(from, message);
  }

  if (queue.depth > 0) {
    simulator_->scheduleIngressService(model_.ingressServiceTime, this, to);
  } else {
    queue.serving = false;
  }
}

IngressStats Network::ingressStats(util::NodeId id) const noexcept {
  return id < ingress_.size() ? ingress_[id].stats : IngressStats{};
}

}  // namespace avd::sim
