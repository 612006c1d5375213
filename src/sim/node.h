// Simulated node (process) base class.
//
// A Node owns no threads: it is a state machine invoked by the simulator
// for message deliveries and timer expirations. Crashed nodes stop
// receiving deliveries and their pending timers are suppressed, modelling a
// fail-stop node without tearing down state (so post-mortem inspection in
// tests still works).
//
// Nodes have a crash–restart lifecycle: crash() marks the node dead,
// restart() revives it under a new incarnation. Timers remember the
// incarnation that armed them and are suppressed if the node has crashed
// *or restarted* before they fire — a timer armed before a crash must not
// run inside the recovered process. Subclasses hook onRestart() to reload
// durable state and re-enter their protocol.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/types.h"
#include "sim/message.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace avd::sim {

class Network;

class Node {
 public:
  explicit Node(util::NodeId id) noexcept : id_(id) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  util::NodeId id() const noexcept { return id_; }
  bool alive() const noexcept { return alive_; }

  /// Monotonic process-lifetime counter; bumped on every restart. Timers
  /// fire only in the incarnation that armed them.
  uint64_t incarnation() const noexcept { return incarnation_; }
  uint64_t restarts() const noexcept { return restarts_; }
  /// Virtual time of the most recent restart (0 if never restarted).
  Time lastRestartAt() const noexcept { return lastRestartAt_; }

  /// Fail-stop crash: the node stops receiving and all armed timers are
  /// permanently suppressed. Idempotent.
  void crash() noexcept { alive_ = false; }

  /// Revives a crashed node under a new incarnation and invokes the
  /// onRestart() upcall so subclasses can reload durable state and rejoin
  /// their protocol. No-op on a live node.
  void restart() {
    if (alive_) return;
    alive_ = true;
    ++incarnation_;
    ++restarts_;
    if (simulator_ != nullptr) lastRestartAt_ = simulator_->now();
    onRestart();
  }

  /// Legacy fail-stop toggle (used by fault tools): setAlive(false) is
  /// crash(), setAlive(true) is restart() (with the full upcall path).
  void setAlive(bool alive) {
    if (alive) {
      restart();
    } else {
      crash();
    }
  }

  /// Invoked once by the deployment after simulator/network attachment.
  virtual void start() {}

  /// Message delivery upcall. `from` is the sender's node id.
  virtual void receive(util::NodeId from, const MessagePtr& message) = 0;

  /// Recovery upcall, invoked by restart() after the incarnation bump.
  /// Volatile state is gone (the process died); subclasses reload whatever
  /// they persisted and re-arm their timers here.
  virtual void onRestart() {}

  /// Wires the node into a simulation; owned by deployment code.
  void attach(Simulator* simulator, Network* network) noexcept {
    simulator_ = simulator;
    network_ = network;
  }

 protected:
  Time now() const noexcept { return simulator_->now(); }
  Simulator& simulator() noexcept { return *simulator_; }
  Network& network() noexcept { return *network_; }

  /// Sends a message through the network to `to`.
  void send(util::NodeId to, MessagePtr message);

  /// Multiplier applied to every setTimer delay — the clock-skew fault
  /// model (a node with a fast clock, scale < 1, times out prematurely).
  void setTimerScale(double scale) noexcept {
    if (scale > 0) timerScale_ = scale;
  }
  double timerScale() const noexcept { return timerScale_; }

  /// Schedules a callback after `delay` (scaled by the node's clock skew);
  /// suppressed if the node has crashed — or crashed and restarted — by the
  /// time it fires (a restarted process must not run timers armed by its
  /// previous incarnation). Returns a cancelable id.
  TimerId setTimer(Time delay, std::function<void()> fn) {
    assert(simulator_ != nullptr);
    if (timerScale_ != 1.0) {
      delay = std::max<Time>(
          1, static_cast<Time>(static_cast<double>(delay) * timerScale_));
    }
    return simulator_->scheduleTimer(delay, this, incarnation_, std::move(fn));
  }

  void cancelTimer(TimerId id) { simulator_->cancel(id); }

 private:
  util::NodeId id_;
  bool alive_ = true;
  uint64_t incarnation_ = 0;
  uint64_t restarts_ = 0;
  Time lastRestartAt_ = 0;
  double timerScale_ = 1.0;
  Simulator* simulator_ = nullptr;
  Network* network_ = nullptr;
};

}  // namespace avd::sim
