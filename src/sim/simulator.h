// Deterministic discrete-event simulation engine.
//
// This is the multi-node emulation substrate that replaces the paper's
// Emulab deployment: hundreds of PBFT replicas and clients run as event-
// driven state machines inside a single process, with virtual time advanced
// by an event queue. Determinism contract: for a fixed seed and a fixed
// sequence of schedule() calls, event execution order is identical across
// runs (ties on timestamp break by insertion order).
//
// Events are plain data. The hot kinds — a message delivery, a node timer,
// an ingress-queue service completion — are typed records the simulator
// dispatches itself; only the remaining one-off callers (fault schedules,
// tests) pass a closure. Records live in a slot table with a free list, and
// the queue is a 4-ary min-heap of small (when, id, slot) entries, so
// scheduling an event allocates nothing once the tables have grown.
#pragma once

#include <cstdint>
#include <functional>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/message.h"
#include "sim/time.h"

namespace avd::sim {

class Network;
class Node;

/// Identifier of a cancelable scheduled event: its insertion sequence
/// number, starting at 1 (0 is never issued).
using TimerId = std::uint64_t;

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 0) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const noexcept { return now_; }

  /// Simulation-wide RNG; every stochastic decision in a run flows through
  /// it so that the run is a pure function of the seed.
  util::Rng& rng() noexcept { return rng_; }

  /// Schedules `fn` to run at now() + delay (delay >= 0).
  TimerId schedule(Time delay, std::function<void()> fn) {
    return scheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at absolute virtual time `when` (>= now()).
  TimerId scheduleAt(Time when, std::function<void()> fn) {
    return push(when, Call{std::move(fn)});
  }

  /// Delivers `message` from `from` to `to` through `network` after
  /// `delay`; `receiver` is the physical instance chosen at send time.
  void scheduleDelivery(Time delay, Network* network, util::NodeId from,
                        util::NodeId to, Node* receiver, MessagePtr message) {
    push(now_ + delay,
         Deliver{network, from, to, receiver, std::move(message)});
  }

  /// Runs `fn` after `delay` only if `node` is then alive in incarnation
  /// `incarnation` (see Node::setTimer).
  TimerId scheduleTimer(Time delay, Node* node, std::uint64_t incarnation,
                        std::function<void()> fn) {
    return push(now_ + delay, Timer{node, incarnation, std::move(fn)});
  }

  /// Completes the service of the head of `to`'s ingress queue after
  /// `delay`.
  void scheduleIngressService(Time delay, Network* network, util::NodeId to) {
    push(now_ + delay, IngressService{network, to});
  }

  /// Cancels a scheduled event. A no-op on ids that already fired, were
  /// already cancelled, or were never issued.
  void cancel(TimerId id) noexcept;

  /// Executes the next pending event. Returns false if the queue is empty.
  bool step();

  /// Runs events with timestamp <= deadline, then advances now() to the
  /// deadline. A deadline before now() runs nothing and leaves now() as it
  /// is: virtual time never moves backwards.
  void runUntil(Time deadline);

  /// Runs until the queue drains or maxEvents have executed.
  /// Returns the number of events executed.
  std::size_t run(std::size_t maxEvents = SIZE_MAX);

  std::size_t pendingEvents() const noexcept { return live_; }
  std::uint64_t executedEvents() const noexcept { return executed_; }

 private:
  struct Call {
    std::function<void()> fn;
  };
  struct Deliver {
    Network* network;
    util::NodeId from;
    util::NodeId to;
    Node* receiver;
    MessagePtr message;
  };
  struct Timer {
    Node* node;
    std::uint64_t incarnation;
    std::function<void()> fn;
  };
  struct IngressService {
    Network* network;
    util::NodeId to;
  };
  using Record = std::variant<Call, Deliver, Timer, IngressService>;

  /// Heap entry; `slot` indexes records_. Ordered by (when, id), which is
  /// unique, so the pop order is independent of the heap's shape.
  struct Entry {
    Time when;
    TimerId id;
    std::uint32_t slot;
  };

  /// Life cycle of an issued id, one byte each (see states_).
  enum class State : std::uint8_t { kPending, kCancelled, kSettled };

  TimerId push(Time when, Record record);
  /// Discards cancelled entries from the top of the heap; returns whether
  /// a live event remains.
  bool liveTop();
  /// Pops the live top entry and runs its record.
  void fireTop();
  void popHeap() noexcept;
  void dispatch(Record& record);

  State& stateOf(TimerId id) noexcept {
    return states_[static_cast<std::size_t>(id - 1)];
  }

  static bool earlier(const Entry& a, const Entry& b) noexcept {
    return a.when != b.when ? a.when < b.when : a.id < b.id;
  }
  void siftUp(std::size_t index) noexcept;
  void siftDown(std::size_t index) noexcept;

  Time now_ = 0;
  TimerId nextId_ = 1;
  std::uint64_t executed_ = 0;
  /// Pending events that are not cancelled.
  std::size_t live_ = 0;
  std::vector<Entry> heap_;
  std::vector<Record> records_;
  std::vector<std::uint32_t> freeSlots_;
  /// states_[id - 1] is the state of id: one byte per event scheduled over
  /// the simulator's life (about 0.3 MB for a 250-client pbft deployment).
  std::vector<State> states_;
  util::Rng rng_;
};

}  // namespace avd::sim
