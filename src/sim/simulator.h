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
// the queue is a 4-ary min-heap of 16-byte (when, id|slot) entries, so
// scheduling an event allocates nothing once the tables have grown.
//
// A cancel marks the id cancelled at once. Its entry leaves the heap when
// it reaches the top, or earlier: once cancelled entries outnumber live
// ones by more than kDeadSlack, the heap drops them all in one pass and
// releases the closure each record holds. So between calls the heap holds
// at most pendingEvents() + kDeadSlack cancelled entries, and a cancel
// costs amortised O(1). What a closure captures must not call back into
// the simulator when it is destroyed: that may happen inside cancel().
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
  /// already cancelled, or were never issued. Allocates nothing.
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

  /// Heap entry: `key` holds the id above kSlotBits bits of slot (the
  /// index into records_). Ids are unique, so ordering by (when, key) is
  /// ordering by (when, id), and the pop order is independent of the
  /// heap's shape.
  struct Entry {
    Time when;
    std::uint64_t key;
  };
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  /// Cancelled entries the heap may hold beyond the live ones.
  static constexpr std::size_t kDeadSlack = 16;

  static TimerId idOf(const Entry& entry) noexcept {
    return entry.key >> kSlotBits;
  }
  static std::uint32_t slotOf(const Entry& entry) noexcept {
    return static_cast<std::uint32_t>(entry.key & kSlotMask);
  }

  /// Life cycle of an issued id, one byte each (see states_).
  enum class State : std::uint8_t { kPending, kCancelled, kSettled };

  TimerId push(Time when, Record record);
  /// Discards cancelled entries from the top of the heap; returns whether
  /// a live event remains.
  bool liveTop();
  /// Pops the live top entry and runs its record.
  void fireTop();
  void popHeap() noexcept;
  /// Drops every cancelled entry from the heap, releases its record and
  /// frees its slot.
  void compact() noexcept;
  void dispatch(Record& record);

  State& stateOf(TimerId id) noexcept {
    return states_[static_cast<std::size_t>(id - 1)];
  }

  static bool earlier(const Entry& a, const Entry& b) noexcept {
    return a.when != b.when ? a.when < b.when : a.key < b.key;
  }
  void siftUp(std::size_t index) noexcept;
  void siftDown(std::size_t index) noexcept;

  Time now_ = 0;
  TimerId nextId_ = 1;
  std::uint64_t executed_ = 0;
  /// Pending events that are not cancelled.
  std::size_t live_ = 0;
  /// Cancelled entries still in the heap.
  std::size_t dead_ = 0;
  std::vector<Entry> heap_;
  std::vector<Record> records_;
  /// Its capacity never falls below records_.size(), so freeing slots
  /// never allocates.
  std::vector<std::uint32_t> freeSlots_;
  /// states_[id - 1] is the state of id: one byte per event scheduled over
  /// the simulator's life (about 0.3 MB for a 250-client pbft deployment).
  std::vector<State> states_;
  util::Rng rng_;
};

}  // namespace avd::sim
