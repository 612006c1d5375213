#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/network.h"
#include "sim/node.h"

namespace avd::sim {

TimerId Simulator::push(Time when, Record record) {
  assert(when >= now_ && "cannot schedule into the past");
  if (nextId_ > (~std::uint64_t{0} >> kSlotBits)) {
    throw std::length_error("Simulator: event ids exhausted");
  }
  const TimerId id = nextId_++;
  std::uint32_t slot = 0;
  if (freeSlots_.empty()) {
    if (records_.size() > kSlotMask) {
      throw std::length_error("Simulator: too many pending events");
    }
    // Keep room to free every slot without allocating (see compact()).
    if (freeSlots_.capacity() == records_.size()) {
      freeSlots_.reserve(2 * records_.size() + 8);
    }
    slot = static_cast<std::uint32_t>(records_.size());
    records_.push_back(std::move(record));
  } else {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
    records_[slot] = std::move(record);
  }
  states_.push_back(State::kPending);
  ++live_;
  heap_.push_back(Entry{when, (id << kSlotBits) | slot});
  siftUp(heap_.size() - 1);
  return id;
}

void Simulator::cancel(TimerId id) noexcept {
  if (id == 0 || id >= nextId_) return;
  State& state = stateOf(id);
  if (state != State::kPending) return;
  state = State::kCancelled;
  --live_;
  ++dead_;
  if (dead_ > live_ + kDeadSlack) compact();
}

void Simulator::compact() noexcept {
  std::size_t kept = 0;
  for (const Entry& entry : heap_) {
    State& state = stateOf(idOf(entry));
    if (state == State::kPending) {
      heap_[kept++] = entry;
      continue;
    }
    state = State::kSettled;
    records_[slotOf(entry)].emplace<Call>();
    freeSlots_.push_back(slotOf(entry));  // within capacity
  }
  heap_.resize(kept);
  dead_ = 0;
  // Rebuild the heap bottom-up, from the last node that has a child.
  for (std::size_t index = (kept + 2) / 4; index-- > 0;) siftDown(index);
}

bool Simulator::liveTop() {
  while (!heap_.empty()) {
    const Entry top = heap_.front();
    State& state = stateOf(idOf(top));
    if (state == State::kPending) return true;
    // A cancelled event: release what its record holds and its slot.
    state = State::kSettled;
    --dead_;
    records_[slotOf(top)].emplace<Call>();
    freeSlots_.push_back(slotOf(top));
    popHeap();
  }
  return false;
}

void Simulator::fireTop() {
  const Entry top = heap_.front();
  popHeap();
  stateOf(idOf(top)) = State::kSettled;
  --live_;
  // Move the record out first: running it may schedule events, which can
  // reuse the slot or grow the table.
  Record record = std::move(records_[slotOf(top)]);
  freeSlots_.push_back(slotOf(top));
  now_ = top.when;
  ++executed_;
  if (dead_ > live_ + kDeadSlack) compact();
  dispatch(record);
}

void Simulator::dispatch(Record& record) {
  struct Dispatch {
    void operator()(Call& call) const { call.fn(); }
    void operator()(Deliver& deliver) const {
      deliver.network->deliver(deliver.from, deliver.to, deliver.receiver,
                               std::move(deliver.message));
    }
    void operator()(Timer& timer) const {
      // Suppressed if the node crashed, or crashed and restarted, since
      // the timer was armed.
      if (timer.node->alive() &&
          timer.node->incarnation() == timer.incarnation) {
        timer.fn();
      }
    }
    void operator()(IngressService& service) const {
      service.network->serviceIngress(service.to);
    }
  };
  std::visit(Dispatch{}, record);
}

bool Simulator::step() {
  if (!liveTop()) return false;
  fireTop();
  return true;
}

void Simulator::runUntil(Time deadline) {
  while (liveTop() && heap_.front().when <= deadline) fireTop();
  now_ = std::max(now_, deadline);
}

std::size_t Simulator::run(std::size_t maxEvents) {
  std::size_t executed = 0;
  while (executed < maxEvents && step()) ++executed;
  return executed;
}

// 4-ary min-heap on (when, id): half the depth of a binary heap, and the
// four children of a node sit side by side in memory.

void Simulator::siftUp(std::size_t index) noexcept {
  const Entry entry = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / 4;
    if (!earlier(entry, heap_[parent])) break;
    heap_[index] = heap_[parent];
    index = parent;
  }
  heap_[index] = entry;
}

void Simulator::siftDown(std::size_t index) noexcept {
  const std::size_t size = heap_.size();
  const Entry entry = heap_[index];
  for (;;) {
    const std::size_t first = 4 * index + 1;
    if (first >= size) break;
    const std::size_t last = std::min(first + 4, size);
    std::size_t best = first;
    for (std::size_t child = first + 1; child < last; ++child) {
      if (earlier(heap_[child], heap_[best])) best = child;
    }
    if (!earlier(heap_[best], entry)) break;
    heap_[index] = heap_[best];
    index = best;
  }
  heap_[index] = entry;
}

void Simulator::popHeap() noexcept {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) siftDown(0);
}

}  // namespace avd::sim
