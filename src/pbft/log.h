// Per-sequence-number protocol log.
//
// Tracks, for every in-window sequence number, the accepted pre-prepare and
// the prepare/commit certificates being accumulated for it. Votes are keyed
// by replica and carry the digest they endorse, so votes that race ahead of
// the pre-prepare are held and only counted once they match the accepted
// digest. Garbage collection follows the checkpoint protocol: once a
// checkpoint becomes stable at sequence s, everything at or below s is
// discarded and the watermarks advance.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.h"
#include "pbft/message.h"

namespace avd::pbft {

/// One phase's votes for one sequence: at most one endorsed digest per
/// replica, stored flat as a presence mask plus a digest per replica id.
/// Reads like a std::map<NodeId, digest>: operator[] inserts, and iteration
/// yields (replica, digest) pairs in ascending replica order.
class VoteSet {
 public:
  /// Replica ids must be below this (f <= 10); Replica checks its config.
  static constexpr util::NodeId kCapacity = 32;

  std::uint64_t& operator[](util::NodeId replica) noexcept {
    assert(replica < kCapacity);
    present_ |= std::uint32_t{1} << replica;
    return digests_[replica];
  }

  bool empty() const noexcept { return present_ == 0; }
  void clear() noexcept { present_ = 0; }

  /// Votes endorsing `digest`.
  std::size_t count(std::uint64_t digest) const noexcept {
    std::size_t matching = 0;
    for (const auto& [replica, vote] : *this) {
      if (vote == digest) ++matching;
    }
    return matching;
  }

  class Iterator {
   public:
    Iterator(const VoteSet* set, std::uint32_t rest) noexcept
        : set_(set), rest_(rest) {}
    std::pair<util::NodeId, std::uint64_t> operator*() const noexcept {
      const auto replica = static_cast<util::NodeId>(std::countr_zero(rest_));
      return {replica, set_->digests_[replica]};
    }
    Iterator& operator++() noexcept {
      rest_ &= rest_ - 1;  // drop the lowest replica still to visit
      return *this;
    }
    bool operator==(const Iterator& other) const noexcept {
      return rest_ == other.rest_;
    }

   private:
    const VoteSet* set_;
    std::uint32_t rest_;
  };
  Iterator begin() const noexcept { return {this, present_}; }
  Iterator end() const noexcept { return {this, 0}; }

 private:
  std::uint32_t present_ = 0;
  std::array<std::uint64_t, kCapacity> digests_{};
};

struct LogEntry {
  /// Pre-prepare accepted for this sequence in `view` (null until then).
  PrePreparePtr prePrepare;
  util::ViewId view = 0;
  std::uint64_t digest = 0;

  /// PREPARE votes: replica -> endorsed digest. Never includes the primary
  /// (its pre-prepare stands in for its prepare).
  VoteSet prepares;
  /// COMMIT votes: replica -> endorsed digest (includes own commit).
  VoteSet commits;

  bool prepareSent = false;
  bool commitSent = false;
  bool executed = false;

  /// Memory of the highest-view prepared certificate this replica EVER held
  /// for this sequence (PBFT's P-set entry). Live certificate fields above
  /// are wiped when a new view installs, but this memory must survive:
  /// a committed value anywhere implies 2f+1 replicas hold its prepared
  /// certificate, and their view-change messages must keep carrying it even
  /// across interrupted re-agreement attempts — otherwise a later new-view
  /// could null out a sequence some replica already executed.
  bool everPrepared = false;
  util::ViewId preparedView = 0;
  std::uint64_t preparedDigest = 0;
  std::vector<RequestPtr> preparedBatch;

  /// Records the live certificate as the ever-prepared memory (monotone in
  /// view; within a view the digest is fixed by the accepted pre-prepare).
  void recordPrepared() {
    if (everPrepared && preparedView > view) return;
    everPrepared = true;
    preparedView = view;
    preparedDigest = digest;
    preparedBatch = prePrepare->batch;
  }

  std::size_t matchingPrepares() const noexcept {
    return countMatching(prepares);
  }
  std::size_t matchingCommits() const noexcept { return countMatching(commits); }

  /// Prepared certificate: accepted pre-prepare + 2f matching prepares.
  bool prepared(std::uint32_t f) const noexcept {
    return prePrepare != nullptr && matchingPrepares() >= 2 * f;
  }
  /// Committed certificate: prepared + 2f+1 matching commits.
  bool committed(std::uint32_t f) const noexcept {
    return prepared(f) && matchingCommits() >= 2 * f + 1;
  }

 private:
  std::size_t countMatching(const VoteSet& votes) const noexcept {
    return prePrepare == nullptr ? 0 : votes.count(digest);
  }
};

/// The entries of a window of sequence numbers, indexed by seq - base.
/// Only sequences reached through at() hold an entry; find() reports the
/// others as absent, just as for a sparse map.
class ReplicaLog {
 public:
  /// Returns (creating if needed) the entry at `seq`.
  LogEntry& at(util::SeqNum seq);

  /// Entry lookup without creation; nullptr when absent.
  LogEntry* find(util::SeqNum seq);
  const LogEntry* find(util::SeqNum seq) const;

  /// Drops all entries with seq <= stableSeq (checkpoint GC).
  void truncateBelow(util::SeqNum stableSeq);

  /// Prepared-but-possibly-uncommitted certificates above `stableSeq`, for
  /// inclusion in a VIEW-CHANGE message.
  std::vector<PreparedProof> preparedProofsAbove(util::SeqNum stableSeq,
                                                 std::uint32_t f) const;

  /// Clears certificate progress for entries that have not executed, as part
  /// of installing a new view (fresh certificates are gathered there).
  void resetUnexecutedForNewView();

  /// Number of entries held.
  std::size_t size() const noexcept { return entries_; }

 private:
  /// window_[i] is the slot of sequence base_ + i.
  std::deque<std::optional<LogEntry>> window_;
  util::SeqNum base_ = 0;
  std::size_t entries_ = 0;
};

}  // namespace avd::pbft
