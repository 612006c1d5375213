#include "pbft/log.h"

#include <utility>

namespace avd::pbft {

LogEntry& ReplicaLog::at(util::SeqNum seq) {
  if (entries_ == 0) {
    window_.clear();
    base_ = seq;
  } else if (seq < base_) {
    window_.insert(window_.begin(), base_ - seq, std::nullopt);
    base_ = seq;
  }
  const std::size_t index = seq - base_;
  if (index >= window_.size()) window_.resize(index + 1);
  std::optional<LogEntry>& slot = window_[index];
  if (!slot) {
    slot.emplace();
    ++entries_;
  }
  return *slot;
}

LogEntry* ReplicaLog::find(util::SeqNum seq) {
  return const_cast<LogEntry*>(std::as_const(*this).find(seq));
}

const LogEntry* ReplicaLog::find(util::SeqNum seq) const {
  if (seq < base_ || seq - base_ >= window_.size()) return nullptr;
  const std::optional<LogEntry>& slot = window_[seq - base_];
  return slot ? &*slot : nullptr;
}

void ReplicaLog::truncateBelow(util::SeqNum stableSeq) {
  while (!window_.empty() && base_ <= stableSeq) {
    if (window_.front()) --entries_;
    window_.pop_front();
    ++base_;
  }
}

std::vector<PreparedProof> ReplicaLog::preparedProofsAbove(
    util::SeqNum stableSeq, std::uint32_t f) const {
  (void)f;
  std::vector<PreparedProof> proofs;
  for (std::size_t i = 0; i < window_.size(); ++i) {
    const util::SeqNum seq = base_ + i;
    const std::optional<LogEntry>& entry = window_[i];
    if (seq <= stableSeq || !entry || !entry->everPrepared) continue;
    PreparedProof proof;
    proof.seq = seq;
    proof.view = entry->preparedView;
    proof.digest = entry->preparedDigest;
    proof.batch = entry->preparedBatch;
    proofs.push_back(std::move(proof));
  }
  return proofs;
}

void ReplicaLog::resetUnexecutedForNewView() {
  for (std::optional<LogEntry>& entry : window_) {
    if (!entry || entry->executed) continue;
    entry->prePrepare = nullptr;
    entry->digest = 0;
    entry->prepares.clear();
    entry->commits.clear();
    entry->prepareSent = false;
    entry->commitSent = false;
  }
}

}  // namespace avd::pbft
