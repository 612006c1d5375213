// PBFT replica state machine.
//
// Implements the full Castro-Liskov protocol: request handling with
// retransmission caching, primary batching, the three-phase agreement
// (pre-prepare / prepare / commit), in-order execution, periodic checkpoints
// with log garbage collection, and the view-change / new-view protocol.
//
// Two implementation details matter for the paper's findings and are
// reproduced deliberately:
//
//  1. The request ("view-change") timer. By default there is a SINGLE timer
//     per replica: it is armed when a request is received directly from a
//     client, and *cleared when any directly-received request executes* —
//     even though other direct requests may still be pending. This is the
//     bug AVD discovered (§6): a malicious primary that executes one request
//     per timer period keeps every backup's timer perpetually reset while
//     starving everyone else. Config::perRequestTimers enables the fixed
//     semantics (one timer per pending request) for the ablation.
//
//  2. Pre-prepare validation verifies the *receiving replica's own* entry of
//     each piggybacked request's MAC authenticator. A request whose
//     authenticator is valid for the primary but corrupt for ≥ 2f backups is
//     ordered by the primary yet can never gather a prepare certificate,
//     stalling the execution pipeline at its sequence number until a view
//     change fills the hole with a null request — the Big MAC attack.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "crypto/authenticator.h"
#include "crypto/keychain.h"
#include "pbft/config.h"
#include "pbft/log.h"
#include "pbft/message.h"
#include "pbft/service.h"
#include "pbft/stable_storage.h"
#include "sim/node.h"

namespace avd::pbft {

/// Behaviour knobs for a (possibly malicious) replica. A correct replica
/// keeps all defaults; AVD's node-synthesis tools set these to instantiate
/// attacker replicas (§2: malicious nodes are controlled by the platform).
struct ReplicaBehavior {
  /// Slow-primary attack (§6): when primary, withhold ordering and
  /// pre-prepare exactly one pending request per drip period.
  bool slowPrimary = false;

  /// Drip period as a fraction of requestTimeout. Must leave enough margin
  /// for the commit to land before the backups' request timers fire.
  double slowPrimaryFraction = 0.8;

  /// If set, the slow primary orders only this client's requests (the
  /// colluding-client variant that zeroes useful throughput).
  util::NodeId colludingClient = util::kNoNode;

  /// Send spurious VIEW-CHANGE messages at this interval (0 = never).
  sim::Time spuriousViewChangeInterval = 0;

  /// Suppress outgoing PREPARE / COMMIT messages (silent-replica attacks).
  bool silentPrepares = false;
  bool silentCommits = false;

  /// Equivocation attack: when primary, send conflicting pre-prepares for
  /// the same sequence number to different backups (a safety attack that
  /// correct PBFT must absorb — the split prepare votes can stall a
  /// sequence and cost a view change, but never diverge execution).
  bool equivocate = false;

  /// Clock-skew fault: all timers at this replica fire after delay *
  /// timerSkew (< 1 = fast clock, premature timeouts; > 1 = slow clock).
  double timerSkew = 1.0;
};

/// Counters exposed for tests, impact analysis, and benches.
struct ReplicaStats {
  std::uint64_t requestsReceived = 0;
  std::uint64_t requestsBadMac = 0;
  std::uint64_t prePreparesRejected = 0;
  /// Pre-prepares parked because a piggybacked request could not (yet) be
  /// authenticated; resolved if a valid retransmission arrives later.
  std::uint64_t prePreparesPended = 0;
  /// Parked pre-prepares adopted on quorum authority: 2f+1 matching commits
  /// certify the batch digest, superseding the missing client MAC.
  std::uint64_t prePreparesAdoptedByQuorum = 0;
  std::uint64_t batchesOrdered = 0;
  std::uint64_t requestsExecuted = 0;
  std::uint64_t viewChangesInitiated = 0;
  std::uint64_t checkpointsTaken = 0;
  std::uint64_t repliesResent = 0;
  /// Read-only requests answered tentatively (no ordering).
  std::uint64_t readOnlyServed = 0;
  /// 1 if this replica hit the view-change crash bug (fail-stopped).
  std::uint64_t crashedOnViewChange = 0;
  /// Sequences executed via f+1 sync attestations (lost-message recovery).
  std::uint64_t sequencesSynced = 0;
  /// State transfers completed: a quorum-corroborated snapshot was adopted
  /// after falling behind a stable checkpoint.
  std::uint64_t stateTransfersCompleted = 0;

  // --- Resource accounting (flood tools / Aardvark-style defenses) --------
  /// Requests rejected by per-client admission quotas.
  std::uint64_t quotaDrops = 0;
  /// Reply-cache resends suppressed by the per-window replay cap.
  std::uint64_t replaysSuppressed = 0;
  /// Requests rejected for exceeding Config::maxRequestBytes.
  std::uint64_t oversizedRejected = 0;
  /// Requests rejected because the ordering queue hit maxOrderingQueue.
  std::uint64_t orderingDropped = 0;
  /// Parked pre-prepares evicted (or refused) at maxParkedPrePrepares.
  std::uint64_t parkedEvicted = 0;
  /// Status rounds whose sync pushes hit the per-peer byte budget.
  std::uint64_t syncBytesCapped = 0;
  /// Reply-cache entries evicted at stable-checkpoint advance.
  std::uint64_t replyCacheEvicted = 0;
  /// High-water marks.
  std::uint64_t peakOrderingQueue = 0;
  std::uint64_t peakParkedBytes = 0;
};

class Replica final : public sim::Node {
 public:
  Replica(util::NodeId id, const Config& config,
          const crypto::Keychain* keychain, std::unique_ptr<Service> service,
          ReplicaBehavior behavior = {});

  void start() override;
  void receive(util::NodeId from, const sim::MessagePtr& message) override;

  /// Crash recovery: wipes volatile state, reloads the StableStorage
  /// record, and rejoins the protocol with an immediate status round (peers
  /// push what we missed; anything older than our log window arrives via
  /// checkpoint state transfer).
  void onRestart() override;

  // --- Observability -------------------------------------------------------
  util::ViewId view() const noexcept { return view_; }
  bool isPrimary() const noexcept {
    return config_.primaryOf(view_) == id() && !inViewChange_;
  }
  util::SeqNum lastExecuted() const noexcept { return lastExecuted_; }
  util::SeqNum stableCheckpoint() const noexcept { return stableSeq_; }
  bool inViewChange() const noexcept { return inViewChange_; }
  const ReplicaStats& stats() const noexcept { return stats_; }
  /// Total bytes of cached last-replies — regression observability for the
  /// reply-cache eviction satellite (bounded under a long replay storm).
  std::size_t replyCacheBytes() const noexcept;
  Service& service() noexcept { return *service_; }
  crypto::MacService& macs() noexcept { return macs_; }
  const StableStorage& stableStorage() const noexcept { return stable_; }

  /// seq -> digest of the executed batch, read off commitCerts().
  std::map<util::SeqNum, std::uint64_t> executionTrace() const;

  /// Commit certificate snapshotted at execution time: the executed digest
  /// plus the commit voters that endorsed it. Recorded per sequence because
  /// checkpoint GC destroys log entries — the oracle needs the voter sets
  /// afterwards to show WHO double-voted when two replicas execute
  /// conflicting digests. Sequences executed through f+1 sync attestations
  /// carry no commit votes and record an empty voter set.
  struct CommitCert {
    std::uint64_t digest = 0;
    std::vector<util::NodeId> voters;
  };
  const std::map<util::SeqNum, CommitCert>& commitCerts() const noexcept {
    return commitCerts_;
  }

 private:
  struct ClientRecord {
    util::RequestId lastExecutedTs = 0;
    ReplyPtr lastReply;
    /// Latest unexecuted request received directly from the client.
    RequestPtr pendingDirect;
    /// Fixed-timer mode only: this client's pending-request timer.
    sim::TimerId timer = 0;
    bool timerArmed = false;
    /// Highest timestamp handed to the primary's batching queue.
    util::RequestId lastQueuedTs = 0;
    /// Admission control: window index and usage (requests admitted, cached
    /// replies resent) within it.
    std::int64_t admissionWindow = -1;
    std::uint32_t admittedInWindow = 0;
    std::uint32_t resendsInWindow = 0;
  };

  std::uint32_t n() const noexcept { return config_.replicaCount(); }
  bool isReplicaId(util::NodeId node) const noexcept { return node < n(); }
  util::NodeId currentPrimary() const noexcept {
    return config_.primaryOf(view_);
  }

  /// Multicasts an authenticated message to all other replicas.
  template <typename M>
  void multicastToReplicas(std::shared_ptr<M> message);

  // --- Message handlers -----------------------------------------------------
  void onRequest(util::NodeId from, const RequestPtr& request);
  void onPrePrepare(util::NodeId from, const PrePreparePtr& prePrepare);
  void onPrepare(util::NodeId from, const PrepareMessage& prepare);
  void onCommit(util::NodeId from, const CommitMessage& commit);
  void onCheckpoint(util::NodeId from, const CheckpointMessage& checkpoint);
  void onViewChange(util::NodeId from, const ViewChangePtr& viewChange);
  void onNewView(util::NodeId from, const NewViewPtr& newView);

  // --- Ordering (primary) ---------------------------------------------------
  void enqueueForOrdering(const RequestPtr& request);
  void scheduleBatchFlush();
  void flushBatch();
  void orderBatch(std::vector<RequestPtr> batch);
  void dripOneRequest();  // slow-primary behaviour

  // Ordering-queue facade: a single FIFO deque by default, per-client FIFO
  // lanes drained round-robin under Config::fairClientScheduling.
  std::size_t orderingSize() const noexcept;
  bool orderingEmpty() const noexcept { return orderingSize() == 0; }
  /// Appends one request, honouring maxOrderingQueue (newest rejected);
  /// returns whether it was queued.
  bool orderingPush(const RequestPtr& request);
  /// Removes and returns up to `take` requests in service order.
  std::vector<RequestPtr> orderingTake(std::size_t take);
  /// Removes and returns the next request of `client` (kNoNode = any), or
  /// nullptr. Used by the slow-primary drip.
  RequestPtr orderingTakeFor(util::NodeId client);
  void orderingClear();

  /// The record of `client`, created on first use.
  ClientRecord& clientRecord(util::NodeId client);

  // --- Admission control (Aardvark-style, Config::clientAdmissionControl) ---
  /// Charges one admission-window slot for `client`; false = over quota.
  bool admitRequest(ClientRecord& record);
  /// Charges one reply-resend slot; false = replay suppressed this window.
  bool admitResend(ClientRecord& record);

  // --- Agreement ------------------------------------------------------------
  bool acceptPrePrepare(const PrePreparePtr& prePrepare);
  /// Re-attempts pre-prepares parked on `digest` after a valid copy of that
  /// request arrived.
  void retryPendingPrePrepares(std::uint64_t digest);
  /// Adopts a parked pre-prepare once 2f+1 commits certify its digest (the
  /// quorum vouches for request authenticity; >= f+1 correct replicas
  /// verified the client MACs we could not).
  bool adoptQuorumCertifiedPending(util::SeqNum seq);
  void maybeSendCommit(util::SeqNum seq);
  void maybeExecute();
  void executeEntry(util::SeqNum seq, LogEntry& entry);

  // --- Request timer (single-timer bug vs per-request fix) ------------------
  void noteDirectRequest(const RequestPtr& request);
  void onRequestExecuted(util::NodeId client, util::RequestId timestamp);
  void armSingleTimer();
  void onRequestTimerExpired();
  bool hasPendingDirectRequests() const;

  // --- Aardvark-style throughput guard ----------------------------------------
  void checkPrimaryThroughput();

  // --- Status / sync subprotocol ---------------------------------------------
  void broadcastStatus();
  void sendStatusNow();
  void onStatus(util::NodeId from, const StatusMessage& status);
  void onSyncSeq(util::NodeId from,
                 const std::shared_ptr<const SyncSeqMessage>& sync);
  /// Executes in-order sequences for which f+1 matching attestations have
  /// accumulated.
  void drainSyncVotes();

  // --- Checkpoints & state transfer ------------------------------------------
  void takeCheckpoint(util::SeqNum seq);
  void checkCheckpointStable(util::SeqNum seq);
  void requestStateTransfer(util::SeqNum seq, util::NodeId source);
  void onStateRequest(util::NodeId from, const StateRequestMessage& request);
  void onStateResponse(util::NodeId from, const StateResponseMessage& response);

  // --- Stable storage ----------------------------------------------------------
  /// Writes the current protocol-critical state to stable storage. Called at
  /// the protocol's persistence points: stable-checkpoint advance, view
  /// installation, and joining a view change.
  void persistStableState();

  // --- View changes -----------------------------------------------------------
  void startViewChange(util::ViewId newView);
  void maybeSendNewView(util::ViewId newView);
  void installNewView(util::ViewId newView,
                      const std::vector<PrePreparePtr>& prePrepares);
  void onViewChangeTimerExpired();
  void sendSpuriousViewChange();

  Config config_;
  crypto::MacService macs_;
  std::unique_ptr<Service> service_;
  ReplicaBehavior behavior_;

  util::ViewId view_ = 0;
  bool inViewChange_ = false;
  util::ViewId targetView_ = 0;

  util::SeqNum nextSeq_ = 1;  // primary only: next sequence to assign
  util::SeqNum lastExecuted_ = 0;
  util::SeqNum stableSeq_ = 0;  // low watermark

  ReplicaLog log_;
  /// Client records indexed by client id, grown on demand; a slot stays
  /// empty until the replica first handles that client. Iteration runs in
  /// ascending id order (new-view queue rebuild, timer scans, checkpoints),
  /// and a deque keeps references stable while it grows.
  std::deque<std::optional<ClientRecord>> clients_;

  /// Requests whose authenticator entry verified for us, by digest. A
  /// pre-prepare is acceptable when every batched request verifies directly
  /// OR a previously-authenticated copy with the same digest is held — the
  /// Castro-Liskov implementation matches digests against directly received
  /// requests, which is why a single corrupted transmission round does NOT
  /// stall the protocol (§6: no view change "if every retransmission from
  /// the malicious client was correct").
  std::unordered_map<std::uint64_t, RequestPtr> authedRequests_;
  /// Pre-prepares waiting for request authentication, and the reverse index
  /// from missing request digest to waiting sequence numbers.
  std::map<util::SeqNum, PrePreparePtr> pendingPrePrepares_;
  std::unordered_map<std::uint64_t, std::set<util::SeqNum>> pendingByDigest_;

  // Primary batching. orderingQueue_ is the default shared FIFO;
  // fairQueues_/fairQueued_/fairCursor_ replace it under fair scheduling
  // (one lane per client, drained round-robin).
  std::deque<RequestPtr> orderingQueue_;
  std::map<util::NodeId, std::deque<RequestPtr>> fairQueues_;
  std::size_t fairQueued_ = 0;
  util::NodeId fairCursor_ = 0;
  sim::TimerId batchTimer_ = 0;
  bool batchTimerArmed_ = false;
  sim::TimerId dripTimer_ = 0;

  // Single request timer (default, buggy semantics).
  sim::TimerId requestTimer_ = 0;
  bool requestTimerArmed_ = false;

  // Checkpoint votes: seq -> digest -> voters.
  std::map<util::SeqNum, std::map<std::uint64_t, std::map<util::NodeId, bool>>>
      checkpointVotes_;
  /// Our own checkpoints within the log window, kept with their snapshots so
  /// lagging peers can be served state transfers.
  struct OwnCheckpoint {
    std::uint64_t digest = 0;
    util::Bytes snapshot;
    std::vector<std::pair<util::NodeId, util::RequestId>> clientTimestamps;
  };
  std::map<util::SeqNum, OwnCheckpoint> ownCheckpoints_;
  bool stateTransferInFlight_ = false;

  // Stable storage (survives crash–restart; everything else protocol-side is
  // volatile and wiped by onRestart).
  StableStorage stable_;
  /// Voters of the quorum that made the current stable checkpoint stable.
  std::vector<util::NodeId> stableProof_;
  /// Service snapshot at construction, restored when recovering with no
  /// stable record (crash before the first persistence point).
  util::Bytes initialSnapshot_;

  // View-change votes: target view -> replica -> message.
  std::map<util::ViewId, std::map<util::NodeId, ViewChangePtr>>
      viewChangeVotes_;
  sim::TimerId vcTimer_ = 0;
  bool vcTimerArmed_ = false;
  std::uint32_t vcAttempts_ = 0;
  util::ViewId newViewSentFor_ = 0;  // highest view we multicast NEW-VIEW for
  /// The NEW-VIEW that installed the current view (ours or relayed), kept
  /// for status-driven retransmission to peers stranded in older views.
  NewViewPtr latestNewView_;

  /// Sync attestations: seq -> digest -> attesting replica -> batch.
  std::map<util::SeqNum,
           std::map<std::uint64_t,
                    std::map<util::NodeId, std::shared_ptr<const SyncSeqMessage>>>>
      syncVotes_;

  /// Executed-count snapshot at the start of the current guard window.
  std::uint64_t guardWindowBaseline_ = 0;

  /// Per-peer sync-push byte budget: peer -> (status-window index, bytes
  /// pushed within it). Bounds status-round amplification.
  std::map<util::NodeId, std::pair<std::int64_t, std::size_t>> syncBudget_;
  /// Wire bytes currently parked in pendingPrePrepares_ (peak tracked in
  /// stats_.peakParkedBytes).
  std::size_t parkedBytes_ = 0;
  /// Frozen client-timestamp snapshot of the PREVIOUS stable checkpoint.
  /// Reply-cache entries at or below these timestamps are evicted when the
  /// next checkpoint stabilizes — one full checkpoint window of grace, so a
  /// client retransmitting across the eviction still finds its reply.
  std::map<util::NodeId, util::RequestId> replyCacheFrozen_;

  /// Survives restarts: the oracle must span incarnations.
  std::map<util::SeqNum, CommitCert> commitCerts_;
  ReplicaStats stats_;
};

}  // namespace avd::pbft
