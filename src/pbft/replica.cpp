#include "pbft/replica.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/hash.h"

namespace avd::pbft {

Replica::Replica(util::NodeId id, const Config& config,
                 const crypto::Keychain* keychain,
                 std::unique_ptr<Service> service, ReplicaBehavior behavior)
    : sim::Node(id),
      config_(config),
      macs_(id, keychain),
      service_(std::move(service)),
      behavior_(behavior) {
  assert(id < config_.replicaCount());
  assert(service_ != nullptr);
  if (config_.replicaCount() > VoteSet::kCapacity) {
    throw std::invalid_argument(
        "pbft::Replica: more replicas than a VoteSet holds");
  }
  if (behavior_.timerSkew != 1.0) setTimerScale(behavior_.timerSkew);
  initialSnapshot_ = service_->snapshot();
}

void Replica::start() {
  if (config_.statusInterval > 0) {
    setTimer(config_.statusInterval, [this] { broadcastStatus(); });
  }
  if (config_.primaryThroughputGuard) {
    setTimer(config_.guardWindow, [this] { checkPrimaryThroughput(); });
  }
  if (behavior_.slowPrimary) {
    const auto drip = static_cast<sim::Time>(
        static_cast<double>(config_.requestTimeout) *
        behavior_.slowPrimaryFraction);
    dripTimer_ = setTimer(std::max<sim::Time>(drip, 1), [this] { dripOneRequest(); });
  }
  if (behavior_.spuriousViewChangeInterval > 0) {
    setTimer(behavior_.spuriousViewChangeInterval,
             [this] { sendSpuriousViewChange(); });
  }
}

void Replica::onRestart() {
  // The process died with its volatile memory. Only stats_ and the
  // executed-digest trace survive — they are test observability, not process
  // state, and the cross-replica safety oracle must span incarnations: after
  // the rollback to the stable checkpoint, re-executed sequences must
  // re-commit the same batch digests, or quorum intersection was violated.
  view_ = 0;
  inViewChange_ = false;
  targetView_ = 0;
  nextSeq_ = 1;
  lastExecuted_ = 0;
  stableSeq_ = 0;
  log_ = ReplicaLog{};
  clients_.clear();
  authedRequests_.clear();
  pendingPrePrepares_.clear();
  pendingByDigest_.clear();
  parkedBytes_ = 0;
  syncBudget_.clear();
  replyCacheFrozen_.clear();
  orderingClear();
  batchTimerArmed_ = false;
  requestTimerArmed_ = false;
  checkpointVotes_.clear();
  ownCheckpoints_.clear();
  stateTransferInFlight_ = false;
  viewChangeVotes_.clear();
  vcTimerArmed_ = false;
  vcAttempts_ = 0;
  newViewSentFor_ = 0;
  latestNewView_ = nullptr;
  syncVotes_.clear();
  guardWindowBaseline_ = stats_.requestsExecuted;
  stableProof_.clear();

  // Reload the durable record (genesis state when nothing was persisted).
  const StableRecord* record = stable_.load();
  service_->restore(record != nullptr ? record->snapshot : initialSnapshot_);
  if (record != nullptr) {
    view_ = record->view;
    targetView_ = record->view;
    stableSeq_ = record->stableSeq;
    lastExecuted_ = record->stableSeq;
    nextSeq_ = record->stableSeq + 1;
    stableProof_ = record->checkpointProof;
    for (const auto& [client, timestamp] : record->clientTimestamps) {
      clientRecord(client).lastExecutedTs = timestamp;
    }
    if (record->stableSeq > 0) {
      // Re-seed the stable checkpoint so we can serve state transfers and
      // re-vote it if peers are still gathering the quorum.
      OwnCheckpoint& own = ownCheckpoints_[record->stableSeq];
      own.digest = record->checkpointDigest;
      own.snapshot = record->snapshot;
      own.clientTimestamps = record->clientTimestamps;
    }
    // Re-seed the P-set memory: our next VIEW-CHANGE vote must keep
    // vouching for every certificate the previous incarnation held.
    for (const PreparedProof& proof : record->prepared) {
      if (proof.seq <= stableSeq_) continue;
      LogEntry& entry = log_.at(proof.seq);
      entry.everPrepared = true;
      entry.preparedView = proof.view;
      entry.preparedDigest = proof.digest;
      entry.preparedBatch = proof.batch;
    }
  }

  // Re-arm the lifecycle timers under the new incarnation, then rejoin with
  // an immediate status round: peers push the sequences we missed, relay
  // the NEW-VIEW if the view moved on, or trigger checkpoint state transfer
  // if the system advanced past our log window.
  start();
  sendStatusNow();
}

void Replica::persistStableState() {
  StableRecord record;
  record.view = view_;
  record.stableSeq = stableSeq_;
  record.checkpointProof = stableProof_;
  if (const auto ownIt = ownCheckpoints_.find(stableSeq_);
      stableSeq_ > 0 && ownIt != ownCheckpoints_.end()) {
    record.checkpointDigest = ownIt->second.digest;
    record.snapshot = ownIt->second.snapshot;
    record.clientTimestamps = ownIt->second.clientTimestamps;
  } else if (const StableRecord* previous = stable_.load();
             previous != nullptr && previous->stableSeq == stableSeq_) {
    // Checkpoint data is unchanged since the last write (e.g. persisting a
    // view transition between checkpoints); carry it forward.
    record.checkpointDigest = previous->checkpointDigest;
    record.snapshot = previous->snapshot;
    record.clientTimestamps = previous->clientTimestamps;
  } else {
    record.snapshot = initialSnapshot_;
  }
  record.prepared = log_.preparedProofsAbove(stableSeq_, config_.f);
  stable_.save(std::move(record));
}

template <typename M>
void Replica::multicastToReplicas(std::shared_ptr<M> message) {
  const sim::MessagePtr payload = message;
  for (util::NodeId replica = 0; replica < n(); ++replica) {
    if (replica != id()) send(replica, payload);
  }
}

void Replica::receive(util::NodeId from, const sim::MessagePtr& message) {
  switch (static_cast<MsgKind>(message->kind())) {  // no default: -Wswitch
    case MsgKind::kRequest:
      onRequest(from, std::static_pointer_cast<const RequestMessage>(message));
      break;
    case MsgKind::kPrePrepare:
      onPrePrepare(from,
                   std::static_pointer_cast<const PrePrepareMessage>(message));
      break;
    case MsgKind::kPrepare:
      onPrepare(from, *std::static_pointer_cast<const PrepareMessage>(message));
      break;
    case MsgKind::kCommit:
      onCommit(from, *std::static_pointer_cast<const CommitMessage>(message));
      break;
    case MsgKind::kCheckpoint:
      onCheckpoint(
          from, *std::static_pointer_cast<const CheckpointMessage>(message));
      break;
    case MsgKind::kViewChange:
      onViewChange(from,
                   std::static_pointer_cast<const ViewChangeMessage>(message));
      break;
    case MsgKind::kNewView:
      onNewView(from, std::static_pointer_cast<const NewViewMessage>(message));
      break;
    case MsgKind::kStatus:
      onStatus(from, *std::static_pointer_cast<const StatusMessage>(message));
      break;
    case MsgKind::kSyncSeq:
      onSyncSeq(from, std::static_pointer_cast<const SyncSeqMessage>(message));
      break;
    case MsgKind::kStateRequest:
      onStateRequest(
          from, *std::static_pointer_cast<const StateRequestMessage>(message));
      break;
    case MsgKind::kStateResponse:
      onStateResponse(
          from,
          *std::static_pointer_cast<const StateResponseMessage>(message));
      break;
    case MsgKind::kReply:
      break;  // replicas do not consume replies
  }
}

// --- Requests ---------------------------------------------------------------

void Replica::onRequest(util::NodeId from, const RequestPtr& request) {
  ++stats_.requestsReceived;

  // Integrity + authenticity: the digest must match the request body, and
  // our own authenticator entry must verify. This is exactly the check a
  // Big MAC request passes at the primary and fails at the backups.
  if (request->digest != requestDigest(request->client, request->timestamp,
                                       request->operation,
                                       request->readOnly)) {
    ++stats_.requestsBadMac;
    return;
  }
  if (!request->auth.hasEntryFor(id()) ||
      !macs_.verify(request->client, request->digest,
                    request->auth.tags[id()])) {
    ++stats_.requestsBadMac;
    return;
  }

  // Aardvark-style admission control (off by default): reject oversized
  // operations before any further work, and charge every authenticated
  // arrival — fresh or replayed — against the client's per-window quota, so
  // a flooding client exhausts its own allowance instead of the replica.
  if (config_.clientAdmissionControl &&
      request->operation.size() > config_.maxRequestBytes) {
    ++stats_.oversizedRejected;
    return;
  }

  ClientRecord& record = clientRecord(request->client);
  if (config_.clientAdmissionControl && !admitRequest(record)) {
    ++stats_.quotaDrops;
    return;
  }

  if (request->timestamp < record.lastExecutedTs) return;
  if (request->timestamp == record.lastExecutedTs) {
    if (record.lastReply != nullptr) {
      // Replay suppression: under admission control, at most one cached
      // reply is resent per client per window — a replay storm gets one
      // answer and then silence.
      if (config_.clientAdmissionControl && !admitResend(record)) {
        ++stats_.replaysSuppressed;
        return;
      }
      ++stats_.repliesResent;
      send(request->client, record.lastReply);
    }
    return;
  }

  // Read-only optimization: execute tentatively against the current state,
  // reply immediately, and never touch ordering or the request timers. The
  // client compensates with a 2f+1 matching-reply quorum. Operations the
  // service cannot answer read-only fall through to the ordered path.
  if (request->readOnly) {
    if (const auto result =
            service_->query(request->client, request->operation)) {
      auto reply = std::make_shared<ReplyMessage>();
      reply->view = view_;
      reply->client = request->client;
      reply->timestamp = request->timestamp;
      reply->replica = id();
      reply->resultDigest = util::fnv1a(*result);
      reply->result = *result;
      reply->mac = macs_.generate(request->client, replyDigest(*reply));
      ++stats_.readOnlyServed;
      send(request->client, std::move(reply));
      return;
    }
  }

  // We now hold an authenticated copy: pre-prepares that were parked
  // waiting for this request (its embedded authenticator entry was corrupt
  // for us) can proceed via digest matching.
  authedRequests_[request->digest] = request;
  retryPendingPrePrepares(request->digest);

  const bool direct = from == request->client;
  if (direct) noteDirectRequest(request);

  if (isPrimary()) {
    enqueueForOrdering(request);
  } else if (direct && isReplicaId(currentPrimary())) {
    // Backups relay directly-received requests to the primary.
    send(currentPrimary(), request);
  }
}

void Replica::noteDirectRequest(const RequestPtr& request) {
  ClientRecord& record = clientRecord(request->client);
  if (record.pendingDirect == nullptr ||
      record.pendingDirect->timestamp <= request->timestamp) {
    record.pendingDirect = request;
  }
  if (config_.perRequestTimers) {
    if (!record.timerArmed) {
      record.timerArmed = true;
      const util::NodeId client = request->client;
      record.timer = setTimer(config_.requestTimeout, [this, client] {
        ClientRecord& rec = clientRecord(client);
        rec.timerArmed = false;
        if (inViewChange_) return;
        if (rec.pendingDirect != nullptr &&
            rec.pendingDirect->timestamp > rec.lastExecutedTs) {
          startViewChange(view_ + 1);
        }
      });
    }
  } else {
    armSingleTimer();
  }
}

void Replica::armSingleTimer() {
  if (requestTimerArmed_) return;
  requestTimerArmed_ = true;
  requestTimer_ =
      setTimer(config_.requestTimeout, [this] { onRequestTimerExpired(); });
}

void Replica::onRequestTimerExpired() {
  requestTimerArmed_ = false;
  if (inViewChange_) return;
  if (hasPendingDirectRequests()) startViewChange(view_ + 1);
}

bool Replica::hasPendingDirectRequests() const {
  for (const std::optional<ClientRecord>& record : clients_) {
    if (record && record->pendingDirect != nullptr &&
        record->pendingDirect->timestamp > record->lastExecutedTs) {
      return true;
    }
  }
  return false;
}

void Replica::onRequestExecuted(util::NodeId client,
                                util::RequestId timestamp) {
  ClientRecord& record = clientRecord(client);
  const bool wasDirect = record.pendingDirect != nullptr &&
                         record.pendingDirect->timestamp <= timestamp;
  if (wasDirect) record.pendingDirect = nullptr;
  if (!wasDirect) return;

  if (config_.perRequestTimers) {
    // Fixed semantics: executing this client's request only cancels this
    // client's timer; other starving requests keep their deadlines.
    if (record.timerArmed) {
      cancelTimer(record.timer);
      record.timerArmed = false;
    }
  } else {
    // THE BUG (paper §6): a single timer, cleared whenever *any* directly-
    // received request executes, even though other direct requests may
    // still be pending. The next direct receipt re-arms it from scratch.
    if (requestTimerArmed_) {
      cancelTimer(requestTimer_);
      requestTimerArmed_ = false;
    }
  }
}

// --- Ordering (primary) -----------------------------------------------------

std::size_t Replica::orderingSize() const noexcept {
  return config_.fairClientScheduling ? fairQueued_ : orderingQueue_.size();
}

bool Replica::orderingPush(const RequestPtr& request) {
  if (config_.maxOrderingQueue > 0 &&
      orderingSize() >= config_.maxOrderingQueue) {
    // Deterministic drop policy: the newest arrival is rejected; the client
    // retransmits once the queue has drained.
    ++stats_.orderingDropped;
    return false;
  }
  if (config_.fairClientScheduling) {
    fairQueues_[request->client].push_back(request);
    ++fairQueued_;
  } else {
    orderingQueue_.push_back(request);
  }
  stats_.peakOrderingQueue =
      std::max<std::uint64_t>(stats_.peakOrderingQueue, orderingSize());
  return true;
}

std::vector<RequestPtr> Replica::orderingTake(std::size_t take) {
  std::vector<RequestPtr> batch;
  batch.reserve(std::min(take, orderingSize()));
  if (!config_.fairClientScheduling) {
    while (batch.size() < take && !orderingQueue_.empty()) {
      batch.push_back(std::move(orderingQueue_.front()));
      orderingQueue_.pop_front();
    }
    return batch;
  }
  // Aardvark's fair client scheduling: one request per client per pass,
  // round-robin by client id, so no single client can monopolize a batch.
  while (batch.size() < take && fairQueued_ > 0) {
    auto it = fairQueues_.upper_bound(fairCursor_);
    if (it == fairQueues_.end()) it = fairQueues_.begin();
    fairCursor_ = it->first;
    batch.push_back(std::move(it->second.front()));
    it->second.pop_front();
    --fairQueued_;
    if (it->second.empty()) fairQueues_.erase(it);
  }
  return batch;
}

RequestPtr Replica::orderingTakeFor(util::NodeId client) {
  if (!config_.fairClientScheduling) {
    auto pick = orderingQueue_.begin();
    if (client != util::kNoNode) {
      pick = std::find_if(orderingQueue_.begin(), orderingQueue_.end(),
                          [client](const RequestPtr& request) {
                            return request->client == client;
                          });
    }
    if (pick == orderingQueue_.end()) return nullptr;
    RequestPtr request = std::move(*pick);
    orderingQueue_.erase(pick);
    return request;
  }
  if (client == util::kNoNode) {
    auto batch = orderingTake(1);
    return batch.empty() ? nullptr : std::move(batch.front());
  }
  const auto it = fairQueues_.find(client);
  if (it == fairQueues_.end()) return nullptr;
  RequestPtr request = std::move(it->second.front());
  it->second.pop_front();
  --fairQueued_;
  if (it->second.empty()) fairQueues_.erase(it);
  return request;
}

void Replica::orderingClear() {
  orderingQueue_.clear();
  fairQueues_.clear();
  fairQueued_ = 0;
}

bool Replica::admitRequest(ClientRecord& record) {
  const std::int64_t window =
      config_.admissionWindow > 0 ? now() / config_.admissionWindow : 0;
  if (record.admissionWindow != window) {
    record.admissionWindow = window;
    record.admittedInWindow = 0;
    record.resendsInWindow = 0;
  }
  if (record.admittedInWindow >= config_.admissionQuota) return false;
  ++record.admittedInWindow;
  return true;
}

bool Replica::admitResend(ClientRecord& record) {
  // admitRequest already rolled the window forward for this arrival.
  if (record.resendsInWindow >= 1) return false;
  ++record.resendsInWindow;
  return true;
}

std::size_t Replica::replyCacheBytes() const noexcept {
  std::size_t total = 0;
  for (const std::optional<ClientRecord>& record : clients_) {
    if (record && record->lastReply != nullptr) {
      total += record->lastReply->wireSize();
    }
  }
  return total;
}

std::map<util::SeqNum, std::uint64_t> Replica::executionTrace() const {
  std::map<util::SeqNum, std::uint64_t> trace;
  for (const auto& [seq, cert] : commitCerts_) {
    trace.emplace_hint(trace.end(), seq, cert.digest);
  }
  return trace;
}

Replica::ClientRecord& Replica::clientRecord(util::NodeId client) {
  if (client >= clients_.size()) clients_.resize(client + 1);
  std::optional<ClientRecord>& record = clients_[client];
  if (!record) record.emplace();
  return *record;
}

void Replica::enqueueForOrdering(const RequestPtr& request) {
  ClientRecord& record = clientRecord(request->client);
  if (request->timestamp <=
      std::max(record.lastQueuedTs, record.lastExecutedTs)) {
    return;  // already in flight or executed
  }
  if (!orderingPush(request)) return;  // bounded queue rejected it
  record.lastQueuedTs = request->timestamp;
  if (behavior_.slowPrimary) return;  // the drip timer does the ordering
  if (orderingSize() >= static_cast<std::size_t>(config_.maxBatch)) {
    flushBatch();
  } else {
    scheduleBatchFlush();
  }
}

void Replica::scheduleBatchFlush() {
  if (batchTimerArmed_ || orderingEmpty() || !isPrimary() ||
      behavior_.slowPrimary) {
    return;
  }
  batchTimerArmed_ = true;
  batchTimer_ = setTimer(config_.batchDelay, [this] {
    batchTimerArmed_ = false;
    flushBatch();
  });
}

void Replica::flushBatch() {
  if (!isPrimary()) return;
  while (!orderingEmpty() &&
         nextSeq_ <= stableSeq_ + config_.watermarkWindow) {
    orderBatch(orderingTake(config_.maxBatch));
  }
}

void Replica::orderBatch(std::vector<RequestPtr> batch) {
  const util::SeqNum seq = nextSeq_++;
  auto prePrepare = std::make_shared<PrePrepareMessage>();
  prePrepare->view = view_;
  prePrepare->seq = seq;
  prePrepare->digest = batchDigest(batch);
  prePrepare->batch = std::move(batch);
  prePrepare->replica = id();
  prePrepare->auth = macs_.authenticate(
      phaseDigest(MsgKind::kPrePrepare, view_, seq, prePrepare->digest, id()),
      n());
  ++stats_.batchesOrdered;

  LogEntry& entry = log_.at(seq);
  entry.prePrepare = prePrepare;
  entry.view = view_;
  entry.digest = prePrepare->digest;
  entry.prepareSent = true;  // the pre-prepare stands in for our prepare

  if (behavior_.equivocate) {
    // Safety attack: tell odd-numbered backups a different story for the
    // same sequence (the batch minus its last request). The split prepare
    // votes must never both reach a certificate — quorum intersection
    // guarantees at most one digest survives.
    auto conflicting = std::make_shared<PrePrepareMessage>();
    conflicting->view = view_;
    conflicting->seq = seq;
    conflicting->batch = prePrepare->batch;
    if (!conflicting->batch.empty()) conflicting->batch.pop_back();
    conflicting->digest = batchDigest(conflicting->batch);
    conflicting->replica = id();
    conflicting->auth = macs_.authenticate(
        phaseDigest(MsgKind::kPrePrepare, view_, seq, conflicting->digest,
                    id()),
        n());
    for (util::NodeId replica = 0; replica < n(); ++replica) {
      if (replica == id()) continue;
      send(replica, replica % 2 == 1
                        ? sim::MessagePtr(conflicting)
                        : sim::MessagePtr(prePrepare));
    }
    return;
  }

  multicastToReplicas(std::move(prePrepare));
}

void Replica::dripOneRequest() {
  if (behavior_.slowPrimary) {
    // Keep dripping for the lifetime of the node; checks below make it a
    // no-op while we are not the primary.
    const auto drip = static_cast<sim::Time>(
        static_cast<double>(config_.requestTimeout) *
        behavior_.slowPrimaryFraction);
    dripTimer_ = setTimer(std::max<sim::Time>(drip, 1), [this] { dripOneRequest(); });
  }
  if (!isPrimary() || orderingEmpty()) return;
  if (nextSeq_ > stableSeq_ + config_.watermarkWindow) return;

  RequestPtr pick = orderingTakeFor(behavior_.colludingClient);
  if (pick == nullptr) return;  // nothing from the colluder yet
  std::vector<RequestPtr> batch{std::move(pick)};
  orderBatch(std::move(batch));
}

// --- Agreement ---------------------------------------------------------------

void Replica::onPrePrepare(util::NodeId from, const PrePreparePtr& prePrepare) {
  if (inViewChange_) return;
  if (from != prePrepare->replica) return;
  acceptPrePrepare(prePrepare);
}

bool Replica::acceptPrePrepare(const PrePreparePtr& prePrepare) {
  if (prePrepare->view != view_) return false;
  if (prePrepare->replica != currentPrimary()) return false;
  const util::SeqNum seq = prePrepare->seq;
  if (seq <= stableSeq_ || seq > stableSeq_ + config_.watermarkWindow) {
    return false;
  }
  if (seq <= lastExecuted_) return false;

  LogEntry& entry = log_.at(seq);
  if (entry.prePrepare != nullptr) {
    // Accept-once: an equivocating primary's second proposal is ignored.
    return entry.digest == prePrepare->digest;
  }

  if (!prePrepare->auth.hasEntryFor(id()) ||
      !macs_.verify(prePrepare->replica,
                    phaseDigest(MsgKind::kPrePrepare, prePrepare->view, seq,
                                prePrepare->digest, prePrepare->replica),
                    prePrepare->auth.tags[id()])) {
    ++stats_.prePreparesRejected;
    return false;
  }
  if (prePrepare->digest != batchDigest(prePrepare->batch)) {
    ++stats_.prePreparesRejected;
    return false;
  }
  // Verify every piggybacked request: digest integrity (hard reject on
  // mismatch) plus authentication. A request authenticates if OUR entry of
  // its embedded authenticator verifies, or if we already hold a verified
  // copy with the same digest (received directly from the client — possibly
  // a later, honest retransmission round). Requests we cannot authenticate
  // park the pre-prepare until such a copy arrives; if it never does, the
  // sequence number stalls and the request timers escalate to a view change.
  // This is the Big MAC surface (§6).
  std::vector<std::uint64_t> missing;
  for (const RequestPtr& request : prePrepare->batch) {
    if (request->digest != requestDigest(request->client, request->timestamp,
                                         request->operation,
                                         request->readOnly)) {
      ++stats_.prePreparesRejected;
      return false;
    }
    if (request->auth.hasEntryFor(id()) &&
        macs_.verify(request->client, request->digest,
                     request->auth.tags[id()])) {
      authedRequests_[request->digest] = request;
      continue;
    }
    if (!authedRequests_.contains(request->digest)) {
      missing.push_back(request->digest);
    }
  }
  if (!missing.empty()) {
    if (config_.maxParkedPrePrepares > 0 &&
        pendingPrePrepares_.size() >= config_.maxParkedPrePrepares &&
        !pendingPrePrepares_.contains(seq)) {
      // Bounded parking, deterministic drop policy: keep the lowest
      // sequences (they unblock execution first) — evict the highest parked
      // entry, or refuse this one if it would itself be the highest. Stale
      // pendingByDigest_ entries for the evicted sequence are harmless:
      // retries skip sequences no longer parked.
      const auto last = std::prev(pendingPrePrepares_.end());
      if (last->first <= seq) {
        ++stats_.parkedEvicted;
        return false;
      }
      parkedBytes_ -= last->second->wireSize();
      pendingPrePrepares_.erase(last);
      ++stats_.parkedEvicted;
    }
    ++stats_.prePreparesPended;
    if (const auto [it, inserted] =
            pendingPrePrepares_.try_emplace(seq, prePrepare);
        inserted) {
      parkedBytes_ += prePrepare->wireSize();
      stats_.peakParkedBytes =
          std::max<std::uint64_t>(stats_.peakParkedBytes, parkedBytes_);
    }
    for (const std::uint64_t digest : missing) {
      pendingByDigest_[digest].insert(seq);
    }
    // A commit certificate for this digest may already exist (we can be the
    // last replica to hear about the batch).
    adoptQuorumCertifiedPending(seq);
    return false;
  }

  entry.prePrepare = prePrepare;
  entry.view = view_;
  entry.digest = prePrepare->digest;

  if (currentPrimary() != id() && !entry.prepareSent) {
    entry.prepareSent = true;
    entry.prepares[id()] = entry.digest;
    if (!behavior_.silentPrepares) {
      auto prepare = std::make_shared<PrepareMessage>();
      prepare->view = view_;
      prepare->seq = seq;
      prepare->digest = entry.digest;
      prepare->replica = id();
      prepare->auth = macs_.authenticate(
          phaseDigest(MsgKind::kPrepare, view_, seq, entry.digest, id()), n());
      multicastToReplicas(std::move(prepare));
    }
  }
  maybeSendCommit(seq);
  return true;
}

void Replica::retryPendingPrePrepares(std::uint64_t digest) {
  const auto indexIt = pendingByDigest_.find(digest);
  if (indexIt == pendingByDigest_.end()) return;
  const std::set<util::SeqNum> seqs = std::move(indexIt->second);
  pendingByDigest_.erase(indexIt);
  for (const util::SeqNum seq : seqs) {
    const auto pendingIt = pendingPrePrepares_.find(seq);
    if (pendingIt == pendingPrePrepares_.end()) continue;
    const PrePreparePtr prePrepare = pendingIt->second;
    // Remove before retrying: acceptPrePrepare may legitimately re-park the
    // pre-prepare on a different still-missing request.
    parkedBytes_ -= prePrepare->wireSize();
    pendingPrePrepares_.erase(pendingIt);
    acceptPrePrepare(prePrepare);
  }
}

void Replica::onPrepare(util::NodeId from, const PrepareMessage& prepare) {
  if (inViewChange_) return;
  if (prepare.view != view_ || from != prepare.replica) return;
  if (!isReplicaId(from) || from == currentPrimary()) return;
  const util::SeqNum seq = prepare.seq;
  if (seq <= stableSeq_ || seq > stableSeq_ + config_.watermarkWindow) return;
  if (!prepare.auth.hasEntryFor(id()) ||
      !macs_.verify(from,
                    phaseDigest(MsgKind::kPrepare, prepare.view, seq,
                                prepare.digest, from),
                    prepare.auth.tags[id()])) {
    return;
  }
  log_.at(seq).prepares[from] = prepare.digest;
  maybeSendCommit(seq);
}

void Replica::maybeSendCommit(util::SeqNum seq) {
  LogEntry* const entry = log_.find(seq);
  if (entry == nullptr) return;
  if (entry->prepared(config_.f)) entry->recordPrepared();
  if (entry->prepared(config_.f) && !entry->commitSent) {
    entry->commitSent = true;
    entry->commits[id()] = entry->digest;
    if (!behavior_.silentCommits) {
      auto commit = std::make_shared<CommitMessage>();
      commit->view = view_;
      commit->seq = seq;
      commit->digest = entry->digest;
      commit->replica = id();
      commit->auth = macs_.authenticate(
          phaseDigest(MsgKind::kCommit, view_, seq, entry->digest, id()), n());
      multicastToReplicas(std::move(commit));
    }
  }
  if (entry->committed(config_.f)) maybeExecute();
}

void Replica::onCommit(util::NodeId from, const CommitMessage& commit) {
  if (inViewChange_) return;
  if (commit.view != view_ || from != commit.replica || !isReplicaId(from)) {
    return;
  }
  const util::SeqNum seq = commit.seq;
  if (seq <= stableSeq_ || seq > stableSeq_ + config_.watermarkWindow) return;
  if (!commit.auth.hasEntryFor(id()) ||
      !macs_.verify(from,
                    phaseDigest(MsgKind::kCommit, commit.view, seq,
                                commit.digest, from),
                    commit.auth.tags[id()])) {
    return;
  }
  LogEntry& entry = log_.at(seq);
  entry.commits[from] = commit.digest;
  adoptQuorumCertifiedPending(seq);
  if (entry.committed(config_.f)) maybeExecute();
}

bool Replica::adoptQuorumCertifiedPending(util::SeqNum seq) {
  const auto pendingIt = pendingPrePrepares_.find(seq);
  if (pendingIt == pendingPrePrepares_.end()) return false;
  const PrePreparePtr prePrepare = pendingIt->second;
  if (prePrepare->view != view_) return false;

  LogEntry& entry = log_.at(seq);
  if (entry.commits.count(prePrepare->digest) < config_.quorum()) {
    return false;
  }

  // 2f+1 replicas committed this digest, so at least f+1 correct replicas
  // authenticated every request in the batch: adopt it on quorum authority.
  // (Castro-Liskov replicas likewise execute quorum-certified content they
  // could not authenticate client-side themselves.) We are a straggler for
  // this sequence; the quorum has the prepares and commits it needs, so we
  // stay silent rather than echo stale agreement traffic.
  entry.prePrepare = prePrepare;
  entry.view = view_;
  entry.digest = prePrepare->digest;
  entry.prepareSent = true;
  entry.commitSent = true;
  // Each matching commit attests its sender held a prepared certificate, so
  // the adopted entry is prepared by the same quorum's authority.
  for (const auto& [replica, digest] : entry.commits) {
    if (digest == entry.digest && replica != currentPrimary()) {
      entry.prepares[replica] = digest;
    }
  }
  entry.recordPrepared();
  parkedBytes_ -= pendingIt->second->wireSize();
  pendingPrePrepares_.erase(pendingIt);
  ++stats_.prePreparesAdoptedByQuorum;
  maybeExecute();
  return true;
}

void Replica::maybeExecute() {
  for (;;) {
    LogEntry* const entry = log_.find(lastExecuted_ + 1);
    if (entry == nullptr || entry->executed || !entry->committed(config_.f)) {
      break;
    }
    executeEntry(lastExecuted_ + 1, *entry);
  }
  // Execution progress may have freed watermark-window space.
  if (isPrimary() && !orderingEmpty()) scheduleBatchFlush();
}

void Replica::executeEntry(util::SeqNum seq, LogEntry& entry) {
  assert(seq == lastExecuted_ + 1);
  for (const RequestPtr& request : entry.prePrepare->batch) {
    ClientRecord& record = clientRecord(request->client);
    if (request->timestamp <= record.lastExecutedTs) continue;

    util::Bytes result = service_->execute(request->client, request->operation);
    auto reply = std::make_shared<ReplyMessage>();
    reply->view = view_;
    reply->client = request->client;
    reply->timestamp = request->timestamp;
    reply->replica = id();
    reply->resultDigest = util::fnv1a(result);
    reply->result = std::move(result);
    reply->mac = macs_.generate(request->client, replyDigest(*reply));

    record.lastExecutedTs = request->timestamp;
    record.lastReply = reply;
    ++stats_.requestsExecuted;
    send(request->client, reply);
    onRequestExecuted(request->client, request->timestamp);
    authedRequests_.erase(request->digest);
  }
  entry.executed = true;
  CommitCert& cert = commitCerts_[seq];
  cert.digest = entry.digest;
  cert.voters.clear();
  for (const auto& [replica, digest] : entry.commits) {
    if (digest == entry.digest) cert.voters.push_back(replica);
  }
  ++lastExecuted_;
  // A recovered primary catching up through sync must not re-propose
  // sequence numbers the executed prefix already consumed.
  if (nextSeq_ <= lastExecuted_) nextSeq_ = lastExecuted_ + 1;

  if (config_.checkpointInterval > 0 &&
      lastExecuted_ % config_.checkpointInterval == 0) {
    takeCheckpoint(lastExecuted_);
  }
}

// --- Aardvark-style throughput guard --------------------------------------------

void Replica::checkPrimaryThroughput() {
  setTimer(config_.guardWindow, [this] { checkPrimaryThroughput(); });
  const std::uint64_t executedThisWindow =
      stats_.requestsExecuted - guardWindowBaseline_;
  guardWindowBaseline_ = stats_.requestsExecuted;
  if (inViewChange_) return;

  // Aardvark's insight: liveness needs a *rate* expectation, not just a
  // timer — a primary may keep resetting timers by trickling single
  // requests while everyone else starves. Depose it whenever requests are
  // pending but the execution rate is below the floor.
  const double minExecuted = config_.guardMinRps *
                             sim::toSeconds(config_.guardWindow);
  if (hasPendingDirectRequests() &&
      static_cast<double>(executedThisWindow) < minExecuted) {
    startViewChange(view_ + 1);
  }
}

// --- Status / sync subprotocol ------------------------------------------------

void Replica::broadcastStatus() {
  setTimer(config_.statusInterval, [this] { broadcastStatus(); });
  sendStatusNow();
}

void Replica::sendStatusNow() {
  // Status keeps flowing during view changes: a replica waiting for a lost
  // NEW-VIEW must advertise its (stale) view so peers can relay it.
  auto status = std::make_shared<StatusMessage>();
  status->view = view_;
  status->lastExecuted = lastExecuted_;
  status->replica = id();
  status->auth = macs_.authenticate(statusDigest(*status), n());
  multicastToReplicas(std::move(status));
}

void Replica::onStatus(util::NodeId from, const StatusMessage& status) {
  if (!isReplicaId(from) || from != status.replica) return;
  if (!status.auth.hasEntryFor(id()) ||
      !macs_.verify(from, statusDigest(status), status.auth.tags[id()])) {
    return;
  }
  // A peer stranded in an older view may have lost the NEW-VIEW that
  // installed ours (the install is a single message; drops strand its
  // receiver until escalation) — relay it.
  if (status.view < view_ && latestNewView_ != nullptr &&
      latestNewView_->view == view_) {
    send(from, latestNewView_);
  }

  if (status.lastExecuted >= lastExecuted_) return;

  // Per-peer amplification budget: a STATUS costs its sender a few dozen
  // bytes but elicits up to syncChunk full batches plus agreement
  // retransmissions. Capping the *count* is not enough — batches carry
  // whole request payloads — so total pushed bytes per peer per status
  // window are bounded. A replayed lagging STATUS (the flood tool's
  // amplification trigger) now earns one budget's worth of bytes per
  // window instead of an unbounded stream.
  const std::int64_t syncWindow =
      config_.statusInterval > 0 ? now() / config_.statusInterval : 0;
  std::size_t budgetUsed = 0;
  if (config_.syncBytesPerPeer > 0) {
    auto& [window, used] = syncBudget_[from];
    if (window != syncWindow) {
      window = syncWindow;
      used = 0;
    }
    budgetUsed = used;
  }
  bool budgetHit = false;
  const auto charge = [&](std::size_t bytes) {
    if (config_.syncBytesPerPeer == 0) return true;
    if (budgetUsed + bytes > config_.syncBytesPerPeer) {
      budgetHit = true;
      return false;
    }
    budgetUsed += bytes;
    return true;
  };

  // Push attestations for the sequences the peer missed. Only sequences
  // still in our log can be served this way; anything older falls under
  // checkpoint-based state transfer.
  std::uint32_t pushed = 0;
  for (util::SeqNum seq = status.lastExecuted + 1;
       seq <= lastExecuted_ && pushed < config_.syncChunk && !budgetHit;
       ++seq) {
    const LogEntry* const entry = log_.find(seq);
    if (entry == nullptr || !entry->executed || entry->prePrepare == nullptr) {
      continue;
    }
    auto sync = std::make_shared<SyncSeqMessage>();
    sync->seq = seq;
    sync->digest = entry->digest;
    sync->batch = entry->prePrepare->batch;
    sync->replica = id();
    sync->mac = macs_.generate(from, syncSeqDigest(*sync));
    if (!charge(sync->wireSize())) break;
    send(from, std::move(sync));
    ++pushed;
  }

  // Retransmit current-view agreement messages for in-flight sequences the
  // peer may be stuck on (a sequence whose pre-prepare/prepare/commit was
  // lost or tampered has no other repair path until the request timers
  // escalate to a view change). Receivers deduplicate, so this is cheap
  // insurance — the Castro-Liskov implementation's status protocol does
  // the same.
  std::uint32_t retransmitted = 0;
  for (util::SeqNum seq = std::max(status.lastExecuted, lastExecuted_) + 1;
       retransmitted < config_.syncChunk && !budgetHit; ++seq) {
    const LogEntry* const entry = log_.find(seq);
    if (entry == nullptr) break;  // contiguous in-flight range exhausted
    if (entry->view != view_ || entry->executed) continue;
    bool sentSomething = false;
    if (entry->prePrepare != nullptr && currentPrimary() == id() &&
        charge(entry->prePrepare->wireSize())) {
      send(from, entry->prePrepare);
      sentSomething = true;
    }
    if (entry->prepareSent && currentPrimary() != id() &&
        !behavior_.silentPrepares) {
      auto prepare = std::make_shared<PrepareMessage>();
      prepare->view = view_;
      prepare->seq = seq;
      prepare->digest = entry->digest;
      prepare->replica = id();
      prepare->auth = macs_.authenticate(
          phaseDigest(MsgKind::kPrepare, view_, seq, entry->digest, id()),
          n());
      if (charge(prepare->wireSize())) {
        send(from, std::move(prepare));
        sentSomething = true;
      }
    }
    if (entry->commitSent && !behavior_.silentCommits && !budgetHit) {
      auto commit = std::make_shared<CommitMessage>();
      commit->view = view_;
      commit->seq = seq;
      commit->digest = entry->digest;
      commit->replica = id();
      commit->auth = macs_.authenticate(
          phaseDigest(MsgKind::kCommit, view_, seq, entry->digest, id()),
          n());
      if (charge(commit->wireSize())) {
        send(from, std::move(commit));
        sentSomething = true;
      }
    }
    if (sentSomething) ++retransmitted;
  }

  if (config_.syncBytesPerPeer > 0) {
    syncBudget_[from].second = budgetUsed;
    if (budgetHit) ++stats_.syncBytesCapped;
  }
}

void Replica::onSyncSeq(util::NodeId from,
                        const std::shared_ptr<const SyncSeqMessage>& sync) {
  if (!isReplicaId(from) || from != sync->replica) return;
  if (!macs_.verify(from, syncSeqDigest(*sync), sync->mac)) return;
  if (sync->seq <= lastExecuted_) return;
  if (sync->digest != batchDigest(sync->batch)) return;
  for (const RequestPtr& request : sync->batch) {
    if (request->digest != requestDigest(request->client, request->timestamp,
                                         request->operation,
                                         request->readOnly)) {
      return;
    }
  }
  syncVotes_[sync->seq][sync->digest][from] = sync;
  drainSyncVotes();
}

void Replica::drainSyncVotes() {
  for (;;) {
    const util::SeqNum next = lastExecuted_ + 1;
    const auto seqIt = syncVotes_.find(next);
    if (seqIt == syncVotes_.end()) break;
    const std::shared_ptr<const SyncSeqMessage>* certified = nullptr;
    for (const auto& [digest, voters] : seqIt->second) {
      // f+1 matching attestations include at least one correct replica.
      if (voters.size() >= config_.f + 1) {
        certified = &voters.begin()->second;
        break;
      }
    }
    if (certified == nullptr) break;

    LogEntry& entry = log_.at(next);
    if (!entry.executed) {
      auto prePrepare = std::make_shared<PrePrepareMessage>();
      prePrepare->view = view_;
      prePrepare->seq = next;
      prePrepare->batch = (*certified)->batch;
      prePrepare->digest = (*certified)->digest;
      prePrepare->replica = currentPrimary();
      entry.prePrepare = std::move(prePrepare);
      entry.view = view_;
      entry.digest = (*certified)->digest;
      entry.prepareSent = true;
      entry.commitSent = true;
      entry.recordPrepared();
      if (const auto pendingIt = pendingPrePrepares_.find(next);
          pendingIt != pendingPrePrepares_.end()) {
        parkedBytes_ -= pendingIt->second->wireSize();
        pendingPrePrepares_.erase(pendingIt);
      }
      ++stats_.sequencesSynced;
      executeEntry(next, entry);
    }
    syncVotes_.erase(seqIt);
  }
  syncVotes_.erase(syncVotes_.begin(),
                   syncVotes_.upper_bound(lastExecuted_));
  // Sync progress may have unblocked normally-committed successors.
  maybeExecute();
}

// --- Checkpoints & state transfer ---------------------------------------------

void Replica::takeCheckpoint(util::SeqNum seq) {
  const std::uint64_t digest =
      util::hashCombine(service_->stateDigest(), seq);
  OwnCheckpoint& own = ownCheckpoints_[seq];
  own.digest = digest;
  own.snapshot = service_->snapshot();
  own.clientTimestamps.clear();
  own.clientTimestamps.reserve(clients_.size());
  for (util::NodeId client = 0; client < clients_.size(); ++client) {
    if (const auto& record = clients_[client]) {
      own.clientTimestamps.emplace_back(client, record->lastExecutedTs);
    }
  }
  ++stats_.checkpointsTaken;

  auto checkpoint = std::make_shared<CheckpointMessage>();
  checkpoint->seq = seq;
  checkpoint->stateDigest = digest;
  checkpoint->replica = id();
  checkpoint->auth = macs_.authenticate(
      phaseDigest(MsgKind::kCheckpoint, 0, seq, digest, id()), n());
  multicastToReplicas(std::move(checkpoint));

  checkpointVotes_[seq][digest][id()] = true;
  checkCheckpointStable(seq);
}

void Replica::onCheckpoint(util::NodeId from,
                           const CheckpointMessage& checkpoint) {
  if (!isReplicaId(from) || from != checkpoint.replica) return;
  if (checkpoint.seq <= stableSeq_) return;
  if (!checkpoint.auth.hasEntryFor(id()) ||
      !macs_.verify(from,
                    phaseDigest(MsgKind::kCheckpoint, 0, checkpoint.seq,
                                checkpoint.stateDigest, from),
                    checkpoint.auth.tags[id()])) {
    return;
  }
  checkpointVotes_[checkpoint.seq][checkpoint.stateDigest][from] = true;
  checkCheckpointStable(checkpoint.seq);
}

void Replica::checkCheckpointStable(util::SeqNum seq) {
  const auto votesIt = checkpointVotes_.find(seq);
  if (votesIt == checkpointVotes_.end()) return;
  for (const auto& [digest, voters] : votesIt->second) {
    if (voters.size() < config_.quorum()) continue;

    const auto ownIt = ownCheckpoints_.find(seq);
    if (ownIt != ownCheckpoints_.end() && ownIt->second.digest == digest) {
      // Stable and we hold it: advance the low watermark and GC. The proof
      // (quorum voter set) is captured before GC discards the votes.
      if (seq > stableSeq_ || stableProof_.empty()) {
        stableProof_.clear();
        stableProof_.reserve(voters.size());
        for (const auto& [voter, present] : voters) {
          stableProof_.push_back(voter);
        }
      }
      stableSeq_ = std::max(stableSeq_, seq);
      log_.truncateBelow(stableSeq_);
      checkpointVotes_.erase(checkpointVotes_.begin(),
                             checkpointVotes_.upper_bound(stableSeq_));
      ownCheckpoints_.erase(ownCheckpoints_.begin(),
                            ownCheckpoints_.lower_bound(stableSeq_));
      const auto pendingEnd = pendingPrePrepares_.upper_bound(stableSeq_);
      for (auto it = pendingPrePrepares_.begin(); it != pendingEnd; ++it) {
        parkedBytes_ -= it->second->wireSize();
      }
      pendingPrePrepares_.erase(pendingPrePrepares_.begin(), pendingEnd);
      // Reply-cache GC: entries whose timestamp was already frozen in the
      // PREVIOUS stable checkpoint are evicted now — one full checkpoint
      // window of grace, so a client retransmitting across the eviction
      // still finds its cached reply. lastExecutedTs survives, preserving
      // at-most-once execution. This is what bounds reply-cache growth
      // under a replay storm from many one-shot clients.
      for (const auto& [client, frozenTs] : replyCacheFrozen_) {
        if (client >= clients_.size() || !clients_[client]) continue;
        ClientRecord& record = *clients_[client];
        if (record.lastReply != nullptr &&
            record.lastReply->timestamp <= frozenTs) {
          record.lastReply = nullptr;
          ++stats_.replyCacheEvicted;
        }
      }
      replyCacheFrozen_.clear();
      if (const auto frozenIt = ownCheckpoints_.find(stableSeq_);
          frozenIt != ownCheckpoints_.end()) {
        for (const auto& [client, timestamp] :
             frozenIt->second.clientTimestamps) {
          replyCacheFrozen_[client] = timestamp;
        }
      }
      persistStableState();
      if (isPrimary()) scheduleBatchFlush();
    } else if (seq > lastExecuted_ && !stateTransferInFlight_) {
      // Proof that the system moved past us: fetch state from a voter.
      for (const auto& [voter, present] : voters) {
        if (voter != id()) {
          requestStateTransfer(seq, voter);
          break;
        }
      }
    }
    return;
  }
}

void Replica::requestStateTransfer(util::SeqNum seq, util::NodeId source) {
  stateTransferInFlight_ = true;
  auto request = std::make_shared<StateRequestMessage>();
  request->seq = seq;
  request->replica = id();
  request->mac = macs_.generate(source, stateRequestDigest(*request));
  send(source, std::move(request));
  // Give up after a while so a crashed source does not wedge us.
  setTimer(config_.viewChangeTimeout, [this] { stateTransferInFlight_ = false; });
}

void Replica::onStateRequest(util::NodeId from,
                             const StateRequestMessage& request) {
  if (!isReplicaId(from) || from != request.replica) return;
  if (!macs_.verify(from, stateRequestDigest(request), request.mac)) return;

  // Serve the newest checkpoint at or above the requested sequence.
  const auto it = ownCheckpoints_.lower_bound(request.seq);
  if (it == ownCheckpoints_.end()) return;

  auto response = std::make_shared<StateResponseMessage>();
  response->seq = it->first;
  response->stateDigest = it->second.digest;
  response->snapshot = it->second.snapshot;
  response->clientTimestamps = it->second.clientTimestamps;
  response->replica = id();
  response->mac = macs_.generate(from, stateResponseDigest(*response));
  send(from, std::move(response));
}

void Replica::onStateResponse(util::NodeId from,
                              const StateResponseMessage& response) {
  if (!isReplicaId(from) || from != response.replica) return;
  if (!macs_.verify(from, stateResponseDigest(response), response.mac)) return;
  if (response.seq <= lastExecuted_) return;

  // Only adopt state whose digest we can independently corroborate with a
  // checkpoint quorum — a single (possibly Byzantine) peer must not be able
  // to feed us fabricated state.
  const auto votesIt = checkpointVotes_.find(response.seq);
  if (votesIt == checkpointVotes_.end()) return;
  const auto digestIt = votesIt->second.find(response.stateDigest);
  if (digestIt == votesIt->second.end() ||
      digestIt->second.size() < config_.quorum()) {
    return;
  }

  // The digest is checked on the restored service; a snapshot that does
  // not match puts our own state back, so unverified state never stays.
  const util::Bytes ownState = service_->snapshot();
  service_->restore(response.snapshot);
  if (util::hashCombine(service_->stateDigest(), response.seq) !=
      response.stateDigest) {
    service_->restore(ownState);
    return;
  }

  lastExecuted_ = response.seq;
  for (const auto& [client, timestamp] : response.clientTimestamps) {
    ClientRecord& record = clientRecord(client);
    if (timestamp > record.lastExecutedTs) {
      record.lastExecutedTs = timestamp;
      record.lastReply = nullptr;  // cannot reproduce replies we never sent
      if (record.pendingDirect != nullptr &&
          record.pendingDirect->timestamp <= timestamp) {
        onRequestExecuted(client, timestamp);
      }
    }
  }

  OwnCheckpoint& own = ownCheckpoints_[response.seq];
  own.digest = response.stateDigest;
  own.snapshot = response.snapshot;
  own.clientTimestamps = response.clientTimestamps;
  stateTransferInFlight_ = false;
  ++stats_.stateTransfersCompleted;
  checkCheckpointStable(response.seq);
  maybeExecute();
}

// --- View changes ---------------------------------------------------------------

void Replica::startViewChange(util::ViewId newView) {
  if (newView <= view_) return;
  if (inViewChange_ && targetView_ >= newView) return;

  inViewChange_ = true;
  targetView_ = newView;
  ++stats_.viewChangesInitiated;

  // Normal-operation timers stop while the view change runs.
  if (requestTimerArmed_) {
    cancelTimer(requestTimer_);
    requestTimerArmed_ = false;
  }
  if (config_.perRequestTimers) {
    for (std::optional<ClientRecord>& record : clients_) {
      if (record && record->timerArmed) {
        cancelTimer(record->timer);
        record->timerArmed = false;
      }
    }
  }
  if (batchTimerArmed_) {
    cancelTimer(batchTimer_);
    batchTimerArmed_ = false;
  }

  auto viewChange = std::make_shared<ViewChangeMessage>();
  viewChange->newView = newView;
  viewChange->stableSeq = stableSeq_;
  viewChange->prepared = log_.preparedProofsAbove(stableSeq_, config_.f);
  viewChange->replica = id();
  viewChange->auth =
      macs_.authenticate(viewChangeDigest(*viewChange), n());

  viewChangeVotes_[newView][id()] = viewChange;
  // Persist before the vote leaves: a crash after sending must not let the
  // recovered replica forget the prepared certificates its vote vouched for.
  persistStableState();
  multicastToReplicas(std::move(viewChange));

  if (vcTimerArmed_) cancelTimer(vcTimer_);
  vcTimerArmed_ = true;
  const std::uint32_t backoff = std::min<std::uint32_t>(vcAttempts_, 10);
  vcTimer_ = setTimer(config_.viewChangeTimeout << backoff,
                      [this] { onViewChangeTimerExpired(); });
  ++vcAttempts_;

  // The historical implementation bug (§6): running the view-change path
  // while holding pre-prepares whose requests never authenticated crashes
  // the replica — after its VIEW-CHANGE went out, so peers still count the
  // vote. See Config::viewChangeCrashBug.
  if (config_.viewChangeCrashBug && !pendingPrePrepares_.empty()) {
    stats_.crashedOnViewChange = 1;
    setAlive(false);
    return;
  }

  maybeSendNewView(newView);
}

void Replica::onViewChangeTimerExpired() {
  vcTimerArmed_ = false;
  if (inViewChange_) startViewChange(targetView_ + 1);
}

void Replica::onViewChange(util::NodeId from, const ViewChangePtr& viewChange) {
  if (!isReplicaId(from) || from != viewChange->replica) return;
  if (viewChange->newView <= view_) return;
  if (!viewChange->auth.hasEntryFor(id()) ||
      !macs_.verify(from, viewChangeDigest(*viewChange),
                    viewChange->auth.tags[id()])) {
    return;
  }
  viewChangeVotes_[viewChange->newView][from] = viewChange;

  // Liveness join rule: f+1 distinct replicas asking for views beyond our
  // horizon prove at least one correct replica timed out — join the
  // smallest such view so the system converges.
  const util::ViewId base = inViewChange_ ? targetView_ : view_;
  std::map<util::NodeId, bool> ahead;
  util::ViewId smallest = 0;
  for (const auto& [votedView, voters] : viewChangeVotes_) {
    if (votedView <= base) continue;
    if (smallest == 0) smallest = votedView;
    for (const auto& [voter, vote] : voters) ahead[voter] = true;
  }
  if (smallest != 0 && ahead.size() >= config_.f + 1) {
    startViewChange(smallest);
  }

  maybeSendNewView(viewChange->newView);
}

void Replica::maybeSendNewView(util::ViewId newView) {
  if (config_.primaryOf(newView) != id()) return;
  if (view_ >= newView || newViewSentFor_ >= newView) return;
  const auto votesIt = viewChangeVotes_.find(newView);
  if (votesIt == viewChangeVotes_.end()) return;
  const auto& votes = votesIt->second;
  if (!votes.contains(id())) return;  // we must have joined this view change
  if (votes.size() < config_.quorum()) return;

  // min-s: newest stable checkpoint across the certificate; max-s: highest
  // prepared sequence. Holes get null requests, which is exactly how the
  // protocol skips a Big MAC request that could never prepare.
  util::SeqNum minS = 0;
  util::SeqNum maxS = 0;
  std::map<util::SeqNum, const PreparedProof*> chosen;
  for (const auto& [voter, vote] : votes) {
    minS = std::max(minS, vote->stableSeq);
    for (const PreparedProof& proof : vote->prepared) {
      maxS = std::max(maxS, proof.seq);
      const PreparedProof*& slot = chosen[proof.seq];
      if (slot == nullptr || proof.view > slot->view) slot = &proof;
    }
  }
  maxS = std::max(maxS, minS);

  auto newViewMessage = std::make_shared<NewViewMessage>();
  newViewMessage->view = newView;
  newViewMessage->replica = id();
  for (util::SeqNum seq = minS + 1; seq <= maxS; ++seq) {
    auto prePrepare = std::make_shared<PrePrepareMessage>();
    prePrepare->view = newView;
    prePrepare->seq = seq;
    const auto chosenIt = chosen.find(seq);
    if (chosenIt != chosen.end() && chosenIt->second->seq == seq) {
      prePrepare->batch = chosenIt->second->batch;
      prePrepare->digest = chosenIt->second->digest;
    } else {
      prePrepare->digest = batchDigest({});  // null request fills the hole
    }
    prePrepare->replica = id();
    prePrepare->auth = macs_.authenticate(
        phaseDigest(MsgKind::kPrePrepare, newView, seq, prePrepare->digest,
                    id()),
        n());
    newViewMessage->prePrepares.push_back(std::move(prePrepare));
  }
  newViewMessage->auth =
      macs_.authenticate(newViewDigest(*newViewMessage), n());

  newViewSentFor_ = newView;
  latestNewView_ = newViewMessage;
  const std::vector<PrePreparePtr> prePrepares = newViewMessage->prePrepares;
  multicastToReplicas(std::move(newViewMessage));
  installNewView(newView, prePrepares);
}

void Replica::onNewView(util::NodeId from, const NewViewPtr& newView) {
  if (!isReplicaId(from) || from != newView->replica) return;
  if (newView->view <= view_) return;
  if (from != config_.primaryOf(newView->view)) return;
  if (!newView->auth.hasEntryFor(id()) ||
      !macs_.verify(from, newViewDigest(*newView),
                    newView->auth.tags[id()])) {
    return;
  }
  latestNewView_ = newView;
  installNewView(newView->view, newView->prePrepares);
}

void Replica::installNewView(util::ViewId newView,
                             const std::vector<PrePreparePtr>& prePrepares) {
  view_ = newView;
  targetView_ = newView;
  inViewChange_ = false;
  vcAttempts_ = 0;
  if (vcTimerArmed_) {
    cancelTimer(vcTimer_);
    vcTimerArmed_ = false;
  }
  viewChangeVotes_.erase(viewChangeVotes_.begin(),
                         viewChangeVotes_.upper_bound(newView));

  // Certificates from the old view are void for unexecuted sequences; the
  // new-view pre-prepares below re-establish them in this view. Pre-prepares
  // still parked on unauthenticated requests die with their view.
  log_.resetUnexecutedForNewView();
  pendingPrePrepares_.clear();
  pendingByDigest_.clear();
  parkedBytes_ = 0;

  util::SeqNum highest = std::max(lastExecuted_, stableSeq_);
  for (const PrePreparePtr& prePrepare : prePrepares) {
    highest = std::max(highest, prePrepare->seq);
    if (prePrepare->seq > lastExecuted_) acceptPrePrepare(prePrepare);
  }

  if (config_.primaryOf(newView) == id()) {
    nextSeq_ = highest + 1;
    // Requests we saw directly but that never executed must be re-proposed;
    // clients will also retransmit, but this removes a round trip.
    orderingClear();
    for (std::optional<ClientRecord>& record : clients_) {
      if (!record) continue;
      record->lastQueuedTs = record->lastExecutedTs;
      if (record->pendingDirect != nullptr &&
          record->pendingDirect->timestamp > record->lastExecutedTs &&
          orderingPush(record->pendingDirect)) {
        record->lastQueuedTs = record->pendingDirect->timestamp;
      }
    }
    if (!behavior_.slowPrimary) scheduleBatchFlush();
  }

  // Stalled direct requests must keep their liveness guarantee in the new
  // view: re-arm request timers for whatever is still pending.
  if (config_.perRequestTimers) {
    for (const std::optional<ClientRecord>& record : clients_) {
      if (record && record->pendingDirect != nullptr &&
          record->pendingDirect->timestamp > record->lastExecutedTs &&
          !record->timerArmed) {
        // Reuse the direct-receipt arming path.
        noteDirectRequest(record->pendingDirect);
      }
    }
  } else if (hasPendingDirectRequests()) {
    armSingleTimer();
  }

  persistStableState();
}

void Replica::sendSpuriousViewChange() {
  // Malicious behaviour: vote for a view change without believing in one.
  auto viewChange = std::make_shared<ViewChangeMessage>();
  viewChange->newView = view_ + 1;
  viewChange->stableSeq = stableSeq_;
  viewChange->prepared = log_.preparedProofsAbove(stableSeq_, config_.f);
  viewChange->replica = id();
  viewChange->auth = macs_.authenticate(viewChangeDigest(*viewChange), n());
  multicastToReplicas(std::move(viewChange));
  setTimer(behavior_.spuriousViewChangeInterval,
           [this] { sendSpuriousViewChange(); });
}

}  // namespace avd::pbft
