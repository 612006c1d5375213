#include "pbft/client.h"

#include <algorithm>

#include "common/hash.h"

namespace avd::pbft {

namespace {
util::Bytes defaultOp(util::RequestId /*timestamp*/) {
  return util::Bytes{1};  // counter increment
}
}  // namespace

Client::Client(util::NodeId id, const Config& config,
               const crypto::Keychain* keychain, ClientBehavior behavior,
               sim::Time retxTimeout, OpGenerator opGenerator)
    : sim::Node(id),
      config_(config),
      macs_(id, keychain),
      behavior_(std::move(behavior)),
      retxTimeout_(retxTimeout),
      opGenerator_(opGenerator     ? std::move(opGenerator)
                   : behavior_.opGenerator ? behavior_.opGenerator
                                           : defaultOp),
      replyVotes_(config_.replicaCount()) {
  if (behavior_.macPolicy != nullptr) {
    macs_.setFaultPolicy(behavior_.macPolicy);
  }
}

void Client::start() {
  // Stagger client start-up so a large deployment does not issue every
  // first request in the same microsecond.
  const auto jitter =
      static_cast<sim::Time>(simulator().rng().below(sim::msec(10) + 1));
  setTimer(jitter, [this] { issueNext(); });
}

void Client::issueNext() {
  currentTs_ = ++nextTimestamp_;
  currentOp_ = opGenerator_(currentTs_);
  currentReadOnly_ =
      behavior_.readOnlyPredicate && behavior_.readOnlyPredicate(currentTs_);
  currentRetx_ = 0;
  currentDigest_ =
      requestDigest(id(), currentTs_, currentOp_, currentReadOnly_);
  issueTime_ = now();
  outstanding_ = true;
  replyVotes_.assign(replyVotes_.size(), std::nullopt);
  ++issued_;

  // Read-only requests need 2f+1 replies, so they go to everyone at once.
  transmit(behavior_.broadcastRequests || currentReadOnly_);

  if (!retxArmed_) {
    retxArmed_ = true;
    retxTimer_ = setTimer(retxDelay(), [this] { onRetxTimer(); });
  }
}

sim::Time Client::retxDelay() {
  // Iterative multiply (not std::pow) keeps the value exactly reproducible.
  double multiplier = 1.0;
  if (behavior_.retxBackoffFactor > 1.0) {
    for (std::uint32_t i = 0;
         i < currentRetx_ && multiplier < behavior_.retxBackoffCap; ++i) {
      multiplier *= behavior_.retxBackoffFactor;
    }
    multiplier = std::min(multiplier, behavior_.retxBackoffCap);
  }
  auto delay = static_cast<sim::Time>(
      static_cast<double>(retxTimeout_) * multiplier);
  if (behavior_.retxJitter > 0) {
    delay += static_cast<sim::Time>(
        simulator().rng().below(behavior_.retxJitter + 1));
  }
  return std::max<sim::Time>(delay, 1);
}

void Client::transmit(bool broadcast) {
  auto request = std::make_shared<RequestMessage>();
  request->client = id();
  request->timestamp = currentTs_;
  request->operation = currentOp_;
  request->readOnly = currentReadOnly_;
  request->digest = currentDigest_;
  // A fresh authenticator per transmission: the generateMAC call counter
  // advances by one full round (n calls) each time, which is what makes the
  // 12-bit corruption bitmask cycle across retransmission rounds (§6).
  request->auth =
      macs_.authenticate(currentDigest_, config_.replicaCount());

  if (broadcast) {
    const sim::MessagePtr payload = request;
    for (util::NodeId replica = 0; replica < config_.replicaCount();
         ++replica) {
      send(replica, payload);
    }
  } else {
    send(config_.primaryOf(believedView_), std::move(request));
  }
}

void Client::onRetxTimer() {
  retxArmed_ = false;
  if (!outstanding_) return;
  ++retransmissions_;
  ++currentRetx_;
  // A read-only request that cannot assemble its 2f+1 matching quorum
  // (divergent tentative states, lagging replicas) is retried through the
  // ordered path — the protocol's fallback rule.
  if (currentReadOnly_ && currentRetx_ >= 2) {
    currentReadOnly_ = false;
    currentDigest_ =
        requestDigest(id(), currentTs_, currentOp_, currentReadOnly_);
    replyVotes_.assign(replyVotes_.size(), std::nullopt);
    ++readOnlyFallbacks_;
  }
  // Retransmissions go to everyone: backups must learn about the request so
  // their view-change timers can guarantee liveness against a bad primary.
  transmit(/*broadcast=*/true);
  retxArmed_ = true;
  retxTimer_ = setTimer(retxDelay(), [this] { onRetxTimer(); });
}

void Client::receive(util::NodeId from, const sim::MessagePtr& message) {
  if (static_cast<MsgKind>(message->kind()) != MsgKind::kReply) return;
  onReply(*std::static_pointer_cast<const ReplyMessage>(message));
  (void)from;
}

void Client::onReply(const ReplyMessage& reply) {
  if (!outstanding_ || reply.timestamp != currentTs_ || reply.client != id()) {
    return;
  }
  if (reply.replica >= config_.replicaCount()) return;
  if (!macs_.verify(reply.replica, replyDigest(reply), reply.mac)) return;
  if (util::fnv1a(reply.result) != reply.resultDigest) return;

  replyVotes_[reply.replica] = reply.resultDigest;

  // Ordered requests complete on f+1 matching replies; tentative read-only
  // requests need 2f+1 (enough to guarantee the answer reflects committed
  // state despite up to f Byzantine replies).
  const std::uint32_t needed =
      currentReadOnly_ ? 2 * config_.f + 1 : config_.f + 1;
  const auto matching = static_cast<std::uint32_t>(
      std::count(replyVotes_.begin(), replyVotes_.end(), reply.resultDigest));
  if (matching < needed) return;

  if (currentReadOnly_) ++readOnlyCompleted_;
  outstanding_ = false;
  if (retxArmed_) {
    cancelTimer(retxTimer_);
    retxArmed_ = false;
  }
  believedView_ = std::max(believedView_, reply.view);
  lastResult_ = reply.result;
  completions_.push_back(Completion{now(), now() - issueTime_});
  if (behavior_.thinkTime > 0) {
    setTimer(behavior_.thinkTime, [this] { issueNext(); });
  } else {
    issueNext();
  }
}

}  // namespace avd::pbft
