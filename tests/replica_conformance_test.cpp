// Protocol-conformance tests driving a single Replica with hand-crafted
// messages: acceptance rules for pre-prepares (view, sender, watermarks,
// authentication), vote counting, equivocation handling, reply discipline,
// and timer arming rules. A probe harness stands in for the rest of the
// deployment.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "crypto/keychain.h"
#include "pbft/message.h"
#include "pbft/replica.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace avd::pbft {
namespace {

/// Captures everything a node receives, for assertions.
class Probe final : public sim::Node {
 public:
  explicit Probe(util::NodeId id) : sim::Node(id) {}
  void receive(util::NodeId from, const sim::MessagePtr& message) override {
    inbox.push_back({from, message});
  }
  template <typename M>
  std::vector<std::shared_ptr<const M>> received(MsgKind kind) const {
    std::vector<std::shared_ptr<const M>> out;
    for (const auto& [from, message] : inbox) {
      if (message->kind() == static_cast<std::uint32_t>(kind)) {
        out.push_back(std::static_pointer_cast<const M>(message));
      }
    }
    return out;
  }
  std::vector<std::pair<util::NodeId, sim::MessagePtr>> inbox;
  using sim::Node::send;
};

/// Harness: replica 1 (a backup in view 0) is real; replicas 0, 2, 3 and
/// client 4 are probes we puppet.
struct Harness {
  Harness() : keychain(7), simulator(7), network(&simulator, {sim::usec(10), 0}) {
    Config config;
    config.f = 1;
    config.statusInterval = 0;      // keep the wire quiet for assertions
    config.checkpointInterval = 0;  // no checkpoint chatter
    replica = std::make_unique<Replica>(1, config, &keychain,
                                        std::make_unique<CounterService>());
    this->config = config;
    for (util::NodeId id : {0u, 2u, 3u, 4u, 5u}) {
      probes[id] = std::make_unique<Probe>(id);
    }
    network.registerNode(probes[0].get());
    network.registerNode(replica.get());
    for (util::NodeId id : {2u, 3u, 4u, 5u}) {
      network.registerNode(probes[id].get());
    }
    replica->start();
  }

  /// Advances virtual time enough for any in-flight deliveries (link
  /// latency is 10 µs) without crossing timer horizons. A plain run() would
  /// never drain: view-change timers reschedule themselves forever.
  void settle() { simulator.runUntil(simulator.now() + sim::msec(1)); }

  crypto::MacService macsOf(util::NodeId id) {
    return crypto::MacService(id, &keychain);
  }

  RequestPtr makeRequest(util::NodeId client, util::RequestId timestamp,
                         bool corruptForReplica1 = false) {
    auto request = std::make_shared<RequestMessage>();
    request->client = client;
    request->timestamp = timestamp;
    request->operation = {1};
    request->digest =
        requestDigest(client, timestamp, request->operation);
    crypto::MacService macs(client, &keychain);
    request->auth = macs.authenticate(request->digest, 4);
    if (corruptForReplica1) request->auth.tags[1] = ~request->auth.tags[1];
    return request;
  }

  PrePreparePtr makePrePrepare(util::ViewId view, util::SeqNum seq,
                               std::vector<RequestPtr> batch,
                               util::NodeId sender = 0) {
    auto prePrepare = std::make_shared<PrePrepareMessage>();
    prePrepare->view = view;
    prePrepare->seq = seq;
    prePrepare->digest = batchDigest(batch);
    prePrepare->batch = std::move(batch);
    prePrepare->replica = sender;
    crypto::MacService macs(sender, &keychain);
    prePrepare->auth = macs.authenticate(
        phaseDigest(MsgKind::kPrePrepare, view, seq, prePrepare->digest,
                    sender),
        4);
    return prePrepare;
  }

  std::shared_ptr<PrepareMessage> makePrepare(util::ViewId view,
                                              util::SeqNum seq,
                                              std::uint64_t digest,
                                              util::NodeId sender) {
    auto prepare = std::make_shared<PrepareMessage>();
    prepare->view = view;
    prepare->seq = seq;
    prepare->digest = digest;
    prepare->replica = sender;
    crypto::MacService macs(sender, &keychain);
    prepare->auth = macs.authenticate(
        phaseDigest(MsgKind::kPrepare, view, seq, digest, sender), 4);
    return prepare;
  }

  std::shared_ptr<CommitMessage> makeCommit(util::ViewId view,
                                            util::SeqNum seq,
                                            std::uint64_t digest,
                                            util::NodeId sender) {
    auto commit = std::make_shared<CommitMessage>();
    commit->view = view;
    commit->seq = seq;
    commit->digest = digest;
    commit->replica = sender;
    crypto::MacService macs(sender, &keychain);
    commit->auth = macs.authenticate(
        phaseDigest(MsgKind::kCommit, view, seq, digest, sender), 4);
    return commit;
  }

  /// Sends a message to the replica as `from` and settles.
  void deliver(util::NodeId from, sim::MessagePtr message) {
    probes[from]->send(1, std::move(message));
    settle();
  }

  Config config;
  crypto::Keychain keychain;
  sim::Simulator simulator;
  sim::Network network;
  std::unique_ptr<Replica> replica;
  std::map<util::NodeId, std::unique_ptr<Probe>> probes;
};

TEST(Conformance, BackupPreparesOnValidPrePrepare) {
  Harness h;
  const RequestPtr request = h.makeRequest(4, 1);
  h.deliver(0, h.makePrePrepare(0, 1, {request}));

  // The backup must multicast a PREPARE to every other replica.
  for (util::NodeId peer : {0u, 2u, 3u}) {
    const auto prepares =
        h.probes[peer]->received<PrepareMessage>(MsgKind::kPrepare);
    ASSERT_EQ(prepares.size(), 1u) << "peer " << peer;
    EXPECT_EQ(prepares[0]->seq, 1u);
    EXPECT_EQ(prepares[0]->digest, batchDigest({request}));
    EXPECT_EQ(prepares[0]->replica, 1u);
  }
}

TEST(Conformance, RejectsPrePrepareFromNonPrimary) {
  Harness h;
  const RequestPtr request = h.makeRequest(4, 1);
  // Replica 2 is not the primary of view 0.
  h.deliver(2, h.makePrePrepare(0, 1, {request}, /*sender=*/2));
  EXPECT_TRUE(h.probes[0]->received<PrepareMessage>(MsgKind::kPrepare).empty());
  EXPECT_EQ(h.replica->stats().prePreparesRejected, 0u)
      << "wrong-sender proposals are ignored before any deep validation";
}

TEST(Conformance, RejectsPrePrepareFromWrongView) {
  Harness h;
  const RequestPtr request = h.makeRequest(4, 1);
  h.deliver(0, h.makePrePrepare(3, 1, {request}));
  EXPECT_TRUE(h.probes[0]->received<PrepareMessage>(MsgKind::kPrepare).empty());
}

TEST(Conformance, RejectsPrePrepareOutsideWatermarks) {
  Harness h;
  const RequestPtr request = h.makeRequest(4, 1);
  const util::SeqNum beyond = h.config.watermarkWindow + 1;
  h.deliver(0, h.makePrePrepare(0, beyond, {request}));
  EXPECT_TRUE(h.probes[0]->received<PrepareMessage>(MsgKind::kPrepare).empty());
}

TEST(Conformance, RejectsTamperedPrePrepareAuthenticator) {
  Harness h;
  const RequestPtr request = h.makeRequest(4, 1);
  auto prePrepare = std::const_pointer_cast<PrePrepareMessage>(
      h.makePrePrepare(0, 1, {request}));
  prePrepare->auth.tags[1] = ~prePrepare->auth.tags[1];
  h.deliver(0, prePrepare);
  EXPECT_TRUE(h.probes[0]->received<PrepareMessage>(MsgKind::kPrepare).empty());
  EXPECT_EQ(h.replica->stats().prePreparesRejected, 1u);
}

TEST(Conformance, RejectsDigestMismatchedBatch) {
  Harness h;
  const RequestPtr request = h.makeRequest(4, 1);
  auto prePrepare = std::const_pointer_cast<PrePrepareMessage>(
      h.makePrePrepare(0, 1, {request}));
  prePrepare->digest ^= 1;  // lie about the batch digest
  // Re-authenticate so only the digest lie remains.
  crypto::MacService macs(0, &h.keychain);
  prePrepare->auth = macs.authenticate(
      phaseDigest(MsgKind::kPrePrepare, 0, 1, prePrepare->digest, 0), 4);
  h.deliver(0, prePrepare);
  EXPECT_TRUE(h.probes[0]->received<PrepareMessage>(MsgKind::kPrepare).empty());
  EXPECT_EQ(h.replica->stats().prePreparesRejected, 1u);
}

TEST(Conformance, AcceptOnceIgnoresEquivocation) {
  Harness h;
  const RequestPtr requestA = h.makeRequest(4, 1);
  const RequestPtr requestB = h.makeRequest(5, 1);
  h.deliver(0, h.makePrePrepare(0, 1, {requestA}));
  h.deliver(0, h.makePrePrepare(0, 1, {requestB}));  // conflicting proposal

  // Only the first proposal gets a prepare; the conflicting one is ignored.
  const auto prepares =
      h.probes[2]->received<PrepareMessage>(MsgKind::kPrepare);
  ASSERT_EQ(prepares.size(), 1u);
  EXPECT_EQ(prepares[0]->digest, batchDigest({requestA}));
}

TEST(Conformance, UnauthenticatedRequestParksPrePrepareUntilRetransmission) {
  Harness h;
  const RequestPtr poisoned = h.makeRequest(4, 1, /*corruptForReplica1=*/true);
  h.deliver(0, h.makePrePrepare(0, 1, {poisoned}));
  EXPECT_TRUE(h.probes[0]->received<PrepareMessage>(MsgKind::kPrepare).empty());
  EXPECT_EQ(h.replica->stats().prePreparesPended, 1u);

  // An honest retransmission of the same request (valid MAC, same digest)
  // releases the parked pre-prepare.
  const RequestPtr honest = h.makeRequest(4, 1, false);
  h.deliver(4, honest);
  EXPECT_EQ(
      h.probes[0]->received<PrepareMessage>(MsgKind::kPrepare).size(), 1u);
}

TEST(Conformance, QuorumCommitCertificateUnblocksParkedPrePrepare) {
  Harness h;
  const RequestPtr poisoned = h.makeRequest(4, 1, true);
  const std::uint64_t digest = batchDigest({poisoned});
  h.deliver(0, h.makePrePrepare(0, 1, {poisoned}));
  EXPECT_EQ(h.replica->lastExecuted(), 0u);

  // Commits from the other three replicas certify the digest.
  h.deliver(0, h.makeCommit(0, 1, digest, 0));
  h.deliver(2, h.makeCommit(0, 1, digest, 2));
  h.deliver(3, h.makeCommit(0, 1, digest, 3));

  EXPECT_EQ(h.replica->lastExecuted(), 1u)
      << "quorum authority supersedes the missing client MAC";
  EXPECT_EQ(h.replica->stats().prePreparesAdoptedByQuorum, 1u);
  // The client must receive this replica's reply.
  EXPECT_EQ(h.probes[4]->received<ReplyMessage>(MsgKind::kReply).size(), 1u);
}

TEST(Conformance, CommitsAndExecutesWithQuorum) {
  Harness h;
  const RequestPtr request = h.makeRequest(4, 1);
  const std::uint64_t digest = batchDigest({request});
  h.deliver(0, h.makePrePrepare(0, 1, {request}));
  h.deliver(2, h.makePrepare(0, 1, digest, 2));
  // prepared (own + replica 2 = 2f): the replica must commit.
  const auto commits =
      h.probes[0]->received<CommitMessage>(MsgKind::kCommit);
  ASSERT_EQ(commits.size(), 1u);

  h.deliver(0, h.makeCommit(0, 1, digest, 0));
  h.deliver(2, h.makeCommit(0, 1, digest, 2));
  EXPECT_EQ(h.replica->lastExecuted(), 1u);
  EXPECT_EQ(h.probes[4]->received<ReplyMessage>(MsgKind::kReply).size(), 1u);
}

TEST(Conformance, ExecutionIsInOrderAcrossGaps) {
  Harness h;
  const RequestPtr r1 = h.makeRequest(4, 1);
  const RequestPtr r2 = h.makeRequest(5, 1);
  const auto driveToCommit = [&](util::SeqNum seq, const RequestPtr& request) {
    const std::uint64_t digest = batchDigest({request});
    h.deliver(0, h.makePrePrepare(0, seq, {request}));
    h.deliver(2, h.makePrepare(0, seq, digest, 2));
    h.deliver(0, h.makeCommit(0, seq, digest, 0));
    h.deliver(2, h.makeCommit(0, seq, digest, 2));
  };
  driveToCommit(2, r2);  // seq 2 commits first
  EXPECT_EQ(h.replica->lastExecuted(), 0u) << "gap at seq 1 blocks execution";
  driveToCommit(1, r1);
  EXPECT_EQ(h.replica->lastExecuted(), 2u) << "both execute once 1 commits";
}

TEST(Conformance, MismatchedPrepareDigestsNeverFormCertificate) {
  Harness h;
  const RequestPtr request = h.makeRequest(4, 1);
  h.deliver(0, h.makePrePrepare(0, 1, {request}));
  h.deliver(2, h.makePrepare(0, 1, 0xBAD, 2));
  h.deliver(3, h.makePrepare(0, 1, 0xBAD, 3));
  EXPECT_TRUE(h.probes[0]->received<CommitMessage>(MsgKind::kCommit).empty());
}

TEST(Conformance, BadClientMacDropsRequestSilently) {
  Harness h;
  h.deliver(4, h.makeRequest(4, 1, /*corruptForReplica1=*/true));
  EXPECT_EQ(h.replica->stats().requestsBadMac, 1u);
  // Not forwarded to the primary either.
  EXPECT_TRUE(h.probes[0]->inbox.empty());
}

TEST(Conformance, TamperedCopyOfVerifiedRequestIsStillRejected) {
  // A tampering fault copies a request and flips a bit of its operation,
  // keeping digest and authenticator. Having verified the original must not
  // vouch for the copy: each arrival is checked against its own body.
  Harness h;
  const RequestPtr request = h.makeRequest(4, 1);
  h.deliver(4, request);
  EXPECT_EQ(h.replica->stats().requestsBadMac, 0u);

  auto tampered = std::make_shared<RequestMessage>(*request);
  tampered->operation[0] ^= 0x10;
  h.deliver(4, tampered);
  EXPECT_EQ(h.replica->stats().requestsBadMac, 1u);

  h.deliver(0, h.makePrePrepare(0, 1, {tampered}));
  EXPECT_EQ(h.replica->stats().prePreparesRejected, 1u);
  EXPECT_TRUE(h.probes[0]->received<PrepareMessage>(MsgKind::kPrepare).empty());
}

TEST(Conformance, BackupForwardsDirectRequestsToPrimary) {
  Harness h;
  h.deliver(4, h.makeRequest(4, 1));
  const auto forwarded =
      h.probes[0]->received<RequestMessage>(MsgKind::kRequest);
  ASSERT_EQ(forwarded.size(), 1u);
  EXPECT_EQ(forwarded[0]->client, 4u);
}

TEST(Conformance, StarvedDirectRequestTriggersViewChange) {
  Harness h;
  h.deliver(4, h.makeRequest(4, 1));
  EXPECT_FALSE(h.replica->inViewChange());
  // Let the request timer (5 s default) expire with nothing executed.
  h.simulator.runUntil(h.simulator.now() + h.config.requestTimeout +
                       sim::msec(1));
  EXPECT_TRUE(h.replica->inViewChange());
  const auto viewChanges =
      h.probes[0]->received<ViewChangeMessage>(MsgKind::kViewChange);
  ASSERT_EQ(viewChanges.size(), 1u);
  EXPECT_EQ(viewChanges[0]->newView, 1u);
}

TEST(Conformance, ExecutedRequestRetransmissionGetsCachedReply) {
  Harness h;
  const RequestPtr request = h.makeRequest(4, 1);
  const std::uint64_t digest = batchDigest({request});
  h.deliver(0, h.makePrePrepare(0, 1, {request}));
  h.deliver(2, h.makePrepare(0, 1, digest, 2));
  h.deliver(0, h.makeCommit(0, 1, digest, 0));
  h.deliver(2, h.makeCommit(0, 1, digest, 2));
  ASSERT_EQ(h.replica->lastExecuted(), 1u);
  const std::size_t repliesBefore =
      h.probes[4]->received<ReplyMessage>(MsgKind::kReply).size();

  h.deliver(4, h.makeRequest(4, 1));  // retransmission of executed request
  EXPECT_EQ(h.probes[4]->received<ReplyMessage>(MsgKind::kReply).size(),
            repliesBefore + 1)
      << "served from the reply cache";
  EXPECT_EQ(h.replica->stats().repliesResent, 1u);
  EXPECT_EQ(h.replica->stats().requestsExecuted, 1u) << "no re-execution";
}

TEST(Conformance, StaleTimestampIsIgnored) {
  Harness h;
  const RequestPtr r2 = h.makeRequest(4, 2);
  const std::uint64_t digest = batchDigest({r2});
  h.deliver(0, h.makePrePrepare(0, 1, {r2}));
  h.deliver(2, h.makePrepare(0, 1, digest, 2));
  h.deliver(0, h.makeCommit(0, 1, digest, 0));
  h.deliver(2, h.makeCommit(0, 1, digest, 2));
  ASSERT_EQ(h.replica->lastExecuted(), 1u);

  h.probes[4]->inbox.clear();
  h.deliver(4, h.makeRequest(4, 1));  // older timestamp than executed
  EXPECT_TRUE(h.probes[4]->inbox.empty()) << "no reply, no forwarding";
}

TEST(Conformance, ViewChangeMessagesCarryPreparedProofs) {
  Harness h;
  const RequestPtr request = h.makeRequest(4, 1);
  const std::uint64_t digest = batchDigest({request});
  h.deliver(0, h.makePrePrepare(0, 1, {request}));
  h.deliver(2, h.makePrepare(0, 1, digest, 2));  // prepared, not committed

  // Ask the replica to view-change by starving a direct request (sent by
  // the client itself, so the timer arms).
  h.deliver(5, h.makeRequest(5, 1));
  h.simulator.runUntil(h.simulator.now() + h.config.requestTimeout +
                       sim::msec(1));
  const auto viewChanges =
      h.probes[2]->received<ViewChangeMessage>(MsgKind::kViewChange);
  ASSERT_EQ(viewChanges.size(), 1u);
  ASSERT_EQ(viewChanges[0]->prepared.size(), 1u);
  EXPECT_EQ(viewChanges[0]->prepared[0].seq, 1u);
  EXPECT_EQ(viewChanges[0]->prepared[0].digest, digest);
  EXPECT_EQ(viewChanges[0]->prepared[0].view, 0u);
}

TEST(Conformance, NewViewInstallsAndResumes) {
  Harness h;
  // Drive the replica into a view change for view 1 (primary: replica 1 is
  // NOT primary of view 1... view 1's primary is replica 1 itself).
  // Starve a request so the replica votes for view 1.
  h.deliver(4, h.makeRequest(4, 1));
  h.simulator.runUntil(h.simulator.now() + h.config.requestTimeout +
                       sim::msec(1));
  ASSERT_TRUE(h.replica->inViewChange());

  // As primary of view 1, the replica needs 2f+1 = 3 view-change votes
  // (its own plus two others) and must then multicast NEW-VIEW.
  for (util::NodeId voter : {2u, 3u}) {
    auto viewChange = std::make_shared<ViewChangeMessage>();
    viewChange->newView = 1;
    viewChange->stableSeq = 0;
    viewChange->replica = voter;
    crypto::MacService macs(voter, &h.keychain);
    viewChange->auth = macs.authenticate(viewChangeDigest(*viewChange), 4);
    h.deliver(voter, viewChange);
  }

  EXPECT_FALSE(h.replica->inViewChange());
  EXPECT_EQ(h.replica->view(), 1u);
  EXPECT_TRUE(h.replica->isPrimary());
  for (util::NodeId peer : {0u, 2u, 3u}) {
    EXPECT_EQ(h.probes[peer]->received<NewViewMessage>(MsgKind::kNewView).size(),
              1u)
        << "peer " << peer;
  }
}

}  // namespace
}  // namespace avd::pbft
