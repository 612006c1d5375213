// Unit tests for PBFT building blocks: messages/digests, the replica log
// and its certificates, application services, and configuration helpers.
#include <gtest/gtest.h>

#include <memory>

#include "common/bytes.h"
#include "common/hash.h"
#include "pbft/config.h"
#include "pbft/log.h"
#include "pbft/message.h"
#include "pbft/service.h"

namespace avd::pbft {
namespace {

// --- Config -------------------------------------------------------------------

class ConfigSizes : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ConfigSizes, QuorumArithmetic) {
  Config config;
  config.f = GetParam();
  EXPECT_EQ(config.replicaCount(), 3 * config.f + 1);
  EXPECT_EQ(config.quorum(), 2 * config.f + 1);
  // Any two quorums intersect in at least f+1 replicas.
  EXPECT_GE(2 * config.quorum(), config.replicaCount() + config.f + 1);
}

TEST_P(ConfigSizes, PrimaryRotatesRoundRobin) {
  Config config;
  config.f = GetParam();
  const std::uint32_t n = config.replicaCount();
  for (std::uint64_t view = 0; view < 3 * n; ++view) {
    EXPECT_EQ(config.primaryOf(view), view % n);
  }
}

INSTANTIATE_TEST_SUITE_P(FaultTolerance, ConfigSizes,
                         ::testing::Values(1, 2, 3, 5));

// --- Message digests -------------------------------------------------------------

TEST(Digests, RequestDigestBindsAllFields) {
  const util::Bytes op{1, 2, 3};
  const std::uint64_t base = requestDigest(1, 2, op);
  EXPECT_NE(base, requestDigest(9, 2, op)) << "client";
  EXPECT_NE(base, requestDigest(1, 9, op)) << "timestamp";
  EXPECT_NE(base, requestDigest(1, 2, util::Bytes{1, 2})) << "operation";
  EXPECT_EQ(base, requestDigest(1, 2, op)) << "deterministic";
}

TEST(Digests, RequestDigestIsFnvOfTheCanonicalEncoding) {
  // requestDigest streams its bytes into FNV-1a; the digest must equal
  // FNV-1a over the ByteWriter encoding a wire deployment would sign.
  util::Bytes kib(1024);
  for (std::size_t i = 0; i < kib.size(); ++i) {
    kib[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  for (const util::Bytes& op : {util::Bytes{}, util::Bytes{0xA5}, kib}) {
    for (const bool readOnly : {false, true}) {
      util::ByteWriter writer;
      writer.u32(static_cast<std::uint32_t>(MsgKind::kRequest));
      writer.u32(7);
      writer.u64(0x0123456789ABCDEFULL);
      writer.blob(op);
      writer.u8(readOnly ? 1 : 0);
      EXPECT_EQ(requestDigest(7, 0x0123456789ABCDEFULL, op, readOnly),
                util::fnv1a(writer.bytes()))
          << op.size() << "-byte operation, readOnly=" << readOnly;
    }
  }
}

TEST(Digests, BatchDigestIsOrderSensitive) {
  auto makeRequest = [](util::RequestId ts) {
    auto request = std::make_shared<RequestMessage>();
    request->client = 5;
    request->timestamp = ts;
    request->digest = requestDigest(5, ts, {});
    return request;
  };
  const RequestPtr a = makeRequest(1);
  const RequestPtr b = makeRequest(2);
  EXPECT_NE(batchDigest({a, b}), batchDigest({b, a}));
  EXPECT_NE(batchDigest({a}), batchDigest({a, b}));
  EXPECT_EQ(batchDigest({}), batchDigest({}));
  EXPECT_NE(batchDigest({}), batchDigest({a}));
}

TEST(Digests, AuthenticatorExcludedFromRequestDigest) {
  // The Big MAC surface: two requests with identical content but different
  // authenticators share a digest.
  auto request = std::make_shared<RequestMessage>();
  request->client = 3;
  request->timestamp = 7;
  request->operation = {9};
  const std::uint64_t before =
      requestDigest(request->client, request->timestamp, request->operation);
  request->auth.tags = {1, 2, 3, 4};
  EXPECT_EQ(
      requestDigest(request->client, request->timestamp, request->operation),
      before);
}

TEST(Digests, PhaseDigestSeparatesPhasesAndSenders) {
  const std::uint64_t pre =
      phaseDigest(MsgKind::kPrePrepare, 1, 2, 3, 0);
  EXPECT_NE(pre, phaseDigest(MsgKind::kPrepare, 1, 2, 3, 0));
  EXPECT_NE(pre, phaseDigest(MsgKind::kCommit, 1, 2, 3, 0));
  EXPECT_NE(pre, phaseDigest(MsgKind::kPrePrepare, 1, 2, 3, 1));
  EXPECT_NE(pre, phaseDigest(MsgKind::kPrePrepare, 2, 2, 3, 0));
}

TEST(Digests, ViewChangeDigestCoversProofs) {
  ViewChangeMessage vc;
  vc.newView = 3;
  vc.stableSeq = 10;
  vc.replica = 2;
  const std::uint64_t base = viewChangeDigest(vc);
  vc.prepared.push_back(PreparedProof{.seq = 11, .view = 2, .digest = 5,
                                      .batch = {}});
  EXPECT_NE(viewChangeDigest(vc), base);
}

// --- Log / certificates ----------------------------------------------------------

PrePreparePtr makePrePrepare(util::ViewId view, util::SeqNum seq) {
  auto prePrepare = std::make_shared<PrePrepareMessage>();
  prePrepare->view = view;
  prePrepare->seq = seq;
  prePrepare->digest = batchDigest({});
  prePrepare->replica = 0;
  return prePrepare;
}

TEST(LogEntry, PreparedNeedsPrePrepareAndTwoFMatchingPrepares) {
  LogEntry entry;
  EXPECT_FALSE(entry.prepared(1));
  entry.prePrepare = makePrePrepare(0, 1);
  entry.digest = entry.prePrepare->digest;
  EXPECT_FALSE(entry.prepared(1));
  entry.prepares[1] = entry.digest;
  EXPECT_FALSE(entry.prepared(1)) << "one matching prepare is not 2f";
  entry.prepares[2] = entry.digest + 1;  // mismatched digest
  EXPECT_FALSE(entry.prepared(1));
  entry.prepares[3] = entry.digest;
  EXPECT_TRUE(entry.prepared(1));
}

TEST(LogEntry, CommittedNeedsPreparedPlusQuorumCommits) {
  LogEntry entry;
  entry.prePrepare = makePrePrepare(0, 1);
  entry.digest = entry.prePrepare->digest;
  entry.prepares[1] = entry.digest;
  entry.prepares[2] = entry.digest;
  entry.commits[0] = entry.digest;
  entry.commits[1] = entry.digest;
  EXPECT_FALSE(entry.committed(1)) << "2 commits < 2f+1";
  entry.commits[2] = entry.digest;
  EXPECT_TRUE(entry.committed(1));
}

TEST(LogEntry, MismatchedVotesNeverCount) {
  LogEntry entry;
  entry.prePrepare = makePrePrepare(0, 1);
  entry.digest = 42;
  for (util::NodeId r = 1; r < 10; ++r) entry.prepares[r] = 41;
  EXPECT_EQ(entry.matchingPrepares(), 0u);
  EXPECT_FALSE(entry.prepared(1));
}

TEST(ReplicaLog, TruncateDropsUpToStable) {
  ReplicaLog log;
  for (util::SeqNum seq = 1; seq <= 10; ++seq) log.at(seq);
  log.truncateBelow(7);
  EXPECT_EQ(log.find(7), nullptr);
  EXPECT_EQ(log.find(1), nullptr);
  EXPECT_NE(log.find(8), nullptr);
  EXPECT_EQ(log.size(), 3u);
}

TEST(ReplicaLog, PreparedProofsSkipStableAndUnprepared) {
  ReplicaLog log;
  for (util::SeqNum seq = 1; seq <= 4; ++seq) {
    LogEntry& entry = log.at(seq);
    entry.prePrepare = makePrePrepare(0, seq);
    entry.view = 0;
    entry.digest = entry.prePrepare->digest;
    if (seq != 3) {  // leave 3 unprepared
      entry.prepares[1] = entry.digest;
      entry.prepares[2] = entry.digest;
      entry.recordPrepared();
    }
  }
  const auto proofs = log.preparedProofsAbove(1, 1);
  ASSERT_EQ(proofs.size(), 2u);
  EXPECT_EQ(proofs[0].seq, 2u);
  EXPECT_EQ(proofs[1].seq, 4u);
}

TEST(ReplicaLog, EverPreparedMemorySurvivesNewViewReset) {
  // The P-set property the safety fix relies on: the highest-view prepared
  // certificate survives the live-certificate wipe at view installation.
  ReplicaLog log;
  LogEntry& entry = log.at(5);
  entry.prePrepare = makePrePrepare(2, 5);
  entry.view = 2;
  entry.digest = entry.prePrepare->digest;
  entry.prepares[1] = entry.digest;
  entry.prepares[2] = entry.digest;
  entry.recordPrepared();

  log.resetUnexecutedForNewView();
  EXPECT_EQ(log.find(5)->prePrepare, nullptr) << "live cert wiped";
  const auto proofs = log.preparedProofsAbove(0, 1);
  ASSERT_EQ(proofs.size(), 1u) << "prepared memory kept";
  EXPECT_EQ(proofs[0].view, 2u);

  // A later, higher-view certificate supersedes; a stale lower-view one
  // must not.
  LogEntry& again = log.at(5);
  again.prePrepare = makePrePrepare(7, 5);
  again.view = 7;
  again.digest = again.prePrepare->digest;
  again.recordPrepared();
  EXPECT_EQ(log.preparedProofsAbove(0, 1)[0].view, 7u);
  again.view = 3;
  again.recordPrepared();
  EXPECT_EQ(log.preparedProofsAbove(0, 1)[0].view, 7u);
}

TEST(ReplicaLog, ResetForNewViewPreservesExecuted) {
  ReplicaLog log;
  LogEntry& executed = log.at(1);
  executed.prePrepare = makePrePrepare(0, 1);
  executed.digest = 5;
  executed.executed = true;
  LogEntry& pending = log.at(2);
  pending.prePrepare = makePrePrepare(0, 2);
  pending.digest = 6;
  pending.prepares[1] = 6;
  pending.commitSent = true;

  log.resetUnexecutedForNewView();
  EXPECT_NE(log.find(1)->prePrepare, nullptr);
  EXPECT_EQ(log.find(1)->digest, 5u);
  EXPECT_EQ(log.find(2)->prePrepare, nullptr);
  EXPECT_TRUE(log.find(2)->prepares.empty());
  EXPECT_FALSE(log.find(2)->commitSent);
}

// --- Services -------------------------------------------------------------------

TEST(CounterService, IncrementsByOperationByte) {
  CounterService service;
  service.execute(1, {5});
  service.execute(2, {});
  util::Bytes result = service.execute(1, {10});
  EXPECT_EQ(service.value(), 16u);
  util::ByteReader reader(result);
  EXPECT_EQ(reader.u64(), 16u);
}

TEST(CounterService, SnapshotRestoreRoundTrip) {
  CounterService service;
  service.execute(1, {42});
  const std::uint64_t digest = service.stateDigest();
  const util::Bytes snapshot = service.snapshot();

  CounterService other;
  other.restore(snapshot);
  EXPECT_EQ(other.value(), 42u);
  EXPECT_EQ(other.stateDigest(), digest);
}

TEST(KvService, PutGetDelSemantics) {
  KvService service;
  const auto get = [&service](const std::string& key) {
    // Keep the result alive for the duration of the read (ByteReader views
    // the buffer, it does not own it).
    const util::Bytes result = service.execute(1, KvService::encodeGet(key));
    util::ByteReader reader(result);
    return reader.str().value_or("<decode error>");
  };
  service.execute(1, KvService::encodePut("k", "v1"));
  EXPECT_EQ(get("k"), "v1");
  service.execute(1, KvService::encodePut("k", "v2"));
  EXPECT_EQ(get("k"), "v2");
  service.execute(1, KvService::encodeDel("k"));
  EXPECT_EQ(get("k"), "");
  EXPECT_EQ(service.size(), 0u);
}

TEST(KvService, MalformedOperationsAreSafeNoOps) {
  KvService service;
  EXPECT_TRUE(service.execute(1, {}).empty());
  EXPECT_TRUE(service.execute(1, {99}).empty());     // unknown opcode
  EXPECT_TRUE(service.execute(1, {1, 200}).empty()); // truncated PUT
  EXPECT_EQ(service.size(), 0u);
}

TEST(KvService, DigestTracksContentNotHistory) {
  KvService a;
  KvService b;
  a.execute(1, KvService::encodePut("x", "1"));
  a.execute(1, KvService::encodePut("y", "2"));
  b.execute(2, KvService::encodePut("y", "2"));
  b.execute(2, KvService::encodePut("x", "1"));
  EXPECT_EQ(a.stateDigest(), b.stateDigest());
  b.execute(2, KvService::encodeDel("x"));
  EXPECT_NE(a.stateDigest(), b.stateDigest());
}

TEST(KvService, SnapshotRestoreRoundTrip) {
  KvService service;
  for (int i = 0; i < 20; ++i) {
    service.execute(1, KvService::encodePut("key" + std::to_string(i),
                                            "value" + std::to_string(i)));
  }
  KvService other;
  other.restore(service.snapshot());
  EXPECT_EQ(other.size(), 20u);
  EXPECT_EQ(other.stateDigest(), service.stateDigest());
}

}  // namespace
}  // namespace avd::pbft
