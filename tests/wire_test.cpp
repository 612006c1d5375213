// Wire-codec tests: per-kind round trips, golden-format stability,
// malformed-input rejection, and randomized decode fuzz sweeps.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "pbft/message.h"
#include "pbft/wire.h"

namespace avd::pbft {
namespace {

RequestPtr sampleRequest(util::NodeId client = 9, util::RequestId ts = 3) {
  auto request = std::make_shared<RequestMessage>();
  request->client = client;
  request->timestamp = ts;
  request->operation = {1, 2, 3};
  request->digest = requestDigest(client, ts, request->operation);
  request->auth.tags = {11, 22, 33, 44};
  return request;
}

void expectRequestEq(const RequestMessage& a, const RequestMessage& b) {
  EXPECT_EQ(a.client, b.client);
  EXPECT_EQ(a.timestamp, b.timestamp);
  EXPECT_EQ(a.operation, b.operation);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.auth.tags, b.auth.tags);
}

template <typename M>
std::shared_ptr<const M> roundTrip(const M& message) {
  const util::Bytes frame = wire::encode(message);
  EXPECT_FALSE(frame.empty());
  EXPECT_EQ(frame.size(), wire::encodedSize(message));
  const sim::MessagePtr decoded = wire::decode(frame);
  EXPECT_NE(decoded, nullptr);
  if (decoded == nullptr) return nullptr;
  EXPECT_EQ(decoded->kind(), message.kind());
  return std::static_pointer_cast<const M>(decoded);
}

TEST(Wire, RequestRoundTrip) {
  const RequestPtr request = sampleRequest();
  const auto decoded = roundTrip(*request);
  ASSERT_NE(decoded, nullptr);
  expectRequestEq(*decoded, *request);
}

TEST(Wire, PrePrepareRoundTripWithBatch) {
  PrePrepareMessage prePrepare;
  prePrepare.view = 4;
  prePrepare.seq = 77;
  prePrepare.batch = {sampleRequest(9, 1), sampleRequest(10, 2)};
  prePrepare.digest = batchDigest(prePrepare.batch);
  prePrepare.replica = 2;
  prePrepare.auth.tags = {5, 6, 7, 8};
  const auto decoded = roundTrip(prePrepare);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->view, 4u);
  EXPECT_EQ(decoded->seq, 77u);
  EXPECT_EQ(decoded->digest, prePrepare.digest);
  ASSERT_EQ(decoded->batch.size(), 2u);
  expectRequestEq(*decoded->batch[1], *prePrepare.batch[1]);
}

TEST(Wire, EmptyBatchPrePrepareRoundTrips) {
  PrePrepareMessage nullRequest;
  nullRequest.view = 1;
  nullRequest.seq = 5;
  nullRequest.digest = batchDigest({});
  nullRequest.replica = 1;
  nullRequest.auth.tags = {1, 2, 3, 4};
  const auto decoded = roundTrip(nullRequest);
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(decoded->batch.empty());
}

TEST(Wire, PrepareAndCommitRoundTrip) {
  PrepareMessage prepare;
  prepare.view = 2;
  prepare.seq = 9;
  prepare.digest = 0xABCD;
  prepare.replica = 3;
  prepare.auth.tags = {9, 8, 7, 6};
  const auto decodedPrepare = roundTrip(prepare);
  ASSERT_NE(decodedPrepare, nullptr);
  EXPECT_EQ(decodedPrepare->digest, 0xABCDu);

  CommitMessage commit;
  commit.view = 2;
  commit.seq = 9;
  commit.digest = 0xABCD;
  commit.replica = 3;
  commit.auth.tags = {9, 8, 7, 6};
  const auto decodedCommit = roundTrip(commit);
  ASSERT_NE(decodedCommit, nullptr);
  EXPECT_EQ(decodedCommit->seq, 9u);
}

TEST(Wire, ReplyRoundTrip) {
  ReplyMessage reply;
  reply.view = 1;
  reply.client = 12;
  reply.timestamp = 55;
  reply.replica = 0;
  reply.result = {4, 5, 6, 7};
  reply.resultDigest = 0x1234;
  reply.mac = 0x5678;
  const auto decoded = roundTrip(reply);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->result, reply.result);
  EXPECT_EQ(decoded->mac, reply.mac);
}

TEST(Wire, CheckpointStatusAndStateMessagesRoundTrip) {
  CheckpointMessage checkpoint;
  checkpoint.seq = 128;
  checkpoint.stateDigest = 0xFEED;
  checkpoint.replica = 1;
  checkpoint.auth.tags = {1, 2, 3, 4};
  EXPECT_NE(roundTrip(checkpoint), nullptr);

  StatusMessage status;
  status.view = 3;
  status.lastExecuted = 500;
  status.replica = 2;
  status.auth.tags = {4, 3, 2, 1};
  const auto decodedStatus = roundTrip(status);
  ASSERT_NE(decodedStatus, nullptr);
  EXPECT_EQ(decodedStatus->lastExecuted, 500u);

  StateRequestMessage stateRequest;
  stateRequest.seq = 256;
  stateRequest.replica = 3;
  stateRequest.mac = 99;
  EXPECT_NE(roundTrip(stateRequest), nullptr);

  StateResponseMessage stateResponse;
  stateResponse.seq = 256;
  stateResponse.stateDigest = 0xD1D1;
  stateResponse.snapshot = {1, 1, 2, 3, 5, 8};
  stateResponse.clientTimestamps = {{4, 10}, {5, 11}};
  stateResponse.replica = 0;
  stateResponse.mac = 77;
  const auto decodedState = roundTrip(stateResponse);
  ASSERT_NE(decodedState, nullptr);
  EXPECT_EQ(decodedState->clientTimestamps, stateResponse.clientTimestamps);
  EXPECT_EQ(decodedState->snapshot, stateResponse.snapshot);
}

TEST(Wire, ViewChangeAndNewViewRoundTrip) {
  ViewChangeMessage viewChange;
  viewChange.newView = 6;
  viewChange.stableSeq = 384;
  PreparedProof proof;
  proof.seq = 390;
  proof.view = 5;
  proof.batch = {sampleRequest()};
  proof.digest = batchDigest(proof.batch);
  viewChange.prepared.push_back(proof);
  viewChange.replica = 2;
  viewChange.auth.tags = {1, 2, 3, 4};
  const auto decodedVc = roundTrip(viewChange);
  ASSERT_NE(decodedVc, nullptr);
  ASSERT_EQ(decodedVc->prepared.size(), 1u);
  EXPECT_EQ(decodedVc->prepared[0].digest, proof.digest);
  EXPECT_EQ(viewChangeDigest(*decodedVc), viewChangeDigest(viewChange))
      << "authenticated content survives the round trip";

  NewViewMessage newView;
  newView.view = 6;
  auto prePrepare = std::make_shared<PrePrepareMessage>();
  prePrepare->view = 6;
  prePrepare->seq = 390;
  prePrepare->batch = proof.batch;
  prePrepare->digest = proof.digest;
  prePrepare->replica = 2;
  prePrepare->auth.tags = {5, 5, 5, 5};
  newView.prePrepares.push_back(prePrepare);
  newView.replica = 2;
  newView.auth.tags = {6, 6, 6, 6};
  const auto decodedNv = roundTrip(newView);
  ASSERT_NE(decodedNv, nullptr);
  EXPECT_EQ(newViewDigest(*decodedNv), newViewDigest(newView));
}

TEST(Wire, SyncSeqRoundTrip) {
  SyncSeqMessage sync;
  sync.seq = 41;
  sync.batch = {sampleRequest()};
  sync.digest = batchDigest(sync.batch);
  sync.replica = 1;
  sync.mac = 0xAB;
  const auto decoded = roundTrip(sync);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(syncSeqDigest(*decoded), syncSeqDigest(sync));
}

TEST(Wire, GoldenRequestEncoding) {
  // Format stability: changing the wire layout must be a conscious act.
  auto request = std::make_shared<RequestMessage>();
  request->client = 1;
  request->timestamp = 2;
  request->operation = {0xAA};
  request->digest = 0x0102030405060708;
  request->auth.tags = {0x11, 0x22};
  EXPECT_EQ(util::toHex(wire::encode(*request)),
            "01000000"                  // kind = kRequest
            "01000000"                  // client
            "0200000000000000"          // timestamp
            "00"                        // readOnly = false
            "01000000" "aa"             // operation blob
            "0807060504030201"          // digest (little-endian)
            "02000000"                  // 2 auth tags
            "1100000000000000"
            "2200000000000000");
}

TEST(Wire, TruncationAtEveryByteIsRejected) {
  PrePrepareMessage prePrepare;
  prePrepare.view = 1;
  prePrepare.seq = 2;
  prePrepare.batch = {sampleRequest()};
  prePrepare.digest = batchDigest(prePrepare.batch);
  prePrepare.replica = 0;
  prePrepare.auth.tags = {1, 2, 3, 4};
  const util::Bytes frame = wire::encode(prePrepare);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_EQ(wire::decode(std::span(frame.data(), len)), nullptr)
        << "truncation at byte " << len;
  }
}

TEST(Wire, TrailingGarbageIsRejected) {
  util::Bytes frame = wire::encode(*sampleRequest());
  frame.push_back(0);
  EXPECT_EQ(wire::decode(frame), nullptr);
}

TEST(Wire, AbsurdContainerLengthsAreRejected) {
  util::ByteWriter writer;
  writer.u32(static_cast<std::uint32_t>(MsgKind::kPrePrepare));
  writer.u64(0);            // view
  writer.u64(1);            // seq
  writer.u64(0);            // digest
  writer.u32(0);            // replica
  writer.u32(0xFFFFFFFF);   // batch count: absurd
  EXPECT_EQ(wire::decode(writer.bytes()), nullptr);
}

TEST(Wire, RandomBytesNeverCrashTheDecoder) {
  util::Rng rng(55);
  for (int i = 0; i < 20000; ++i) {
    util::Bytes garbage(rng.below(120));
    for (auto& byte : garbage) {
      byte = static_cast<std::uint8_t>(rng.below(256));
    }
    // Totality is the assertion: no crash, no UB, result irrelevant.
    (void)wire::decode(garbage);
  }
}

TEST(Wire, MutatedValidFramesNeverCrashTheDecoder) {
  // Structured fuzz: start from valid frames, flip bits.
  util::Rng rng(56);
  PrePrepareMessage prePrepare;
  prePrepare.view = 1;
  prePrepare.seq = 2;
  prePrepare.batch = {sampleRequest(9, 1), sampleRequest(10, 2)};
  prePrepare.digest = batchDigest(prePrepare.batch);
  prePrepare.replica = 0;
  prePrepare.auth.tags = {1, 2, 3, 4};
  const util::Bytes original = wire::encode(prePrepare);
  int parsedCount = 0;
  for (int i = 0; i < 20000; ++i) {
    util::Bytes frame = original;
    const std::uint64_t bit = rng.below(frame.size() * 8);
    frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    if (wire::decode(frame) != nullptr) ++parsedCount;
  }
  EXPECT_GT(parsedCount, 0) << "single payload-bit flips usually reparse";
}

}  // namespace
}  // namespace avd::pbft

