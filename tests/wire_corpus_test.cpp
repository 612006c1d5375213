// Malformed-wire corpus sweep (ISSUE 1 satellite).
//
// For EVERY PBFT message kind this builds a representative frame and then
// exhaustively corrupts it: truncation at each byte offset, a bit flip at
// each bit position, and byte substitutions (0x00 / 0xFF) at each offset.
// Two properties must hold for every corruption:
//   totality     — decode() never crashes or trips a sanitizer (this file
//                  runs under ASan+UBSan and TSan in the CI matrix);
//   canonicality — when a corrupted frame still decodes, re-encoding the
//                  decoded object reproduces the corrupted frame verbatim,
//                  i.e. the codec never "repairs" attacker bytes silently.
// Truncated prefixes must always be rejected outright: every frame ends
// exactly where its last field does, so a proper prefix cannot satisfy the
// decoder's exhausted() check.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "avd/gen/protocol_events.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "pbft/message.h"
#include "pbft/wire.h"

namespace avd::pbft {
namespace {

RequestPtr sampleRequest(util::NodeId client, util::RequestId ts,
                         bool readOnly = false) {
  auto request = std::make_shared<RequestMessage>();
  request->client = client;
  request->timestamp = ts;
  request->readOnly = readOnly;
  request->operation = {0x10, 0x20, 0x30, 0x40};
  request->digest = requestDigest(client, ts, request->operation);
  request->auth.tags = {101, 202, 303, 404};
  return request;
}

PrePreparePtr samplePrePrepare() {
  auto prePrepare = std::make_shared<PrePrepareMessage>();
  prePrepare->view = 7;
  prePrepare->seq = 42;
  prePrepare->batch = {sampleRequest(3, 9), sampleRequest(4, 10, true)};
  prePrepare->digest = batchDigest(prePrepare->batch);
  prePrepare->replica = 1;
  prePrepare->auth.tags = {11, 12, 13, 14};
  return prePrepare;
}

/// One representative frame per MsgKind — the corpus.
std::vector<std::pair<const char*, util::Bytes>> corpus() {
  std::vector<std::pair<const char*, util::Bytes>> frames;

  frames.emplace_back("Request", wire::encode(*sampleRequest(9, 3)));
  frames.emplace_back("PrePrepare", wire::encode(*samplePrePrepare()));

  PrepareMessage prepare;
  prepare.view = 7;
  prepare.seq = 42;
  prepare.digest = 0xDEADBEEF;
  prepare.replica = 2;
  prepare.auth.tags = {9, 8, 7, 6};
  frames.emplace_back("Prepare", wire::encode(prepare));

  CommitMessage commit;
  commit.view = 7;
  commit.seq = 42;
  commit.digest = 0xDEADBEEF;
  commit.replica = 3;
  commit.auth.tags = {6, 7, 8, 9};
  frames.emplace_back("Commit", wire::encode(commit));

  ReplyMessage reply;
  reply.view = 7;
  reply.client = 12;
  reply.timestamp = 55;
  reply.replica = 0;
  reply.result = {1, 2, 3, 4, 5};
  reply.resultDigest = 0x1234;
  reply.mac = 0x5678;
  frames.emplace_back("Reply", wire::encode(reply));

  CheckpointMessage checkpoint;
  checkpoint.seq = 128;
  checkpoint.stateDigest = 0xFEEDFACE;
  checkpoint.replica = 1;
  checkpoint.auth.tags = {1, 2, 3, 4};
  frames.emplace_back("Checkpoint", wire::encode(checkpoint));

  ViewChangeMessage viewChange;
  viewChange.newView = 8;
  viewChange.stableSeq = 100;
  PreparedProof proof;
  proof.seq = 105;
  proof.view = 7;
  proof.batch = {sampleRequest(5, 6)};
  proof.digest = batchDigest(proof.batch);
  viewChange.prepared.push_back(std::move(proof));
  viewChange.replica = 2;
  viewChange.auth.tags = {21, 22, 23, 24};
  frames.emplace_back("ViewChange", wire::encode(viewChange));

  NewViewMessage newView;
  newView.view = 8;
  newView.prePrepares = {samplePrePrepare()};
  newView.replica = 0;
  newView.auth.tags = {31, 32, 33, 34};
  frames.emplace_back("NewView", wire::encode(newView));

  StateRequestMessage stateRequest;
  stateRequest.seq = 256;
  stateRequest.replica = 3;
  stateRequest.mac = 0xAB;
  frames.emplace_back("StateRequest", wire::encode(stateRequest));

  StateResponseMessage stateResponse;
  stateResponse.seq = 256;
  stateResponse.stateDigest = 0xD1D1;
  stateResponse.snapshot = {1, 1, 2, 3, 5, 8, 13};
  stateResponse.clientTimestamps = {{4, 10}, {5, 11}, {6, 12}};
  stateResponse.replica = 0;
  stateResponse.mac = 77;
  frames.emplace_back("StateResponse", wire::encode(stateResponse));

  StatusMessage status;
  status.view = 3;
  status.lastExecuted = 500;
  status.replica = 2;
  status.auth.tags = {41, 42, 43, 44};
  frames.emplace_back("Status", wire::encode(status));

  SyncSeqMessage sync;
  sync.seq = 41;
  sync.batch = {sampleRequest(7, 8)};
  sync.digest = batchDigest(sync.batch);
  sync.replica = 1;
  sync.mac = 0xCD;
  frames.emplace_back("SyncSeq", wire::encode(sync));

  return frames;
}

/// The canonicality oracle: any frame the decoder accepts must re-encode
/// to exactly the bytes that were decoded.
void expectTotalAndCanonical(const char* kindName, const util::Bytes& frame,
                             const char* mutation, std::size_t position) {
  const sim::MessagePtr decoded = wire::decode(frame);
  if (decoded == nullptr) return;
  EXPECT_EQ(wire::encode(*decoded), frame)
      << kindName << ": " << mutation << " at " << position
      << " decoded to an object that re-encodes differently";
}

TEST(WireCorpus, CorpusCoversEveryMessageKind) {
  // The kind list is the generated taxonomy's message entries (one per
  // MsgKind enumerator, gated by lint.gen), so a new kind with no encode
  // arm, no decode arm or no corpus frame fails here.
  std::set<std::uint32_t> decodedKinds;
  for (const auto& [name, frame] : corpus()) {
    ASSERT_FALSE(frame.empty()) << name << " has no encode arm";
    const sim::MessagePtr decoded = wire::decode(frame);
    ASSERT_NE(decoded, nullptr) << name << " does not decode";
    decodedKinds.insert(decoded->kind());
  }
  std::set<std::uint32_t> messageKinds;
  for (const gen::ProtocolEventInfo& event : gen::kProtocolEvents) {
    if (event.wireKind == 0) continue;
    messageKinds.insert(event.wireKind);
    EXPECT_TRUE(decodedKinds.contains(event.wireKind))
        << event.name << " (MsgKind " << event.wireKind
        << ") missing from corpus";
  }
  EXPECT_EQ(decodedKinds, messageKinds)
      << "every corpus frame decodes to a kind the taxonomy lists";
}

TEST(WireCorpus, TruncationAtEveryOffsetIsRejectedForEveryKind) {
  for (const auto& [name, frame] : corpus()) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      EXPECT_EQ(wire::decode(std::span(frame.data(), len)), nullptr)
          << name << " truncated to " << len << " bytes must not parse";
    }
  }
}

TEST(WireCorpus, BitFlipAtEveryPositionIsTotalAndCanonical) {
  for (const auto& [name, frame] : corpus()) {
    for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
      util::Bytes mutated = frame;
      mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      expectTotalAndCanonical(name, mutated, "bit flip", bit);
    }
  }
}

TEST(WireCorpus, ByteSubstitutionAtEveryOffsetIsTotalAndCanonical) {
  for (const auto& [name, frame] : corpus()) {
    for (std::size_t offset = 0; offset < frame.size(); ++offset) {
      for (const std::uint8_t value : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
        if (frame[offset] == value) continue;
        util::Bytes mutated = frame;
        mutated[offset] = value;
        expectTotalAndCanonical(name, mutated, "byte substitution", offset);
      }
    }
  }
}

TEST(WireCorpus, RandomMultiByteCorruptionIsTotalAndCanonical) {
  util::Rng rng(2026);
  const auto frames = corpus();
  for (int round = 0; round < 20000; ++round) {
    const auto& [name, frame] = frames[rng.below(frames.size())];
    util::Bytes mutated = frame;
    const std::uint64_t edits = 1 + rng.below(8);
    for (std::uint64_t e = 0; e < edits; ++e) {
      mutated[rng.below(mutated.size())] =
          static_cast<std::uint8_t>(rng.below(256));
    }
    expectTotalAndCanonical(name, mutated, "random corruption", round);
  }
}

TEST(WireCorpus, RandomTruncationPlusCorruptionNeverCrashes) {
  util::Rng rng(2027);
  const auto frames = corpus();
  for (int round = 0; round < 20000; ++round) {
    const auto& [name, frame] = frames[rng.below(frames.size())];
    util::Bytes mutated(frame.begin(),
                        frame.begin() + static_cast<std::ptrdiff_t>(
                                            rng.below(frame.size() + 1)));
    if (!mutated.empty() && rng.chance(0.7)) {
      mutated[rng.below(mutated.size())] =
          static_cast<std::uint8_t>(rng.below(256));
    }
    // Prefixes of corrupted frames may legitimately parse only when the
    // corruption rewrote a length field; totality is what matters here.
    expectTotalAndCanonical(name, mutated, "truncate+corrupt", round);
  }
}

}  // namespace
}  // namespace avd::pbft
