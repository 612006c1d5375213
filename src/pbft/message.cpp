#include "pbft/message.h"

#include <string_view>

#include "common/hash.h"

namespace avd::pbft {

namespace {
/// Hash of a domain-separation tag, always computed at compile time.
consteval std::uint64_t tag(std::string_view name) {
  return util::fnv1a(name);
}
}  // namespace

std::uint64_t requestDigest(util::NodeId client, util::RequestId timestamp,
                            const util::Bytes& operation, bool readOnly) {
  // FNV-1a over the ByteWriter encoding (u32 kind, u32 client, u64
  // timestamp, blob operation, u8 readOnly), streamed instead of built.
  util::Fnv1a h;
  h.le(static_cast<std::uint32_t>(MsgKind::kRequest));
  h.le(client);
  h.le(timestamp);
  h.le(static_cast<std::uint32_t>(operation.size()));
  h.bytes(operation);
  h.le(static_cast<std::uint8_t>(readOnly ? 1 : 0));
  return h.digest();
}

std::uint64_t batchDigest(const std::vector<RequestPtr>& batch) {
  // Domain-separated so an empty batch (null request) has a fixed digest
  // distinct from any request digest.
  std::uint64_t digest = tag("pbft.batch");
  for (const RequestPtr& request : batch) {
    digest = util::hashCombine(digest, request->digest);
  }
  return digest;
}

std::uint64_t phaseDigest(MsgKind phase, util::ViewId view, util::SeqNum seq,
                          std::uint64_t digest, util::NodeId replica) {
  std::uint64_t h = tag("pbft.phase");
  h = util::hashCombine(h, static_cast<std::uint64_t>(phase));
  h = util::hashCombine(h, view);
  h = util::hashCombine(h, seq);
  h = util::hashCombine(h, digest);
  h = util::hashCombine(h, replica);
  return h;
}

std::uint64_t replyDigest(const ReplyMessage& reply) {
  std::uint64_t h = tag("pbft.reply");
  h = util::hashCombine(h, reply.view);
  h = util::hashCombine(h, reply.client);
  h = util::hashCombine(h, reply.timestamp);
  h = util::hashCombine(h, reply.replica);
  h = util::hashCombine(h, reply.resultDigest);
  return h;
}

std::uint64_t viewChangeDigest(const ViewChangeMessage& viewChange) {
  std::uint64_t h = tag("pbft.viewchange");
  h = util::hashCombine(h, viewChange.newView);
  h = util::hashCombine(h, viewChange.stableSeq);
  h = util::hashCombine(h, viewChange.replica);
  for (const PreparedProof& proof : viewChange.prepared) {
    h = util::hashCombine(h, proof.seq);
    h = util::hashCombine(h, proof.view);
    h = util::hashCombine(h, proof.digest);
  }
  return h;
}

std::uint64_t newViewDigest(const NewViewMessage& newView) {
  std::uint64_t h = tag("pbft.newview");
  h = util::hashCombine(h, newView.view);
  h = util::hashCombine(h, newView.replica);
  for (const PrePreparePtr& pp : newView.prePrepares) {
    h = util::hashCombine(h, pp->seq);
    h = util::hashCombine(h, pp->digest);
  }
  return h;
}

std::uint64_t stateRequestDigest(const StateRequestMessage& request) {
  std::uint64_t h = tag("pbft.statereq");
  h = util::hashCombine(h, request.seq);
  h = util::hashCombine(h, request.replica);
  return h;
}

std::uint64_t stateResponseDigest(const StateResponseMessage& response) {
  std::uint64_t h = tag("pbft.stateresp");
  h = util::hashCombine(h, response.seq);
  h = util::hashCombine(h, response.stateDigest);
  h = util::hashCombine(h, response.replica);
  h = util::hashCombine(h, util::fnv1a(response.snapshot));
  for (const auto& [client, timestamp] : response.clientTimestamps) {
    h = util::hashCombine(h, client);
    h = util::hashCombine(h, timestamp);
  }
  return h;
}

std::uint64_t statusDigest(const StatusMessage& status) {
  std::uint64_t h = tag("pbft.status");
  h = util::hashCombine(h, status.view);
  h = util::hashCombine(h, status.lastExecuted);
  h = util::hashCombine(h, status.replica);
  return h;
}

std::uint64_t syncSeqDigest(const SyncSeqMessage& sync) {
  std::uint64_t h = tag("pbft.syncseq");
  h = util::hashCombine(h, sync.seq);
  h = util::hashCombine(h, sync.digest);
  h = util::hashCombine(h, sync.replica);
  return h;
}

}  // namespace avd::pbft
