// Generated by `avd_lint --gen-events`. DO NOT EDIT.
//
// The runtime protocol-event taxonomy, extracted statically from the
// message-kind enum and the protocol transitions of src/pbft/ +
// src/sim/ (tools/lint/model.cpp). The `lint.gen` CTest regenerates
// this header and fails on any drift, so instrumentation, the dedup
// signature, and the future coverage map all key off one mechanical
// inventory instead of three hand-maintained lists.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace avd::gen {

enum class ProtocolEvent : std::uint32_t {
  kMsgRequest = 0,
  kMsgPrePrepare = 1,
  kMsgPrepare = 2,
  kMsgCommit = 3,
  kMsgReply = 4,
  kMsgCheckpoint = 5,
  kMsgViewChange = 6,
  kMsgNewView = 7,
  kMsgStateRequest = 8,
  kMsgStateResponse = 9,
  kMsgStatus = 10,
  kMsgSyncSeq = 11,
  kViewChange = 12,
  kCheckpoint = 13,
  kStateTransfer = 14,
  kParkUnpark = 15,
  kQuotaDrop = 16,
  kIngressOverflow = 17,
  kCrashRejoin = 18,
};

inline constexpr std::size_t kProtocolEventCount = 19;

struct ProtocolEventInfo {
  ProtocolEvent event;
  std::string_view name;     // taxonomy name, e.g. "msg.prePrepare"
  std::string_view kind;     // "message" | "transition"
  std::uint32_t wireKind;    // MsgKind value for messages, 0 otherwise
  std::string_view counter;  // runtime counter observing the event
  std::string_view source;   // extraction provenance
};

inline constexpr std::array<ProtocolEventInfo, kProtocolEventCount>
    kProtocolEvents = {{
        {ProtocolEvent::kMsgRequest, "msg.request", "message", 1u,
         "NetworkCounters::deliveredByKind", "src/pbft/message.h"},
        {ProtocolEvent::kMsgPrePrepare, "msg.prePrepare", "message", 2u,
         "NetworkCounters::deliveredByKind", "src/pbft/message.h"},
        {ProtocolEvent::kMsgPrepare, "msg.prepare", "message", 3u,
         "NetworkCounters::deliveredByKind", "src/pbft/message.h"},
        {ProtocolEvent::kMsgCommit, "msg.commit", "message", 4u,
         "NetworkCounters::deliveredByKind", "src/pbft/message.h"},
        {ProtocolEvent::kMsgReply, "msg.reply", "message", 5u,
         "NetworkCounters::deliveredByKind", "src/pbft/message.h"},
        {ProtocolEvent::kMsgCheckpoint, "msg.checkpoint", "message", 6u,
         "NetworkCounters::deliveredByKind", "src/pbft/message.h"},
        {ProtocolEvent::kMsgViewChange, "msg.viewChange", "message", 7u,
         "NetworkCounters::deliveredByKind", "src/pbft/message.h"},
        {ProtocolEvent::kMsgNewView, "msg.newView", "message", 8u,
         "NetworkCounters::deliveredByKind", "src/pbft/message.h"},
        {ProtocolEvent::kMsgStateRequest, "msg.stateRequest", "message", 9u,
         "NetworkCounters::deliveredByKind", "src/pbft/message.h"},
        {ProtocolEvent::kMsgStateResponse, "msg.stateResponse", "message", 10u,
         "NetworkCounters::deliveredByKind", "src/pbft/message.h"},
        {ProtocolEvent::kMsgStatus, "msg.status", "message", 11u,
         "NetworkCounters::deliveredByKind", "src/pbft/message.h"},
        {ProtocolEvent::kMsgSyncSeq, "msg.syncSeq", "message", 12u,
         "NetworkCounters::deliveredByKind", "src/pbft/message.h"},
        {ProtocolEvent::kViewChange, "transition.view-change", "transition", 0u,
         "ReplicaStats::viewChangesInitiated", "Replica::startViewChange (src/pbft/replica.cpp)"},
        {ProtocolEvent::kCheckpoint, "transition.checkpoint", "transition", 0u,
         "ReplicaStats::checkpointsTaken", "Replica::takeCheckpoint (src/pbft/replica.cpp)"},
        {ProtocolEvent::kStateTransfer, "transition.state-transfer", "transition", 0u,
         "ReplicaStats::stateTransfersCompleted", "Replica::requestStateTransfer (src/pbft/replica.cpp)"},
        {ProtocolEvent::kParkUnpark, "transition.park-unpark", "transition", 0u,
         "ReplicaStats::prePreparesPended", "Replica::retryPendingPrePrepares (src/pbft/replica.cpp)"},
        {ProtocolEvent::kQuotaDrop, "transition.quota-drop", "transition", 0u,
         "ReplicaStats::quotaDrops", "Replica::admitRequest (src/pbft/replica.cpp)"},
        {ProtocolEvent::kIngressOverflow, "transition.ingress-overflow", "transition", 0u,
         "NetworkCounters::droppedQueueOverflow", "Network::enqueueIngress (src/sim/network.cpp)"},
        {ProtocolEvent::kCrashRejoin, "transition.crash-rejoin", "transition", 0u,
         "SimNode::restarts", "Replica::onRestart (src/pbft/replica.cpp)"},
    }};

inline constexpr std::string_view protocolEventName(ProtocolEvent e) {
  return kProtocolEvents[static_cast<std::size_t>(e)].name;
}

// --- Outcome bands and journal keys ---------------------------------------
//
// The dedup-signature bands and the byte-stable journal field names.
// src/campaign/dedup.cpp and src/campaign/journal.cpp consume these;
// the values are part of the on-disk journal/classes format and must
// only change deliberately (regenerate + migrate).

struct OutcomeBand {
  std::string_view metric;      // journal field the band is over
  std::string_view dedupLabel;  // human label in signature strings
  std::uint64_t lo;             // value <= lo  -> band 1
  std::uint64_t hi;             // value <= hi  -> band 2, else 3
  std::array<std::string_view, 4> bandNames;
};

inline constexpr OutcomeBand kViewChangeBand{
    "viewChanges", "view changes", 3, 10, {{"none", "1-3", "4-10", ">10"}}};
inline constexpr OutcomeBand kRestartBand{
    "restarts", "restarts", 2, 8, {{"none", "1-2", "3-8", ">8"}}};
inline constexpr OutcomeBand kResourceBand{
    "queueDrops+quotaDrops", "resource drops", 100, 10000,
    {{"none", "1-100", "101-10k", ">10k"}}};

/// Band index of `value` under `band` (0 = none).
inline constexpr int bandOf(const OutcomeBand& band, std::uint64_t value) {
  if (value == 0) return 0;
  if (value <= band.lo) return 1;
  if (value <= band.hi) return 2;
  return 3;
}

inline constexpr std::string_view kSafetyLabel = "SAFETY VIOLATED";

inline constexpr std::string_view kJournalKeyViewChanges = "viewChanges";
inline constexpr std::string_view kJournalKeyRestarts = "restarts";
inline constexpr std::string_view kJournalKeyRecoveryLatencySec =
    "recoveryLatencySec";
inline constexpr std::string_view kJournalKeyQueueDrops = "queueDrops";
inline constexpr std::string_view kJournalKeyQuotaDrops = "quotaDrops";
/// Optional: only present on journal lines whose scenario violated
/// safety (pre-twins journals never carry it and must keep decoding).
inline constexpr std::string_view kJournalKeySafetyWitness =
    "safetyWitness";

}  // namespace avd::gen
