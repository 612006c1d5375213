// Generated by `avd_lint --gen-events`. DO NOT EDIT.
//
// The runtime protocol-event taxonomy, extracted statically from the
// message-kind enum and the protocol transitions of src/pbft/ +
// src/sim/ (tools/lint/model.cpp). The `lint.gen` CTest regenerates
// this header and fails on any drift, so instrumentation and the
// coverage map key off one mechanical inventory instead of
// hand-maintained lists.
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

}  // namespace avd::gen
