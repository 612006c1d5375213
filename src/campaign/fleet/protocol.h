// Wire protocol between the fleet coordinator and its workers.
//
// Every message is one framed (common/framing.h) JSON object in the same
// restricted dialect as the campaign journal (campaign/jsonval.h), tagged
// by its "event" key. Outcome messages ARE journal "done" lines verbatim
// (encodeDone/decodeLine): a worker appends the identical bytes to its
// shard before sending the frame, which is what makes shard-merge resume a
// pure re-read of the same data the coordinator saw live.
//
//   worker -> coordinator: hello, heartbeat, done (outcome)
//   coordinator -> worker: welcome, assign, shutdown
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "avd/hyperspace.h"
#include "campaign/journal.h"

namespace avd::campaign::fleet {

inline constexpr std::uint64_t kProtocolVersion = 1;

enum class MessageKind {
  kHello,
  kWelcome,
  kAssign,
  kOutcome,  // a journal "done" line; decode with campaign::decodeLine
  kHeartbeat,
  kShutdown,
  kUnknown,
};

/// Classifies a frame payload by its "event" tag. kUnknown for anything
/// unparseable — the peer is desynchronized or corrupt.
[[nodiscard]] MessageKind kindOf(std::string_view payload);

/// First frame a worker sends after connecting. The coordinator closes a
/// connecting worker whose first frame is anything else, or whose version
/// is not kProtocolVersion.
struct Hello {
  std::uint64_t version = kProtocolVersion;
};

/// Coordinator's reply to hello: everything the worker needs to build its
/// executor and open its shard. `outDir` empty = in-memory campaign, no
/// shard file.
struct Welcome {
  std::uint64_t slot = 0;
  std::uint64_t incarnation = 0;
  std::string system;
  std::uint64_t seed = 0;
  std::string outDir;
  std::uint64_t heartbeatMs = 200;
};

/// One scenario to execute. The worker needs only the point: outcomes are
/// pure functions of points, which is what makes crash-reassignment safe.
struct Assign {
  std::uint64_t test = 0;
  core::Point point;
};

std::string encodeHello(const Hello& hello);
std::string encodeWelcome(const Welcome& welcome);
std::string encodeAssign(const Assign& assign);
/// Liveness beacon and nothing else: the coordinator catches a wedged
/// scenario by its own assign-time deadline, and a dead worker by silence.
std::string encodeHeartbeat();
std::string encodeShutdown();

[[nodiscard]] std::optional<Hello> decodeHello(std::string_view payload);
[[nodiscard]] std::optional<Welcome> decodeWelcome(std::string_view payload);
[[nodiscard]] std::optional<Assign> decodeAssign(std::string_view payload);

}  // namespace avd::campaign::fleet
