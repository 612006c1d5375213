// avd_lint phase 3 — static protocol-model extraction.
//
// Phase 3 walks the phase-1 semantic index over the protocol sources
// (`src/pbft/` + `src/sim/`) and reconstructs the protocol model the
// model rules (R13, R14) and the event-taxonomy generator read:
//
//   - the message-kind enum (`MsgKind`) with enumerator values,
//   - every quorum-threshold comparison normalized to a linear `a*f + b`
//     form (resolving `quorum()`-style named definitions), and
//   - every protocol transition (view change, checkpoint, state transfer,
//     park/unpark, quota drop, ingress overflow, crash/rejoin) with the
//     runtime counter emission sites that observe it.
//
// The same model drives the generated runtime event taxonomy
// (`src/avd/gen/protocol_events.h`, via `avd_lint --gen-events`): the
// coverage map key space for ROADMAP item 2 is derived mechanically from
// the sources instead of being hand-maintained in three places.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "index.h"

namespace avd::lint {

/// A quorum-threshold expression adjacent to a comparison, normalized to
/// `a*f + b` (e.g. `2*f+1` -> {2,1}, `config_.quorum()` resolved through
/// its definition).
struct QuorumSite {
  int a = 0;
  int b = 0;
  bool fromNamedDefinition = false;  // resolved via a quorum() call
  std::string spelling;              // as written, for diagnostics
  std::string function;              // qualified enclosing function
  std::string file;
  std::size_t line = 0;
};

/// A count-vs-integer-literal comparison in protocol code (a candidate
/// magic-number quorum).
struct MagicQuorumSite {
  std::string counted;  // the vote-count identifier being compared
  long long literal = 0;
  std::string file;
  std::size_t line = 0;
};

/// A runtime counter write (`++x`, `x++`, `x += ...`, `x = ...`) whose
/// identifier matches a transition's counter pattern.
struct EmissionSite {
  std::string counter;  // the matched identifier
  std::string file;
  std::size_t line = 0;
};

/// A model-extracted protocol transition: the trigger function exists in
/// the indexed sources; `emissions` holds every counter write observing it.
struct Transition {
  std::string name;        // e.g. "state-transfer"
  std::string enumName;    // generated-event enumerator, e.g. "kStateTransfer"
  std::string counter;     // canonical runtime counter name
  std::string function;    // qualified trigger function
  std::string file;
  std::size_t line = 0;
  std::vector<EmissionSite> emissions;
};

struct ProtocolModel {
  /// Name of the message-kind enum ("" when no protocol sources are in
  /// the file set — every rule over the model is then vacuous).
  std::string kindEnum;
  std::string kindEnumFile;
  /// Enumerators in declaration order with their values.
  std::vector<std::string> kinds;
  std::map<std::string, std::uint32_t> kindValues;
  std::vector<QuorumSite> quorums;
  std::vector<MagicQuorumSite> magicQuorums;
  /// Linear forms of quorum-named definitions (e.g. quorum() -> {2,1}).
  std::vector<std::pair<int, int>> namedQuorumForms;
  std::vector<Transition> transitions;
};

/// True for files the protocol model is extracted from.
bool inModelScope(const std::string& path);

/// Extracts the protocol model from the phase-1 index. Files outside the
/// model scope (neither `pbft/` nor `sim/` in the path) are ignored.
ProtocolModel extractModel(const RepoIndex& index);

/// Renders the generated runtime event taxonomy header
/// (`src/avd/gen/protocol_events.h`) from the model. Deterministic: same
/// sources, same bytes.
std::string generateEventsHeader(const ProtocolModel& model);

}  // namespace avd::lint
