// avd_lint phase 4 — whole-program effect inference.
//
// Phase 4 walks every function body in the phase-1 index and harvests its
// *leaf effect sites*: the intrinsic operations that touch the world
// outside the deterministic sandbox — wall clocks (`std::chrono::
// system_clock`, libc `time`), ambient randomness (`std::random_device`,
// `rand`), filesystem and descriptor I/O (`::open`, `::write`,
// `std::filesystem`, `std::ofstream`), sockets (`::send`, `::poll`),
// process control (`::fork`, `::waitpid`, `std::signal`), and blocking
// waits (`sleep_for`, a blocking `::recv`, `thread::join`). A call-graph
// fixpoint (a quadratic worklist) then propagates those leaves into a
// per-function *total* effect set, with a witness chain (the call site
// that imported the effect plus the ultimate leaf) kept per effect bit for
// diagnostics.
//
// The rules that consume the inference live in lint.cpp:
//
//   R16 syscall-discipline    raw POSIX confined to the designated effect
//                             modules; interruptible calls check their
//                             result and retry EINTR
//   R17 durability-ordering   write -> fsync -> rename -> parent-dir
//                             fsync in journal/shard/checkpoint writers;
//                             shard-append before outcome-frame send
//   R18 blocking-under-lock   no blocking effect reachable from a call
//                             made while a mutex is held
//
// Detection is deliberately syntactic about *form*: a POSIX leaf must be
// spelled with global qualification (`::waitpid(...)`) — the repo's
// invariant idiom — so the simulator's own `send(to, msg)` message-plane
// members can never alias libc. `avd_lint --gen-effects` renders the
// inferred map as deterministic JSON (tools/lint/effects.json, gated by
// the `lint.effects` ctest exactly like the generated event taxonomy).
#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "index.h"

namespace avd::lint {

// The effect lattice: a bitmask ordered by set inclusion. Join is `|`,
// bottom is 0 (pure), and the fixpoint is monotone, so it terminates.
inline constexpr unsigned kEffectTime = 1u << 0;   // wall-clock time
inline constexpr unsigned kEffectRng = 1u << 1;    // ambient randomness
inline constexpr unsigned kEffectFs = 1u << 2;     // filesystem / fd I/O
inline constexpr unsigned kEffectNet = 1u << 3;    // sockets / network
inline constexpr unsigned kEffectProc = 1u << 4;   // process control
inline constexpr unsigned kEffectBlock = 1u << 5;  // blocking wait
inline constexpr std::size_t kEffectCount = 6;

/// Canonical short name of one effect bit ("time", "rng", ...).
const char* effectName(std::size_t bitIndex);

/// Comma-joined names of every set bit ("fs,net"); "pure" for 0.
std::string effectSetNames(unsigned mask);

/// One intrinsic effect site inside a function body.
struct LeafSite {
  std::string name;            // as spelled: "waitpid", "system_clock", ...
  std::size_t tokenIndex = 0;
  std::size_t line = 0;
  unsigned effects = 0;
  bool posix = false;          // `::`-qualified POSIX intrinsic (R16 scope)
  bool interruptible = false;  // must check its result and retry EINTR
  bool discarded = false;      // call result dropped at statement level
};

/// True when the call at token `i` is spelled with global qualification
/// (`::name(...)`): it targets the C namespace, i.e. it *is* a leaf
/// intrinsic, and must never resolve to an indexed definition — the
/// simulator's `send(to, msg)` message plane shares names with libc.
bool globalCallForm(const std::vector<Token>& toks, std::size_t i);

/// Harvests every leaf effect site of one function.
std::vector<LeafSite> harvestLeafSites(const FileIndex& file,
                                       const FunctionInfo& fn);

/// Why a function carries an effect bit: the line (in the function's own
/// file) where the effect enters, the callee that imported it ("" for a
/// direct leaf), and the ultimate leaf intrinsic at the end of the chain.
struct EffectWitness {
  std::size_t line = 0;
  std::string via;   // callee name, empty when the leaf is in this body
  std::string root;  // e.g. "'::waitpid' (src/common/proc.cpp:74)"
};

struct FunctionEffects {
  unsigned direct = 0;  // leaves in this body
  unsigned total = 0;   // direct | union of callees' totals (fixpoint)
  std::array<EffectWitness, kEffectCount> witness;  // per set bit of total
};

/// Whole-repo effect map, parallel to a flattening of
/// `index.files[f].functions[g]` in index order.
struct EffectIndex {
  std::vector<std::pair<std::size_t, std::size_t>> flat;  // (file, fn)
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> flatIndex;
  std::vector<FunctionEffects> fn;
};

/// The modules allowed to contain raw POSIX calls (R16); everything else
/// must route the effect through one of them.
bool designatedEffectModule(const std::string& path);

/// Phase 4 entry point: harvest leaves, run the call-graph fixpoint.
/// Functions defined under common/rng are the sanctioned randomness
/// boundary: their effects are masked to pure so a seeded draw does not
/// count as ambient rng in callers.
EffectIndex inferEffects(const RepoIndex& index);

/// Renders the inferred map as deterministic JSON: every function with a
/// non-empty total effect set, keyed and sorted by (file, name), with no
/// line numbers. Same effects, same bytes, wherever the functions sit — the
/// `lint.effects` gate diffs this against the checked-in
/// tools/lint/effects.json.
std::string generateEffectsJson(const RepoIndex& index,
                                const EffectIndex& effects);

}  // namespace avd::lint
