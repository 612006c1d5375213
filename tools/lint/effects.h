// avd_lint phase 4 — leaf harvest.
//
// Phase 4 walks one function body in the phase-1 index and harvests its
// *leaf sites*: the intrinsic operations that reach outside the process —
// raw POSIX calls (`::open`, `::send`, `::waitpid`, `std::signal`) — and
// the blocking waits (`sleep_for`, `thread::join`, a blocking `::recv`).
// There is no call graph: a leaf is judged where it is spelled, and no
// call is resolved to a definition by its bare name.
//
// The rules that read the harvest live in lint.cpp:
//
//   R16 syscall-discipline    raw POSIX confined to the designated effect
//                             modules; interruptible calls check their
//                             result and retry EINTR
//   R18 blocking-under-lock   no blocking leaf inside the scope of a held
//                             lock guard
//
// Detection is deliberately syntactic about *form*: a POSIX leaf must be
// spelled with global qualification (`::waitpid(...)`) — the repo's
// invariant idiom — so the simulator's own `send(to, msg)` message-plane
// members can never alias libc.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "index.h"

namespace avd::lint {

/// One intrinsic leaf site inside a function body.
struct LeafSite {
  std::string name;            // as spelled: "waitpid", "sleep_for", ...
  std::size_t tokenIndex = 0;
  std::size_t line = 0;
  bool posix = false;          // `::`-qualified POSIX intrinsic (R16 scope)
  bool interruptible = false;  // must check its result and retry EINTR
  bool discarded = false;      // call result dropped at statement level
  bool blocking = false;       // parks the thread until the world answers
};

/// Harvests every leaf site of one function.
std::vector<LeafSite> harvestLeafSites(const FileIndex& file,
                                       const FunctionInfo& fn);

/// The modules allowed to contain raw POSIX calls (R16); everything else
/// must route the effect through one of them.
bool designatedEffectModule(const std::string& path);

}  // namespace avd::lint
