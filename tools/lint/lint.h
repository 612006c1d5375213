// avd_lint — repo-specific static analysis for the AVD codebase.
//
// A deliberately small, dependency-free C++ analyzer. v4 is a five-phase
// engine: phase 0/1 (lexer.h / index.h) tokenizes every translation unit
// and builds a repo-wide semantic index (functions, mutexes, lock sites,
// call graph, ByteReader reads); phase 2 (this module) runs the
// token/index rule families; phase 3 (model.h) extracts the protocol model
// and checks quorum thresholds and event coverage; phase 4 (effects.h)
// runs a call-graph effect-inference fixpoint and checks the effect rules:
//
//   R1  nondeterminism        R2  unchecked-parse     R3  uncapped-reserve
//   R4  naked-lock            R5  unordered-iter      R6  detached-thread
//   R9  tainted-size          R13 quorum-consistency  R14 event-coverage
//   R16 syscall-discipline    R17 durability-ordering
//   R18 blocking-under-lock   R10 stale-suppression
//   (+ the bad-suppression meta rule)
//
// Rule ids keep their numbers; the gaps (R7, R8, R11, R12, R15) are rules
// whose bug classes TSan, ASan, -Wswitch, the wire tests, or R1 catch.
// The rule set is documented in docs/STATIC_ANALYSIS.md; each rule can be
// suppressed per line with an `avd-lint allow(naked-lock)` style comment
// naming the rule id (R10 then audits that every such directive still
// suppresses something).
//
// The analysis lives in a library so tests can seed violations through the
// same entry points the CLI uses (tools/lint/main.cpp).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace avd::lint {

/// One diagnostic produced by a rule.
struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;     // registry id, e.g. "nondeterminism"
  std::string message;  // human-readable explanation
  bool suppressed = false;
};

/// Static description of a rule, surfaced by `avd_lint --list-rules`.
struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

/// All rules this build knows about, in diagnostic order R1..R18 + meta.
const std::vector<RuleInfo>& ruleRegistry();

/// True iff `rule` names a registered rule (used to reject typos in
/// suppression comments — a misspelled allow() must not silently pass).
bool isKnownRule(std::string_view rule);

/// An in-memory source file. `path` drives the path-scoped rules
/// (e.g. the common/rng exemption for R1 and the R5 file scope), so tests
/// can pretend a fixture lives anywhere in the tree.
struct SourceFile {
  std::string path;
  std::string text;
};

struct Options {
  /// Report suppressed findings too (flagged `suppressed: true`).
  bool includeSuppressed = false;
};

/// Lints a set of files as one unit. Phase 1 indexes the whole set before
/// any rule runs, so cross-file facts (a mutex member declared in a header
/// and locked in a .cpp, a callee defined in another TU) are visible to
/// every rule.
std::vector<Finding> lintFiles(const std::vector<SourceFile>& files,
                               const Options& options = {});

/// Convenience wrapper for a single in-memory file.
std::vector<Finding> lintSource(std::string_view path, std::string_view text,
                                const Options& options = {});

/// Serializes findings as a JSON array (the machine-readable report).
std::string toJson(const std::vector<Finding>& findings);

/// Count of findings that are not suppressed.
std::size_t unsuppressedCount(const std::vector<Finding>& findings);

}  // namespace avd::lint
