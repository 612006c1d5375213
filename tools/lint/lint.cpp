#include "lint.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>

#include "effects.h"
#include "index.h"
#include "lexer.h"
#include "model.h"

namespace avd::lint {
namespace {

struct Ctx {
  const std::string& path;
  const std::vector<Token>& toks;
  std::vector<Finding>& findings;

  void report(std::size_t tokenIndex, std::string rule, std::string message) {
    findings.push_back({path, toks[tokenIndex].line, std::move(rule),
                        std::move(message), false});
  }
};

// ---------------------------------------------------------------------------
// R1 `nondeterminism` — consensus and controller paths must be replayable
// from an explicit seed; wall clocks and libc RNGs make a scenario
// irreproducible. common/rng is the one sanctioned randomness source.

void ruleNondeterminism(Ctx& ctx) {
  if (ctx.path.find("common/rng") != std::string::npos) return;
  static const std::set<std::string> kBannedCalls = {
      "rand",    "srand",   "rand_r", "drand48", "lrand48",
      "mrand48", "random",  "time",   "clock",   "gettimeofday",
      "clock_gettime"};
  static const std::set<std::string> kBannedTypes = {
      "random_device", "system_clock", "steady_clock",
      "high_resolution_clock"};
  static const std::set<std::string> kStdish = {"std", "chrono"};
  const auto& toks = ctx.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!isIdent(toks, i)) continue;
    const std::string& name = toks[i].text;
    if (kBannedTypes.contains(name)) {
      if (plainOrQualifiedBy(toks, i, kStdish)) {
        ctx.report(i, "nondeterminism",
                   "'" + name +
                       "' is a nondeterministic source; draw from "
                       "common/rng (avd::util::Rng) instead");
      }
      continue;
    }
    if (kBannedCalls.contains(name) && text(toks, i + 1) == "(" &&
        plainOrQualifiedBy(toks, i, kStdish)) {
      ctx.report(i, "nondeterminism",
                 "call to '" + name +
                     "' makes this path nondeterministic; use the seeded "
                     "avd::util::Rng from common/rng");
    }
  }
}

// ---------------------------------------------------------------------------
// R2 `unchecked-parse` — parse results must be impossible to ignore. Two
// checks:
//   (a) any function declaration returning std::optional must carry
//       [[nodiscard]] (declaration-site enforcement);
//   (b) a statement that calls a ByteReader accessor and drops the result
//       (`reader.u32();`) silently desynchronizes the cursor.

const std::set<std::string>& readerAccessors() {
  static const std::set<std::string> kAccessors = {
      "u8", "u16", "u32", "u64", "i64", "blob", "str"};
  return kAccessors;
}

/// Whether `nodiscard` appears between the previous declaration boundary
/// and token `i` (exclusive). Boundaries: ; { } ) — enough to isolate the
/// specifier/attribute run in front of a return type.
bool nodiscardBefore(const std::vector<Token>& toks, std::size_t i) {
  while (i-- > 0) {
    const std::string& t = toks[i].text;
    if (t == ";" || t == "{" || t == "}" || t == ")") return false;
    if (t == "nodiscard") return true;
  }
  return false;
}

void ruleUncheckedParse(Ctx& ctx) {
  const auto& toks = ctx.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!isIdent(toks, i)) continue;
    const std::string& name = toks[i].text;

    // (a) std::optional<...> funcName( ... — declaration without nodiscard.
    if (name == "optional" && text(toks, i + 1) == "<") {
      const std::size_t afterArgs = skipBalanced(toks, i + 1, "<", ">");
      // Unqualified declarator name only: out-of-line definitions
      // (`std::optional<T> Class::fn()`) inherit from their declaration.
      if (isIdent(toks, afterArgs) && text(toks, afterArgs + 1) == "(" &&
          !nodiscardBefore(toks, i)) {
        ctx.report(afterArgs, "unchecked-parse",
                   "function '" + toks[afterArgs].text +
                       "' returns std::optional but is not [[nodiscard]]; "
                       "a dropped parse result hides truncation");
      }
      continue;
    }

    // (b) `<reader-ish>.u32();` as a full statement discards the result and
    // still advances the read cursor.
    if (readerAccessors().contains(name) && i >= 2 &&
        (text(toks, i - 1) == "." || text(toks, i - 1) == "->") &&
        isIdent(toks, i - 2) &&
        lowered(toks[i - 2].text).find("reader") != std::string::npos &&
        text(toks, i + 1) == "(") {
      const std::string& stmtPrev =
          i >= 3 ? toks[i - 3].text : kEmptyTokenText;
      const bool statementStart = i < 3 || stmtPrev == ";" ||
                                  stmtPrev == "{" || stmtPrev == "}" ||
                                  stmtPrev == ")";
      const std::size_t afterCall = skipBalanced(toks, i + 1, "(", ")");
      if (statementStart && text(toks, afterCall) == ";") {
        ctx.report(i, "unchecked-parse",
                   "result of " + toks[i - 2].text + "." + name +
                       "() is discarded; every ByteReader read must be "
                       "checked before use");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R3 `uncapped-reserve` — reserve()/resize() fed by a value parsed off the
// wire (a dereferenced optional) is an attacker-controlled allocation. The
// expression must clamp with a compile-time `kFoo` cap constant
// (e.g. `reserve(std::min<std::size_t>(*count, kWireReserveCap))`).

void ruleUncappedReserve(Ctx& ctx) {
  const auto& toks = ctx.toks;
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (!isIdent(toks, i)) continue;
    const std::string& name = toks[i].text;
    if (name != "reserve" && name != "resize") continue;
    const std::string& prev = toks[i - 1].text;
    if (prev != "." && prev != "->") continue;
    if (text(toks, i + 1) != "(") continue;
    const std::size_t end = skipBalanced(toks, i + 1, "(", ")");

    bool derefArg = false;
    bool hasCap = false;
    for (std::size_t j = i + 2; j + 1 < end; ++j) {
      const std::string& t = toks[j].text;
      if (toks[j].kind == TokKind::kIdent && isCapConstant(t)) hasCap = true;
      if (t == "*" && isIdent(toks, j + 1)) {
        // Unary deref iff no value expression ends right before the `*`.
        const std::string& before = toks[j - 1].text;
        const bool binary = toks[j - 1].kind == TokKind::kIdent ||
                            toks[j - 1].kind == TokKind::kNumber ||
                            before == ")" || before == "]";
        if (!binary) derefArg = true;
      }
    }
    if (derefArg && !hasCap) {
      ctx.report(i, "uncapped-reserve",
                 "reserve/resize sized by a parsed wire count without a "
                 "compile-time cap constant; clamp with std::min(..., kCap) "
                 "before allocating");
    }
  }
}

// ---------------------------------------------------------------------------
// R4 `naked-lock` — manual mutex lock()/unlock() cannot survive exceptions
// or early returns; scoped RAII guards (lock_guard / unique_lock /
// scoped_lock) are mandatory.

void ruleNakedLock(Ctx& ctx) {
  const auto& toks = ctx.toks;
  static const std::set<std::string> kLockCalls = {"lock", "unlock",
                                                   "try_lock"};
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!isIdent(toks, i)) continue;
    const std::string receiver = lowered(toks[i].text);
    if (receiver.find("mutex") == std::string::npos &&
        receiver.find("mtx") == std::string::npos) {
      continue;
    }
    // Member form `mutex_.lock()` or accessor form `mtx().lock()`.
    std::size_t dot = i + 1;
    if (text(toks, dot) == "(" && text(toks, dot + 1) == ")") dot += 2;
    if (text(toks, dot) != "." && text(toks, dot) != "->") continue;
    if (!kLockCalls.contains(text(toks, dot + 1))) continue;
    if (text(toks, dot + 2) != "(") continue;
    ctx.report(dot + 1, "naked-lock",
               "naked " + toks[i].text + "." + toks[dot + 1].text +
                   "(); use std::lock_guard/std::unique_lock so the mutex "
                   "is released on every path");
  }
}

// ---------------------------------------------------------------------------
// R5 `unordered-iter` — replica and controller decision loops must not
// iterate hash containers: iteration order varies across standard library
// implementations, which silently breaks run-for-run replay of consensus
// decisions. Declarations are harvested across the whole file set so a
// member declared in replica.h is tracked inside replica.cpp.

bool unorderedIterScope(const std::string& path) {
  return pathEndsWith(path, "pbft/replica.cpp") ||
         pathEndsWith(path, "avd/controller.cpp") ||
         pathEndsWith(path, "campaign/runner.cpp") ||
         pathEndsWith(path, "campaign/ledger.cpp") ||
         pathEndsWith(path, "campaign/dedup.cpp") ||
         pathEndsWith(path, "campaign/fleet/coordinator.cpp") ||
         pathEndsWith(path, "campaign/fleet/shard.cpp") ||
         pathEndsWith(path, "campaign/fleet/worker.cpp") ||
         pathEndsWith(path, "faultinject/churn.cpp") ||
         pathEndsWith(path, "faultinject/flood.cpp") ||
         pathEndsWith(path, "faultinject/twins.cpp") ||
         pathEndsWith(path, "sim/network.cpp");
}

bool unorderedDeclScope(const std::string& path) {
  return unorderedIterScope(path) || pathEndsWith(path, "pbft/replica.h") ||
         pathEndsWith(path, "pbft/stable_storage.h") ||
         pathEndsWith(path, "avd/controller.h") ||
         pathEndsWith(path, "campaign/runner.h") ||
         pathEndsWith(path, "campaign/ledger.h") ||
         pathEndsWith(path, "campaign/dedup.h") ||
         pathEndsWith(path, "campaign/fleet/coordinator.h") ||
         pathEndsWith(path, "campaign/fleet/shard.h") ||
         pathEndsWith(path, "faultinject/churn.h") ||
         pathEndsWith(path, "faultinject/flood.h") ||
         pathEndsWith(path, "faultinject/twins.h") ||
         pathEndsWith(path, "sim/network.h");
}

void ruleUnorderedIter(Ctx& ctx, const std::set<std::string>& unordered) {
  if (!unorderedIterScope(ctx.path) || unordered.empty()) return;
  const auto& toks = ctx.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // Range-for whose range expression names an unordered container.
    if (isIdent(toks, i) && toks[i].text == "for" &&
        text(toks, i + 1) == "(") {
      const std::size_t end = skipBalanced(toks, i + 1, "(", ")");
      std::size_t depth = 0;
      std::size_t colon = 0;
      for (std::size_t j = i + 1; j < end; ++j) {
        if (toks[j].text == "(") ++depth;
        if (toks[j].text == ")") --depth;
        if (toks[j].text == ":" && depth == 1) {
          colon = j;
          break;
        }
      }
      if (colon != 0) {
        for (std::size_t j = colon + 1; j + 1 < end; ++j) {
          if (isIdent(toks, j) && unordered.contains(toks[j].text)) {
            ctx.report(j, "unordered-iter",
                       "iteration over hash container '" + toks[j].text +
                           "' in an ordering-sensitive path; use std::map / "
                           "std::set or sort the keys first");
            break;
          }
        }
      }
      continue;
    }
    // Explicit iterator walk: container.begin() / cbegin() / rbegin().
    if (isIdent(toks, i) && unordered.contains(toks[i].text) &&
        (text(toks, i + 1) == "." || text(toks, i + 1) == "->")) {
      const std::string& member = text(toks, i + 2);
      if ((member == "begin" || member == "cbegin" || member == "rbegin") &&
          text(toks, i + 3) == "(") {
        ctx.report(i, "unordered-iter",
                   "iterator walk over hash container '" + toks[i].text +
                       "' in an ordering-sensitive path; iteration order is "
                       "implementation-defined");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R6 `detached-thread` — a detached thread outlives every join point, so
// campaign shutdown, sanitizer reports, and test teardown race against it.
// Every thread in this repo must be owned by something that joins it (a
// joining destructor, as in campaign/fleet/thread_fleet, or std::jthread);
// `.detach()` is banned repo-wide.

void ruleDetachedThread(Ctx& ctx) {
  const auto& toks = ctx.toks;
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (!isIdent(toks, i) || toks[i].text != "detach") continue;
    const std::string& prev = toks[i - 1].text;
    if (prev != "." && prev != "->") continue;
    if (text(toks, i + 1) != "(") continue;
    ctx.report(i, "detached-thread",
               "thread detach() abandons the join point; own the thread by "
               "something that joins it (a joining destructor, as in "
               "campaign/fleet/thread_fleet, or std::jthread) so shutdown "
               "can wait for it");
  }
}

// ---------------------------------------------------------------------------
// R9 `tainted-size` — intra-procedural dataflow from ByteReader length/count
// reads to resize/reserve arguments and loop bounds. A length read off the
// wire is attacker-controlled; before it sizes an allocation or bounds a
// loop it must pass through an expression that clamps it against a named
// `k*Cap` constant or validates it against `remaining()`. The analysis is a
// linear statement scan: assignment propagates taint, a clamping statement
// sanitizes every tainted variable it mentions.

const std::set<std::string>& sizeAccessors() {
  static const std::set<std::string> kSizeAccessors = {"u8", "u16", "u32",
                                                       "u64", "i64"};
  return kSizeAccessors;
}

struct TaintScan {
  const FileIndex& file;
  const FunctionInfo& fn;
  std::vector<Finding>& out;
  std::set<std::string> tainted;    // unsanitized wire-derived sizes
  std::set<std::string> sanitized;  // clamped at least once

  const std::vector<Token>& toks() const { return file.tokens; }

  /// Index of the assignment `=` in [begin, end) at paren depth 0, or 0.
  /// Comparison/compound operators (`==`, `!=`, `<=`, `>=`, `+=`...) are
  /// excluded by inspecting the neighboring tokens.
  std::size_t findAssign(std::size_t begin, std::size_t end) const {
    std::size_t depth = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::string& t = toks()[i].text;
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") --depth;
      if (t != "=" || depth != 0) continue;
      const std::string& prev = i > begin ? toks()[i - 1].text : kEmptyTokenText;
      const std::string& next = text(toks(), i + 1);
      if (prev == "=" || prev == "!" || prev == "<" || prev == ">") continue;
      if (next == "=") continue;
      return i;
    }
    return 0;
  }

  bool containsSanitizer(std::size_t begin, std::size_t end) const {
    for (std::size_t i = begin; i < end; ++i) {
      if (toks()[i].kind != TokKind::kIdent) continue;
      if (isCapConstant(toks()[i].text)) return true;
      if (toks()[i].text == "remaining" && text(toks(), i + 1) == "(") {
        return true;
      }
    }
    return false;
  }

  std::vector<std::string> taintedIn(std::size_t begin,
                                     std::size_t end) const {
    std::vector<std::string> found;
    for (std::size_t i = begin; i < end; ++i) {
      if (toks()[i].kind == TokKind::kIdent &&
          tainted.contains(toks()[i].text)) {
        found.push_back(toks()[i].text);
      }
    }
    return found;
  }

  /// `name = <reader>.u32()`-shaped source in [begin, end): returns the
  /// bound variable, or "" when no size read (or no binding) is present.
  std::string sourceBinding(std::size_t begin, std::size_t end) const {
    for (std::size_t i = begin + 2; i < end; ++i) {
      if (toks()[i].kind != TokKind::kIdent ||
          !sizeAccessors().contains(toks()[i].text)) {
        continue;
      }
      if (text(toks(), i + 1) != "(") continue;
      const std::string& sep = toks()[i - 1].text;
      if (sep != "." && sep != "->") continue;
      if (!isIdent(toks(), i - 2) ||
          lowered(toks()[i - 2].text).find("reader") == std::string::npos) {
        continue;
      }
      const std::size_t eq = findAssign(begin, end);
      if (eq > begin && eq < i && isIdent(toks(), eq - 1)) {
        return toks()[eq - 1].text;
      }
      return {};
    }
    return {};
  }

  void report(std::size_t line, const std::string& var,
              const std::string& use) {
    out.push_back(
        {file.path, line, "tainted-size",
         "'" + var + "' in " + fn.qualified +
             " derives from a ByteReader length read and reaches a " + use +
             " without a clamp; bound it with std::min(..., k*Cap) or "
             "validate against remaining() first"});
  }

  /// One statement (or extracted loop condition when `isBound`).
  void statement(std::size_t begin, std::size_t end, bool isBound) {
    if (begin >= end) return;
    const std::string bound = sourceBinding(begin, end);
    if (!bound.empty()) {
      if (containsSanitizer(begin, end)) {
        sanitized.insert(bound);
        tainted.erase(bound);
      } else {
        tainted.insert(bound);
        sanitized.erase(bound);
      }
      return;
    }
    const std::vector<std::string> vars = taintedIn(begin, end);
    if (vars.empty()) {
      // A plain re-assignment from untainted data clears older taint.
      const std::size_t eq = findAssign(begin, end);
      if (eq > begin && isIdent(toks(), eq - 1)) {
        tainted.erase(toks()[eq - 1].text);
      }
      return;
    }
    if (containsSanitizer(begin, end)) {
      for (const std::string& v : vars) {
        sanitized.insert(v);
        tainted.erase(v);
      }
      return;
    }
    if (isBound) {
      report(toks()[begin].line, vars.front(), "loop bound");
      return;
    }
    // Allocation sink: .reserve( / .resize( with a tainted var in the args.
    for (std::size_t i = begin + 1; i < end; ++i) {
      const std::string& t = toks()[i].text;
      if ((t != "reserve" && t != "resize") ||
          (toks()[i - 1].text != "." && toks()[i - 1].text != "->") ||
          text(toks(), i + 1) != "(") {
        continue;
      }
      const std::size_t argsEnd = skipBalanced(toks(), i + 1, "(", ")");
      const auto inArgs = taintedIn(i + 2, argsEnd > 0 ? argsEnd - 1 : i + 2);
      if (!inArgs.empty()) {
        report(toks()[i].line, inArgs.front(), t + "() size");
        return;
      }
    }
    // Assignment propagation: lhs inherits the rhs taint.
    const std::size_t eq = findAssign(begin, end);
    if (eq > begin && isIdent(toks(), eq - 1) &&
        !taintedIn(eq + 1, end).empty()) {
      tainted.insert(toks()[eq - 1].text);
      sanitized.erase(toks()[eq - 1].text);
    }
  }

  void run() {
    const std::size_t bodyEnd = fn.bodyEnd > 0 ? fn.bodyEnd - 1 : 0;
    std::size_t stmtStart = fn.bodyBegin + 1;
    std::size_t i = stmtStart;
    while (i < bodyEnd) {
      const std::string& t = toks()[i].text;
      if ((t == "for" || t == "while") && text(toks(), i + 1) == "(") {
        statement(stmtStart, i, false);
        const std::size_t headerEnd = skipBalanced(toks(), i + 1, "(", ")");
        // Condition = between the first and second top-level `;` of a
        // classic for; the whole header for while / range-for.
        std::size_t condBegin = i + 2;
        std::size_t condEnd = headerEnd > 0 ? headerEnd - 1 : i + 2;
        if (t == "for") {
          std::size_t depth = 0;
          std::vector<std::size_t> semis;
          for (std::size_t j = i + 2; j < condEnd; ++j) {
            const std::string& h = toks()[j].text;
            if (h == "(" || h == "[" || h == "{") ++depth;
            if (h == ")" || h == "]" || h == "}") --depth;
            if (h == ";" && depth == 0) semis.push_back(j);
          }
          if (semis.size() >= 2) {
            // The init clause is an ordinary statement (may bind taint).
            statement(i + 2, semis[0], false);
            condBegin = semis[0] + 1;
            condEnd = semis[1];
          }
        }
        statement(condBegin, condEnd, true);
        stmtStart = headerEnd;
        i = headerEnd;
        continue;
      }
      if (t == ";" || t == "{" || t == "}") {
        statement(stmtStart, i, false);
        stmtStart = i + 1;
      }
      ++i;
    }
    statement(stmtStart, bodyEnd, false);
  }
};

void ruleTaintedSize(const RepoIndex& index,
                     std::map<std::string, std::vector<Finding>>& byFile) {
  for (const FileIndex& file : index.files) {
    for (const FunctionInfo& fn : file.functions) {
      TaintScan scan{file, fn, byFile[file.path], {}, {}};
      scan.run();
    }
  }
}

// ---------------------------------------------------------------------------
// R13 `quorum-consistency` — every quorum-threshold comparison must
// normalize to a canonical certificate formula: the forms returned by the
// quorum-named helpers (2f+1 in this codebase) plus the PBFT weak
// certificate f+1 and the prepared-predicate 2f (self + 2f matching).
// A vote count compared against a bare integer literal is flagged as a
// magic-number quorum: it silently stops scaling when f changes.

void ruleQuorumConsistency(const ProtocolModel& model,
                           std::map<std::string, std::vector<Finding>>& byFile) {
  std::set<std::pair<int, int>> canonical(model.namedQuorumForms.begin(),
                                          model.namedQuorumForms.end());
  canonical.insert({2, 1});  // strong certificate 2f+1
  canonical.insert({1, 1});  // weak certificate f+1
  canonical.insert({2, 0});  // prepared: self + 2f matching

  const auto formula = [](int a, int b) {
    std::string s = a == 1 ? "f" : std::to_string(a) + "f";
    if (b != 0) {
      s += '+';
      s += std::to_string(b);
    }
    return s;
  };

  for (const QuorumSite& site : model.quorums) {
    if (canonical.contains({site.a, site.b})) continue;
    byFile[site.file].push_back(
        {site.file, site.line, "quorum-consistency",
         "threshold '" + site.spelling + "' in " + site.function +
             " normalizes to " + formula(site.a, site.b) +
             ", which matches no canonical certificate formula (2f+1 strong, "
             "2f prepared, f+1 weak); inconsistent thresholds split the "
             "certificate"});
  }
  for (const MagicQuorumSite& site : model.magicQuorums) {
    byFile[site.file].push_back(
        {site.file, site.line, "quorum-consistency",
         "vote count '" + site.counted + "' is compared against the magic "
         "number " + std::to_string(site.literal) +
             "; spell the quorum as a function of f (e.g. config.quorum()) "
             "so it scales with the replica set"});
  }
}

// ---------------------------------------------------------------------------
// R14 `event-coverage` — every model-extracted protocol transition must
// have at least one runtime counter emission site (an increment of a
// counter whose name matches the transition). Coverage-guided exploration
// keys off these counters; a transition that fires without incrementing
// anything is invisible to the search and its instrumentation has rotted.

void ruleEventCoverage(const ProtocolModel& model,
                       std::map<std::string, std::vector<Finding>>& byFile) {
  for (const Transition& transition : model.transitions) {
    if (!transition.emissions.empty()) continue;
    byFile[transition.file].push_back(
        {transition.file, transition.line, "event-coverage",
         "protocol transition '" + transition.name + "' (" +
             transition.function +
             ") has no runtime counter emission; increment a counter such "
             "as " + transition.counter +
             " where the transition completes so coverage-guided search can "
             "observe it"});
  }
}

// ---------------------------------------------------------------------------
// R10 `stale-suppression` — every `avd-lint allow(rule)` directive must
// still suppress at least one finding of that rule on its covered lines.
// A stale directive is worse than none: it documents a defect that no
// longer exists and silently swallows the next real one. Like
// bad-suppression, R10 findings are themselves unsuppressible.

void ruleStaleSuppression(const FileIndex& file,
                          const std::vector<Finding>& rawFindings,
                          std::vector<Finding>& out) {
  for (const Directive& directive : file.suppressions.directives) {
    for (const std::string& rule : directive.rules) {
      bool live = false;
      for (const Finding& finding : rawFindings) {
        if (finding.rule == "bad-suppression" ||
            finding.rule == "stale-suppression") {
          continue;
        }
        if (!directive.coveredLines.contains(finding.line)) continue;
        if (rule == "*" || finding.rule == rule) {
          live = true;
          break;
        }
      }
      if (!live) {
        out.push_back({file.path, directive.line, "stale-suppression",
                       "avd-lint allow(" + rule +
                           ") suppresses nothing here; remove the stale "
                           "directive so it cannot mask a future finding"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Phase 4 rules (R16-R18). R16 and R18 read the leaf harvest in
// effects.cpp; R17 scans its writers' bodies itself. Each reports into the
// file that owns the witness token, so every finding stays suppressible at
// its own line.

// R16 `syscall-discipline` — raw POSIX is an effect-module privilege, and
// interruptible syscalls must be written for the signal-rich world the
// fleet actually runs in: (a) a `::`-spelled POSIX call outside the
// designated modules is a boundary violation; (b) an interruptible call
// whose result is dropped, or whose enclosing body never mentions EINTR,
// turns every mid-call signal into silent corruption or a spurious
// failure.

void ruleSyscallDiscipline(const RepoIndex& index,
                           std::map<std::string, std::vector<Finding>>& byFile) {
  for (const FileIndex& file : index.files) {
    const bool designated = designatedEffectModule(file.path);
    for (const FunctionInfo& fn : file.functions) {
      const std::vector<LeafSite> leaves = harvestLeafSites(file, fn);
      bool bodyMentionsEintr = false;
      for (std::size_t i = fn.bodyBegin;
           i < fn.bodyEnd && i < file.tokens.size(); ++i) {
        if (isIdent(file.tokens, i) && file.tokens[i].text == "EINTR") {
          bodyMentionsEintr = true;
          break;
        }
      }
      for (const LeafSite& leaf : leaves) {
        if (!leaf.posix) continue;
        if (!designated) {
          byFile[file.path].push_back(
              {file.path, leaf.line, "syscall-discipline",
               "raw POSIX call '" + leaf.name +
                   "' outside the designated effect modules; route it "
                   "through common/framing, common/proc, "
                   "campaign/journal, or campaign/fleet/shard",
               false});
        }
        if (!leaf.interruptible) continue;
        if (leaf.discarded) {
          byFile[file.path].push_back(
              {file.path, leaf.line, "syscall-discipline",
               "result of interruptible '" + leaf.name +
                   "' is discarded; bind it, check for failure, and retry "
                   "on EINTR",
               false});
        } else if (!bodyMentionsEintr) {
          byFile[file.path].push_back(
              {file.path, leaf.line, "syscall-discipline",
               "interruptible '" + leaf.name + "' in '" + fn.qualified +
                   "' has no EINTR handling; a signal mid-call surfaces as "
                   "a spurious failure — loop while errno == EINTR",
               false});
        }
      }
    }
  }
}

// R17 `durability-ordering` — crash consistency is an ordering contract:
//   (a) in journal/shard/checkpoint writers, an atomic-publish rename needs
//       a durability barrier on both sides — fsync the file *before* the
//       rename (or the new name can expose un-durable bytes) and fsync the
//       parent directory *after* it (or the rename itself is not durable
//       and the "committed" file vanishes on power loss);
//   (b) in the fleet, an outcome frame must not be sent before the same
//       outcome is appended to the worker's shard — ack-before-persist
//       means a coordinator crash after the ack cannot re-fold the outcome
//       from the shard on --resume.

bool durabilityWriterPath(const std::string& path) {
  return path.find("journal") != std::string::npos ||
         path.find("shard") != std::string::npos ||
         path.find("checkpoint") != std::string::npos;
}

/// True when any identifier inside the call's argument list is `ident`.
bool callArgsContainIdent(const std::vector<Token>& toks, std::size_t i,
                          const std::string& ident) {
  if (text(toks, i + 1) != "(") return false;
  const std::size_t end = skipBalanced(toks, i + 1, "(", ")");
  for (std::size_t j = i + 2; j + 1 < end; ++j) {
    if (isIdent(toks, j) && toks[j].text == ident) return true;
  }
  return false;
}

void ruleDurabilityOrdering(
    const RepoIndex& index,
    std::map<std::string, std::vector<Finding>>& byFile) {
  for (const FileIndex& file : index.files) {
    const bool writer = durabilityWriterPath(file.path);
    const bool fleet = file.path.find("fleet") != std::string::npos;
    if (!writer && !fleet) continue;
    const std::vector<Token>& toks = file.tokens;
    for (const FunctionInfo& fn : file.functions) {
      if (writer) {
        std::vector<std::size_t> barriers;
        std::vector<std::size_t> renames;
        for (std::size_t i = fn.bodyBegin;
             i < fn.bodyEnd && i < toks.size(); ++i) {
          if (!isIdent(toks, i) || text(toks, i + 1) != "(") continue;
          const std::string& name = toks[i].text;
          const std::string& prev = i > 0 ? toks[i - 1].text : kEmptyTokenText;
          const bool member = prev == "." || prev == "->";
          if (member ? name == "sync"
                     : (lowered(name).find("fsync") != std::string::npos ||
                        name == "fdatasync")) {
            barriers.push_back(i);
          } else if (!member && (name == "rename" || name == "renameat")) {
            renames.push_back(i);
          }
        }
        for (std::size_t r : renames) {
          bool before = false;
          bool after = false;
          for (std::size_t b : barriers) {
            if (b < r) before = true;
            if (b > r) after = true;
          }
          if (!before) {
            byFile[file.path].push_back(
                {file.path, toks[r].line, "durability-ordering",
                 "rename without a preceding fsync: a crash can publish "
                 "the destination name with un-durable bytes — fsync the "
                 "file before renaming over the target",
                 false});
          }
          if (!after) {
            byFile[file.path].push_back(
                {file.path, toks[r].line, "durability-ordering",
                 "rename without a following parent-directory fsync: the "
                 "rename is not durable until the directory entry is "
                 "synced, so the published file can vanish after power "
                 "loss",
                 false});
          }
        }
      }
      if (fleet) {
        std::size_t firstPersist = SIZE_MAX;
        std::vector<std::size_t> sends;
        for (std::size_t i = fn.bodyBegin;
             i < fn.bodyEnd && i < toks.size(); ++i) {
          if (!isIdent(toks, i)) continue;
          const std::string& name = toks[i].text;
          if (name != "append" && name != "writeFrame") continue;
          if (!callArgsContainIdent(toks, i, "encodeDone")) continue;
          if (name == "append") {
            firstPersist = std::min(firstPersist, i);
          } else {
            sends.push_back(i);
          }
        }
        for (std::size_t s : sends) {
          if (firstPersist < s) continue;
          byFile[file.path].push_back(
              {file.path, toks[s].line, "durability-ordering",
               "outcome frame is sent before the shard append "
               "(ack-before-persist): a coordinator crash after this send "
               "cannot re-fold the outcome from the shard on --resume — "
               "append to the shard first",
               false});
        }
      }
    }
  }
}

// R18 `blocking-under-lock` — joins the phase-1 guard scopes with the leaf
// harvest: no blocking leaf (sleep, join, blocking syscall) may sit inside
// the scope of a held lock guard, because a blocked holder stalls every
// contender — and under the fleet's signal/kill schedule, possibly
// forever. A condition-variable wait is no leaf (it releases the lock
// while parked), so it stays legal. A call into another function is not
// followed: the index has no call graph to follow it by.

void ruleBlockingUnderLock(
    const RepoIndex& index,
    std::map<std::string, std::vector<Finding>>& byFile) {
  for (const FileIndex& file : index.files) {
    for (const FunctionInfo& fn : file.functions) {
      if (fn.locks.empty()) continue;
      for (const LeafSite& leaf : harvestLeafSites(file, fn)) {
        if (!leaf.blocking) continue;
        std::string held;
        std::set<std::string> seen;
        for (const LockSite& lock : fn.locks) {
          if (leaf.tokenIndex < lock.scopeBegin ||
              leaf.tokenIndex >= lock.scopeEnd ||
              !seen.insert(lock.mutexName).second) {
            continue;
          }
          if (!held.empty()) held += ", ";
          held += "'" + lock.mutexName + "'";
        }
        if (held.empty()) continue;
        byFile[file.path].push_back(
            {file.path, leaf.line, "blocking-under-lock",
             "'" + fn.qualified + "' blocks in '" + leaf.name +
                 "' while holding " + held +
                 "; a blocked holder stalls every contender — release the "
                 "lock before waiting",
             false});
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public interface

const std::vector<RuleInfo>& ruleRegistry() {
  static const std::vector<RuleInfo> kRules = {
      {"nondeterminism",
       "R1: no libc/chrono randomness or wall clocks outside common/rng; "
       "consensus paths must replay from a seed"},
      {"unchecked-parse",
       "R2: std::optional-returning functions are [[nodiscard]]; "
       "ByteReader results must not be dropped"},
      {"uncapped-reserve",
       "R3: no reserve()/resize() on a parsed wire count without a "
       "compile-time kCap clamp"},
      {"naked-lock",
       "R4: no manual mutex lock()/unlock(); RAII guards only"},
      {"unordered-iter",
       "R5: no hash-container iteration in the ordering-sensitive loops of "
       "pbft/replica.cpp, avd/controller.cpp, campaign/{runner,ledger}.cpp, "
       "campaign/dedup.cpp, campaign/fleet/{coordinator,shard,worker}.cpp, "
       "faultinject/churn.cpp, faultinject/flood.cpp, faultinject/twins.cpp, "
       "or sim/network.cpp"},
      {"detached-thread",
       "R6: no std::thread::detach(); every thread must have an owner "
       "that joins it"},
      {"tainted-size",
       "R9: a ByteReader length read must be clamped against a k*Cap "
       "constant or remaining() before sizing an allocation or bounding a "
       "loop"},
      {"quorum-consistency",
       "R13: quorum thresholds normalize to a canonical certificate formula "
       "(2f+1 / 2f / f+1); vote counts must not be compared against magic "
       "integer literals"},
      {"event-coverage",
       "R14: every model-extracted protocol transition (view change, "
       "checkpoint, state transfer, park/unpark, quota drop, ingress "
       "overflow, crash/rejoin) has a runtime counter emission site"},
      {"syscall-discipline",
       "R16: raw POSIX calls are confined to common/framing, common/proc, "
       "campaign/journal, and campaign/fleet/shard; every "
       "interruptible call checks its result and retries on EINTR"},
      {"durability-ordering",
       "R17: journal/shard/checkpoint writers order write -> fsync -> "
       "rename -> parent-dir fsync, and fleet workers append an outcome "
       "to their shard before sending the frame (no ack-before-persist)"},
      {"blocking-under-lock",
       "R18: no blocking call (sleep, join, blocking syscall) inside the "
       "scope of a held lock guard; condvar waits release the lock and "
       "stay legal"},
      {"stale-suppression",
       "R10: an avd-lint allow() directive that no longer suppresses a "
       "finding is itself an error"},
      {"bad-suppression",
       "meta: avd-lint allow() directives must name known rules"},
  };
  return kRules;
}

bool isKnownRule(std::string_view rule) {
  const auto& rules = ruleRegistry();
  return std::any_of(rules.begin(), rules.end(),
                     [&](const RuleInfo& info) { return info.id == rule; });
}

std::vector<Finding> lintFiles(const std::vector<SourceFile>& files,
                               const Options& options) {
  // Phase 1: repo-wide semantic index (lex + functions + guard scopes).
  RepoIndex index = buildIndex(files);

  // R5 harvests declarations only from its path scope.
  std::set<std::string> unorderedNames;
  for (const FileIndex& file : index.files) {
    if (unorderedDeclScope(file.path)) {
      unorderedNames.insert(file.unorderedDecls.begin(),
                            file.unorderedDecls.end());
    }
  }

  // Phase 2a: per-file token rules (R1-R6).
  std::map<std::string, std::vector<Finding>> byFile;
  for (const FileIndex& file : index.files) {
    std::vector<Finding>& local = byFile[file.path];
    Ctx ctx{file.path, file.tokens, local};
    ruleNondeterminism(ctx);
    ruleUncheckedParse(ctx);
    ruleUncappedReserve(ctx);
    ruleNakedLock(ctx);
    ruleUnorderedIter(ctx, unorderedNames);
    ruleDetachedThread(ctx);
  }

  // Phase 2b: cross-file index rule (R9).
  ruleTaintedSize(index, byFile);

  // Phase 3: protocol-model extraction and the model rules (R13, R14).
  // The model is empty when no pbft/sim sources are in the set, which
  // makes every phase-3 rule vacuous.
  const ProtocolModel model = extractModel(index);
  ruleQuorumConsistency(model, byFile);
  ruleEventCoverage(model, byFile);

  // Phase 4: the effect rules (R16-R18).
  ruleSyscallDiscipline(index, byFile);
  ruleDurabilityOrdering(index, byFile);
  ruleBlockingUnderLock(index, byFile);

  // Phase 2c: suppression audit (R10) over the pre-suppression findings,
  // then suppression application and directive errors.
  std::vector<Finding> findings;
  for (const FileIndex& file : index.files) {
    std::vector<Finding>& local = byFile[file.path];
    ruleStaleSuppression(file, local, local);

    const auto& allowed = file.suppressions.byLine;
    for (Finding& finding : local) {
      if (finding.rule == "stale-suppression") continue;  // unsuppressible
      if (const auto it = allowed.find(finding.line); it != allowed.end()) {
        finding.suppressed =
            it->second.contains("*") || it->second.contains(finding.rule);
      }
    }
    // Directive errors are never suppressible.
    local.insert(local.end(), file.suppressions.errors.begin(),
                 file.suppressions.errors.end());

    for (Finding& finding : local) {
      if (!finding.suppressed || options.includeSuppressed) {
        findings.push_back(std::move(finding));
      }
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  return findings;
}

std::vector<Finding> lintSource(std::string_view path, std::string_view text,
                                const Options& options) {
  return lintFiles({{std::string(path), std::string(text)}}, options);
}

std::string toJson(const std::vector<Finding>& findings) {
  const auto escape = [](const std::string& s) {
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            static constexpr char kHex[] = "0123456789abcdef";
            out += "\\u00";
            out.push_back(kHex[(c >> 4) & 0xF]);
            out.push_back(kHex[c & 0xF]);
          } else {
            out.push_back(c);
          }
      }
    }
    return out;
  };
  std::string json = "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i != 0) json += ",";
    json += "\n  {\"file\": \"" + escape(f.file) + "\", \"line\": " +
            std::to_string(f.line) + ", \"rule\": \"" + escape(f.rule) +
            "\", \"suppressed\": " + (f.suppressed ? "true" : "false") +
            ", \"message\": \"" + escape(f.message) + "\"}";
  }
  json += findings.empty() ? "]" : "\n]";
  json += "\n";
  return json;
}

std::size_t unsuppressedCount(const std::vector<Finding>& findings) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [](const Finding& f) { return !f.suppressed; }));
}

}  // namespace avd::lint
