// avd_lint phase 3 — protocol-model extraction (see model.h).
//
// Everything here is derived from the phase-1 index plus one more token
// walk per function body. The extraction is an over-approximation in the
// same spirit as phase 1: anything the model cannot see (a non-literal
// enumerator value, a threshold that is not linear in f) stays opaque
// rather than guessed at.
#include "model.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <set>

#include "lexer.h"

namespace avd::lint {
namespace {

/// The protocol-transition spec: the one authoritative list tying each
/// transition to its trigger function (matched by lowered-substring), its
/// canonical runtime counter, and the counter-identifier patterns R14
/// accepts as an emission site. The generated taxonomy's transition events
/// come from this table, filtered to triggers that exist in the sources.
struct TransitionSpec {
  const char* name;       // taxonomy name suffix, e.g. "state-transfer"
  const char* enumName;   // generated enumerator, e.g. "kStateTransfer"
  const char* trigger;    // lowered substring of the trigger function name
  const char* counter;    // canonical counter for the generated metadata
  std::vector<const char*> patterns;  // lowered substrings of emission idents
};

const std::vector<TransitionSpec>& transitionSpecs() {
  static const std::vector<TransitionSpec> kSpecs = {
      {"view-change", "kViewChange", "startviewchange",
       "ReplicaStats::viewChangesInitiated", {"viewchange"}},
      {"checkpoint", "kCheckpoint", "takecheckpoint",
       "ReplicaStats::checkpointsTaken", {"checkpoint"}},
      {"state-transfer", "kStateTransfer", "requeststatetransfer",
       "ReplicaStats::stateTransfersCompleted", {"statetransfer"}},
      {"park-unpark", "kParkUnpark", "retrypendingpreprepares",
       "ReplicaStats::prePreparesPended", {"prepreparespended", "parked"}},
      {"quota-drop", "kQuotaDrop", "admitrequest",
       "ReplicaStats::quotaDrops", {"quotadrop"}},
      {"ingress-overflow", "kIngressOverflow", "enqueueingress",
       "NetworkCounters::droppedQueueOverflow",
       {"droppedqueueoverflow", "queueoverflow"}},
      {"crash-rejoin", "kCrashRejoin", "onrestart",
       "SimNode::restarts", {"restart"}},
  };
  return kSpecs;
}

bool allDigits(const std::string& s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isdigit(c) != 0;
  });
}

long long digitValue(const std::string& s) {
  long long value = 0;
  for (char c : s) value = value * 10 + (c - '0');
  return value;
}

// --- Enum extraction -------------------------------------------------------

struct EnumDef {
  std::string name;
  std::string file;
  std::vector<std::string> enumerators;
  std::map<std::string, std::uint32_t> values;
};

void collectEnums(const FileIndex& file, std::vector<EnumDef>& out) {
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!isIdent(toks, i) || toks[i].text != "enum") continue;
    std::size_t nameAt = i + 1;
    if (text(toks, nameAt) == "class" || text(toks, nameAt) == "struct") {
      ++nameAt;
    }
    if (!isIdent(toks, nameAt)) continue;
    std::size_t j = nameAt + 1;
    if (text(toks, j) == ":") {
      while (j < toks.size() && text(toks, j) != "{" && text(toks, j) != ";") {
        ++j;
      }
    }
    if (text(toks, j) != "{") continue;  // forward declaration
    const std::size_t bodyEnd = skipBalanced(toks, j, "{", "}");

    EnumDef def;
    def.name = toks[nameAt].text;
    def.file = file.path;
    std::uint32_t next = 0;
    std::size_t k = j + 1;
    while (k + 1 < bodyEnd) {
      if (!isIdent(toks, k)) {
        ++k;
        continue;
      }
      const std::string& enumerator = toks[k].text;
      std::uint32_t value = next;
      if (text(toks, k + 1) == "=" && k + 2 < bodyEnd &&
          allDigits(text(toks, k + 2))) {
        value = static_cast<std::uint32_t>(digitValue(toks[k + 2].text));
      }
      def.enumerators.push_back(enumerator);
      def.values[enumerator] = value;
      next = value + 1;
      // Advance past the initializer to the separating comma.
      std::size_t depth = 0;
      ++k;
      while (k + 1 < bodyEnd) {
        const std::string& t = toks[k].text;
        if (t == "(" || t == "{" || t == "[") ++depth;
        if (t == ")" || t == "}" || t == "]") --depth;
        if (t == "," && depth == 0) {
          ++k;
          break;
        }
        ++k;
      }
    }
    if (!def.enumerators.empty()) out.push_back(std::move(def));
    i = bodyEnd;
  }
}

// --- Quorum-threshold collection -------------------------------------------

struct LinearMatch {
  int a = 0;
  int b = 0;
  std::size_t next = 0;
  std::string spelling;
};

/// Matches an `f` reference at `i`: bare `f` / `f_`, or a one-hop member
/// chain like `config_.f`. Returns the index after the reference.
std::size_t matchFRef(const std::vector<Token>& toks, std::size_t i) {
  if (!isIdent(toks, i)) return 0;
  const std::string& t = toks[i].text;
  if (t == "f" || t == "f_") return i + 1;
  if ((t == "config" || t == "config_" || t == "cfg" || t == "cfg_") &&
      (text(toks, i + 1) == "." || text(toks, i + 1) == "->") &&
      text(toks, i + 2) == "f") {
    return i + 3;
  }
  return 0;
}

std::string spellingOf(const std::vector<Token>& toks, std::size_t begin,
                       std::size_t end) {
  std::string out;
  for (std::size_t i = begin; i < end; ++i) out += toks[i].text;
  return out;
}

/// Matches `[N *] f-ref [+ M]` starting at `i`.
[[nodiscard]] std::optional<LinearMatch> matchLinear(
    const std::vector<Token>& toks, std::size_t i) {
  LinearMatch m;
  std::size_t j = 0;
  if (allDigits(text(toks, i))) {
    if (text(toks, i + 1) != "*") return std::nullopt;
    j = matchFRef(toks, i + 2);
    if (j == 0) return std::nullopt;
    m.a = static_cast<int>(digitValue(toks[i].text));
  } else {
    j = matchFRef(toks, i);
    if (j == 0) return std::nullopt;
    m.a = 1;
  }
  if (text(toks, j) == "+" && allDigits(text(toks, j + 1))) {
    m.b = static_cast<int>(digitValue(toks[j + 1].text));
    j += 2;
  }
  m.next = j;
  m.spelling = spellingOf(toks, i, j);
  return m;
}

/// Matches a call chain ending in a quorum-named nullary call
/// (`quorum()`, `config_.quorum()`), resolved through `namedForms`.
[[nodiscard]] std::optional<LinearMatch> matchQuorumCall(
    const std::vector<Token>& toks, std::size_t i,
    const std::map<std::string, std::pair<int, int>>& namedForms) {
  if (!isIdent(toks, i)) return std::nullopt;
  std::size_t j = i;
  while ((text(toks, j + 1) == "." || text(toks, j + 1) == "->") &&
         isIdent(toks, j + 2)) {
    j += 2;
  }
  const std::string& callee = toks[j].text;
  if (lowered(callee).find("quorum") == std::string::npos) return std::nullopt;
  if (text(toks, j + 1) != "(" || text(toks, j + 2) != ")") return std::nullopt;
  const auto it = namedForms.find(callee);
  if (it == namedForms.end()) return std::nullopt;
  LinearMatch m;
  m.a = it->second.first;
  m.b = it->second.second;
  m.next = j + 3;
  m.spelling = spellingOf(toks, i, j + 1) + "()";
  return m;
}

/// Lowered identifiers that plausibly hold a vote/ack count (the
/// magic-number check's guard against flagging arbitrary comparisons).
bool isCountishStem(const std::string& loweredName) {
  static const std::vector<std::string> kStems = {
      "votes", "voters",  "matching", "tally", "acks",
      "quorum", "prepares", "commits", "replies", "certs"};
  return std::any_of(kStems.begin(), kStems.end(), [&](const std::string& s) {
    return loweredName.find(s) != std::string::npos;
  });
}

/// Count-ish expression ending right before token `i` (exclusive):
/// `X.size()`, `matchingFoo()`, or a bare count-ish identifier.
bool countishBefore(const std::vector<Token>& toks, std::size_t i,
                    std::string* name) {
  if (i >= 4 && text(toks, i - 1) == ")" && text(toks, i - 2) == "(" &&
      isIdent(toks, i - 3)) {
    const std::string& callee = toks[i - 3].text;
    if ((callee == "size" || callee == "count") && i >= 6 &&
        (text(toks, i - 4) == "." || text(toks, i - 4) == "->") &&
        isIdent(toks, i - 5)) {
      if (!isCountishStem(lowered(toks[i - 5].text))) return false;
      *name = toks[i - 5].text;
      return true;
    }
    if (!isCountishStem(lowered(callee))) return false;
    *name = callee;
    return true;
  }
  if (i >= 1 && isIdent(toks, i - 1) &&
      isCountishStem(lowered(toks[i - 1].text))) {
    *name = toks[i - 1].text;
    return true;
  }
  return false;
}

/// Count-ish expression starting at token `i`.
bool countishAfter(const std::vector<Token>& toks, std::size_t i,
                   std::string* name) {
  if (!isIdent(toks, i)) return false;
  if ((text(toks, i + 1) == "." || text(toks, i + 1) == "->") &&
      (text(toks, i + 2) == "size" || text(toks, i + 2) == "count") &&
      text(toks, i + 3) == "(") {
    if (!isCountishStem(lowered(toks[i].text))) return false;
    *name = toks[i].text;
    return true;
  }
  if (!isCountishStem(lowered(toks[i].text))) return false;
  *name = toks[i].text;
  return true;
}

const std::set<std::string>& exprContinuations() {
  static const std::set<std::string> kOps = {"*", "+", "-", "/", "%", "."};
  return kOps;
}

void collectQuorums(
    const FileIndex& file, const FunctionInfo& fn,
    const std::map<std::string, std::pair<int, int>>& namedForms,
    ProtocolModel& model) {
  const std::vector<Token>& toks = file.tokens;
  const std::size_t end = fn.bodyEnd > 0 ? fn.bodyEnd - 1 : 0;
  for (std::size_t i = fn.bodyBegin + 1; i < end; ++i) {
    const std::string& t = toks[i].text;
    if (t != "<" && t != ">") continue;
    // Shift operators lex as two identical punct tokens.
    if (text(toks, i + 1) == t || (i > 0 && text(toks, i - 1) == t)) continue;
    const std::size_t rhs = text(toks, i + 1) == "=" ? i + 2 : i + 1;

    const auto record = [&](const LinearMatch& m, bool named) {
      model.quorums.push_back({m.a, m.b, named, m.spelling, fn.qualified,
                               file.path, toks[i].line});
    };

    bool matched = false;
    if (const auto m = matchLinear(toks, rhs)) {
      record(*m, false);
      matched = true;
    } else if (const auto m = matchQuorumCall(toks, rhs, namedForms)) {
      record(*m, true);
      matched = true;
    }
    if (!matched) {
      // Left-hand-side form: a linear/quorum expression ending at `i`.
      const std::size_t lo = i > 8 ? i - 8 : fn.bodyBegin + 1;
      for (std::size_t s = lo; s < i && !matched; ++s) {
        if (const auto m = matchLinear(toks, s); m && m->next == i) {
          record(*m, false);
          matched = true;
        } else if (const auto q = matchQuorumCall(toks, s, namedForms);
                   q && q->next == i) {
          record(*q, true);
          matched = true;
        }
      }
    }
    if (matched) continue;

    // Magic-number candidate: count-ish expression vs bare integer >= 2.
    std::string counted;
    if (allDigits(text(toks, rhs)) && digitValue(toks[rhs].text) >= 2 &&
        !exprContinuations().contains(text(toks, rhs + 1)) &&
        countishBefore(toks, i, &counted)) {
      model.magicQuorums.push_back(
          {counted, digitValue(toks[rhs].text), file.path, toks[i].line});
    } else if (i >= 2 && allDigits(toks[i - 1].text) &&
               digitValue(toks[i - 1].text) >= 2 &&
               !exprContinuations().contains(text(toks, i - 2)) &&
               countishAfter(toks, rhs, &counted)) {
      model.magicQuorums.push_back(
          {counted, digitValue(toks[i - 1].text), file.path, toks[i].line});
    }
  }
}

// --- Emission scan ---------------------------------------------------------

/// True when the identifier at `i` is written with an increment form:
/// `++x`, `x++`, or `x += ...` (member chains included). Plain `=`
/// assignment does NOT count — `stateTransferInFlight_ = false` is a flag
/// write, not an event emission.
bool isIncrementWrite(const std::vector<Token>& toks, std::size_t i) {
  if (text(toks, i + 1) == "+" && text(toks, i + 2) == "+") return true;
  if (text(toks, i + 1) == "+" && text(toks, i + 2) == "=") return true;
  // Walk to the head of a `a.b.c` chain, then look for prefix `++`.
  std::size_t s = i;
  while (s >= 2 && (text(toks, s - 1) == "." || text(toks, s - 1) == "->") &&
         isIdent(toks, s - 2)) {
    s -= 2;
  }
  return s >= 2 && text(toks, s - 1) == "+" && text(toks, s - 2) == "+";
}

}  // namespace

bool inModelScope(const std::string& path) {
  return path.find("pbft/") != std::string::npos ||
         path.find("sim/") != std::string::npos;
}

ProtocolModel extractModel(const RepoIndex& index) {
  ProtocolModel model;

  // Pass 1: enums and quorum-named definitions across the model scope.
  std::vector<EnumDef> enums;
  std::map<std::string, std::pair<int, int>> namedForms;
  for (const FileIndex& file : index.files) {
    if (!inModelScope(file.path)) continue;
    collectEnums(file, enums);
    for (const FunctionInfo& fn : file.functions) {
      if (lowered(fn.name).find("quorum") == std::string::npos) continue;
      // `return <linear>;` bodies resolve the call form.
      if (text(file.tokens, fn.bodyBegin + 1) != "return") continue;
      const auto m = matchLinear(file.tokens, fn.bodyBegin + 2);
      if (m && text(file.tokens, m->next) == ";") {
        namedForms[fn.name] = {m->a, m->b};
      }
    }
  }
  for (const auto& [name, form] : namedForms) {
    (void)name;
    model.namedQuorumForms.push_back(form);
  }

  // Kind enum selection: the enum most referenced as `Name::` across the
  // model scope (the codec and dispatch sites all qualify with it).
  std::map<std::string, std::size_t> enumRefs;
  for (const EnumDef& def : enums) enumRefs[def.name] = 0;
  for (const FileIndex& file : index.files) {
    if (!inModelScope(file.path)) continue;
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!isIdent(toks, i) || text(toks, i + 1) != "::") continue;
      const auto it = enumRefs.find(toks[i].text);
      if (it != enumRefs.end()) ++it->second;
    }
  }
  const EnumDef* kindEnum = nullptr;
  std::size_t bestRefs = 0;
  for (const EnumDef& def : enums) {
    const std::size_t refs = enumRefs[def.name];
    if (kindEnum == nullptr || refs > bestRefs ||
        (refs == bestRefs && def.name < kindEnum->name)) {
      kindEnum = &def;
      bestRefs = refs;
    }
  }
  if (kindEnum != nullptr) {
    model.kindEnum = kindEnum->name;
    model.kindEnumFile = kindEnum->file;
    model.kinds = kindEnum->enumerators;
    model.kindValues = kindEnum->values;
  }

  // Pass 2: quorum-threshold comparisons (pbft sources only).
  for (const FileIndex& file : index.files) {
    if (file.path.find("pbft/") == std::string::npos) continue;
    for (const FunctionInfo& fn : file.functions) {
      collectQuorums(file, fn, namedForms, model);
    }
  }

  // Pass 3: transitions — triggers from the function index, emissions from
  // an increment-write scan over every model-scope file.
  for (const TransitionSpec& spec : transitionSpecs()) {
    Transition transition;
    transition.name = spec.name;
    transition.enumName = spec.enumName;
    transition.counter = spec.counter;
    for (const FileIndex& file : index.files) {
      if (!inModelScope(file.path) || !transition.function.empty()) continue;
      for (const FunctionInfo& fn : file.functions) {
        if (lowered(fn.name).find(spec.trigger) != std::string::npos) {
          transition.function = fn.qualified;
          transition.file = file.path;
          transition.line = fn.line;
          break;
        }
      }
    }
    if (transition.function.empty()) continue;  // not part of this protocol

    for (const FileIndex& file : index.files) {
      if (!inModelScope(file.path)) continue;
      const std::vector<Token>& toks = file.tokens;
      for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!isIdent(toks, i)) continue;
        const std::string name = lowered(toks[i].text);
        const bool matches = std::any_of(
            spec.patterns.begin(), spec.patterns.end(),
            [&](const char* p) { return name.find(p) != std::string::npos; });
        if (matches && isIncrementWrite(toks, i)) {
          transition.emissions.push_back(
              {toks[i].text, file.path, toks[i].line});
        }
      }
    }
    model.transitions.push_back(std::move(transition));
  }

  return model;
}

namespace {

/// kPrePrepare -> "prePrepare" (taxonomy name fragment).
std::string eventFragment(const std::string& enumerator) {
  std::string s = enumerator;
  if (s.size() > 1 && s[0] == 'k' &&
      std::isupper(static_cast<unsigned char>(s[1])) != 0) {
    s.erase(0, 1);
  }
  if (!s.empty()) {
    s[0] = static_cast<char>(std::tolower(static_cast<unsigned char>(s[0])));
  }
  return s;
}

/// kRequest -> "kMsgRequest" (generated enumerator for a message event).
std::string messageEnumerator(const std::string& enumerator) {
  std::string s = enumerator;
  if (s.size() > 1 && s[0] == 'k') s.erase(0, 1);
  return "kMsg" + s;
}

}  // namespace

std::string generateEventsHeader(const ProtocolModel& model) {
  struct Row {
    std::string enumName;
    std::string name;
    std::string kind;
    std::uint32_t wireKind;
    std::string counter;
    std::string source;
  };
  std::vector<Row> rows;
  for (const std::string& k : model.kinds) {
    const auto it = model.kindValues.find(k);
    rows.push_back({messageEnumerator(k), "msg." + eventFragment(k), "message",
                    it != model.kindValues.end() ? it->second : 0u,
                    "NetworkCounters::deliveredByKind", model.kindEnumFile});
  }
  for (const Transition& t : model.transitions) {
    rows.push_back({t.enumName, "transition." + t.name, "transition", 0u,
                    t.counter, t.function + " (" + t.file + ")"});
  }

  std::string out;
  out +=
      "// Generated by `avd_lint --gen-events`. DO NOT EDIT.\n"
      "//\n"
      "// The runtime protocol-event taxonomy, extracted statically from the\n"
      "// message-kind enum and the protocol transitions of src/pbft/ +\n"
      "// src/sim/ (tools/lint/model.cpp). The `lint.gen` CTest regenerates\n"
      "// this header and fails on any drift, so instrumentation and the\n"
      "// coverage map key off one mechanical inventory instead of\n"
      "// hand-maintained lists.\n"
      "#pragma once\n"
      "\n"
      "#include <array>\n"
      "#include <cstddef>\n"
      "#include <cstdint>\n"
      "#include <string_view>\n"
      "\n"
      "namespace avd::gen {\n"
      "\n"
      "enum class ProtocolEvent : std::uint32_t {\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += "  " + rows[i].enumName + " = " + std::to_string(i) + ",\n";
  }
  out +=
      "};\n"
      "\n"
      "inline constexpr std::size_t kProtocolEventCount = " +
      std::to_string(rows.size()) +
      ";\n"
      "\n"
      "struct ProtocolEventInfo {\n"
      "  ProtocolEvent event;\n"
      "  std::string_view name;     // taxonomy name, e.g. "
      "\"msg.prePrepare\"\n"
      "  std::string_view kind;     // \"message\" | \"transition\"\n"
      "  std::uint32_t wireKind;    // " +
      (model.kindEnum.empty() ? std::string("MsgKind") : model.kindEnum) +
      " value for messages, 0 otherwise\n"
      "  std::string_view counter;  // runtime counter observing the event\n"
      "  std::string_view source;   // extraction provenance\n"
      "};\n"
      "\n"
      "inline constexpr std::array<ProtocolEventInfo, kProtocolEventCount>\n"
      "    kProtocolEvents = {{\n";
  for (const Row& row : rows) {
    out += "        {ProtocolEvent::" + row.enumName + ", \"" + row.name +
           "\", \"" + row.kind + "\", " + std::to_string(row.wireKind) +
           "u,\n         \"" + row.counter + "\", \"" + row.source + "\"},\n";
  }
  out +=
      "    }};\n"
      "\n"
      "inline constexpr std::string_view protocolEventName(ProtocolEvent e) {\n"
      "  return kProtocolEvents[static_cast<std::size_t>(e)].name;\n"
      "}\n"
      "\n"
      "}  // namespace avd::gen\n";
  return out;
}

}  // namespace avd::lint
