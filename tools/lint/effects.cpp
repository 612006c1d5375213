// avd_lint phase 4 — whole-program effect inference (see effects.h).
#include "effects.h"

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace avd::lint {
namespace {

// --- Leaf intrinsic tables ------------------------------------------------
//
// POSIX names are matched only in global-qualified form (`::open`) — the
// repo's invariant idiom for raw syscalls — because the simulator's own
// message plane spells `send(to, msg)` / `broadcast(...)` as plain calls
// everywhere, and a name table that accepted plain spellings would alias
// the deterministic world onto libc. The two std-spelled POSIX wrappers the
// tree uses (`std::signal`, `std::raise`) are listed separately.

const std::set<std::string>& posixFsCalls() {
  static const std::set<std::string> kSet = {
      "open",   "openat",   "creat",  "close",  "unlink", "unlinkat",
      "rename", "renameat", "fsync",  "fdatasync", "mkdir", "rmdir",
      "readlink", "ftruncate", "lseek", "stat",  "fstat",  "mkfifo",
      "read",   "write",    "pread",  "pwrite", "pipe",   "dup",
      "dup2",   "fcntl"};
  return kSet;
}

const std::set<std::string>& posixNetCalls() {
  static const std::set<std::string> kSet = {
      "socket",   "socketpair", "bind",     "listen",     "accept",
      "accept4",  "connect",    "send",     "recv",       "sendto",
      "recvfrom", "sendmsg",    "recvmsg",  "setsockopt", "getsockopt",
      "getsockname", "getpeername", "shutdown", "inet_pton", "poll",
      "ppoll",    "select",     "epoll_wait"};
  return kSet;
}

const std::set<std::string>& posixProcCalls() {
  static const std::set<std::string> kSet = {
      "fork",  "vfork", "execv",  "execve", "execvp", "waitpid",
      "wait",  "kill",  "getpid", "setsid", "prctl",  "pthread_kill",
      "_exit"};
  return kSet;
}

// Sleeps and signal waits: POSIX, and pure blocking rather than I/O.
const std::set<std::string>& posixBlockCalls() {
  static const std::set<std::string> kSet = {"usleep", "nanosleep", "sleep",
                                             "pause", "sigwait"};
  return kSet;
}

// POSIX process-control names the tree legitimately spells through <csignal>
// with std:: qualification.
const std::set<std::string>& stdSpelledPosix() {
  static const std::set<std::string> kSet = {"signal", "raise"};
  return kSet;
}

// Calls that park the thread until the outside world responds. `send` and
// `write` are deliberately absent: the worker holds its write mutex across
// writeFrame by design, and a short socket send is not a wait.
const std::set<std::string>& blockingPosix() {
  static const std::set<std::string> kSet = {
      "poll", "ppoll",   "select", "epoll_wait", "accept", "connect",
      "recv", "recvfrom", "waitpid", "wait"};
  return kSet;
}

// Argument flags that turn a nominally blocking call non-blocking (and
// exempt it from the EINTR-retry discipline: it returns immediately).
const std::set<std::string>& nonblockingFlags() {
  static const std::set<std::string> kSet = {"WNOHANG", "MSG_DONTWAIT",
                                             "O_NONBLOCK", "SOCK_NONBLOCK"};
  return kSet;
}

// Interruptible calls (R16b): a signal can abort them with EINTR, so the
// call site must bind the result and the surrounding loop must retry.
const std::set<std::string>& interruptiblePosix() {
  static const std::set<std::string> kSet = {
      "read", "write",  "send",   "recv", "sendto", "recvfrom",
      "accept", "connect", "poll", "ppoll", "select", "waitpid",
      "wait", "epoll_wait"};
  return kSet;
}

const std::set<std::string>& libcTimeCalls() {
  static const std::set<std::string> kSet = {"time", "clock", "gettimeofday",
                                             "clock_gettime"};
  return kSet;
}

const std::set<std::string>& libcRngCalls() {
  static const std::set<std::string> kSet = {"rand",    "srand",   "rand_r",
                                             "drand48", "lrand48", "mrand48",
                                             "random"};
  return kSet;
}

// Wall-clock chrono types: any `clock::now()` / `clock::time_point` use is
// a time effect at the type token ("steady" counts too — steady_clock is
// still host time, invisible to the simulated clock).
const std::set<std::string>& chronoClockTypes() {
  static const std::set<std::string> kSet = {
      "system_clock", "steady_clock", "high_resolution_clock"};
  return kSet;
}

// How the identifier at `i` is spelled as a call head. Phase 4 needs its
// own helper (not plainOrQualifiedBy) because global qualification
// (`::open`) is exactly the form the POSIX tables require, and that helper
// treats it as "qualified by an unknown namespace" and rejects it.
struct CallShape {
  bool isCall = false;
  bool member = false;          // obj.name( / ptr->name(
  bool global = false;          // ::name(
  std::string qualifier;        // ns::name( -> "ns"; "" when plain/global
};

/// Statement keywords that can legally precede a global-`::` call
/// (`return ::close(fd)`); the lexer classes them as identifiers, but they
/// never name a namespace or class.
bool statementKeyword(const std::string& t) {
  static const std::set<std::string> kKeywords = {
      "return", "throw",     "case",     "new",      "delete",
      "sizeof", "co_return", "co_yield", "co_await", "not",
      "and",    "or"};
  return kKeywords.contains(t);
}

CallShape callShapeAt(const std::vector<Token>& toks, std::size_t i) {
  CallShape s;
  if (text(toks, i + 1) != "(") return s;
  s.isCall = true;
  if (i == 0) return s;
  const std::string& prev = toks[i - 1].text;
  if (prev == "." || prev == "->") {
    s.member = true;
  } else if (prev == "::") {
    if (i >= 2 && toks[i - 2].kind == TokKind::kIdent &&
        !statementKeyword(toks[i - 2].text)) {
      s.qualifier = toks[i - 2].text;
    } else {
      s.global = true;
    }
  }
  return s;
}

// True when any identifier inside the call's argument parentheses is one of
// `names`. `i` is the callee token; returns false for non-calls.
bool argsContain(const std::vector<Token>& toks, std::size_t i,
                 const std::set<std::string>& names) {
  if (text(toks, i + 1) != "(") return false;
  const std::size_t end = skipBalanced(toks, i + 1, "(", ")");
  for (std::size_t j = i + 2; j + 1 < end; ++j) {
    if (isIdent(toks, j) && names.contains(toks[j].text)) return true;
  }
  return false;
}

// True when the call's result is dropped at statement level: the token
// before the expression head is a statement boundary and the token after
// the closing paren ends the statement.
bool resultDiscarded(const std::vector<Token>& toks, std::size_t i,
                     bool global) {
  const std::size_t head = (global && i >= 1) ? i - 1 : i;
  if (head > 0) {
    const std::string& before = toks[head - 1].text;
    if (before != ";" && before != "{" && before != "}") return false;
  }
  const std::size_t close = skipBalanced(toks, i + 1, "(", ")");
  return text(toks, close) == ";";
}

void pushLeaf(std::vector<LeafSite>& out, const std::vector<Token>& toks,
              std::size_t i, std::string name, unsigned effects, bool posix,
              bool interruptible, bool global) {
  LeafSite leaf;
  leaf.name = std::move(name);
  leaf.tokenIndex = i;
  leaf.line = toks[i].line;
  leaf.effects = effects;
  leaf.posix = posix;
  leaf.interruptible = interruptible;
  if (interruptible) leaf.discarded = resultDiscarded(toks, i, global);
  out.push_back(leaf);
}

}  // namespace

bool globalCallForm(const std::vector<Token>& toks, std::size_t i) {
  const CallShape s = callShapeAt(toks, i);
  return s.isCall && s.global;
}

const char* effectName(std::size_t bitIndex) {
  static const char* const kNames[kEffectCount] = {"time", "rng",  "fs",
                                                   "net",  "proc", "block"};
  return bitIndex < kEffectCount ? kNames[bitIndex] : "?";
}

std::string effectSetNames(unsigned mask) {
  if (mask == 0) return "pure";
  std::string out;
  for (std::size_t b = 0; b < kEffectCount; ++b) {
    if ((mask & (1u << b)) == 0) continue;
    if (!out.empty()) out += ",";
    out += effectName(b);
  }
  return out;
}

bool designatedEffectModule(const std::string& path) {
  static const char* const kModules[] = {
      "common/framing", "common/proc", "campaign/journal",
      "campaign/fleet/shard"};
  for (const char* module : kModules) {
    if (path.find(module) != std::string::npos) return true;
  }
  return false;
}

std::vector<LeafSite> harvestLeafSites(const FileIndex& file,
                                       const FunctionInfo& fn) {
  std::vector<LeafSite> out;
  const std::vector<Token>& toks = file.tokens;
  static const std::set<std::string> kStdNs = {"std"};
  static const std::set<std::string> kChronoNs = {"std", "chrono"};
  static const std::set<std::string> kStreamTypes = {"ofstream", "ifstream",
                                                     "fstream"};
  for (std::size_t i = fn.bodyBegin; i < fn.bodyEnd && i < toks.size(); ++i) {
    if (!isIdent(toks, i)) continue;
    const std::string& name = toks[i].text;

    // Type-level time/rng leaves: not calls, matched at the type token.
    if (chronoClockTypes().contains(name) &&
        plainOrQualifiedBy(toks, i, kChronoNs)) {
      pushLeaf(out, toks, i, name, kEffectTime, false, false, false);
      continue;
    }
    if (name == "random_device" && plainOrQualifiedBy(toks, i, kStdNs)) {
      pushLeaf(out, toks, i, name, kEffectRng, false, false, false);
      continue;
    }
    // std::filesystem operations and stream objects: a filesystem effect at
    // the namespace/type token, call or not (constructing the stream opens
    // the file).
    if (name == "filesystem" && plainOrQualifiedBy(toks, i, kStdNs) &&
        text(toks, i + 1) == "::") {
      pushLeaf(out, toks, i, name, kEffectFs, false, false, false);
      continue;
    }
    if (kStreamTypes.contains(name) && plainOrQualifiedBy(toks, i, kStdNs)) {
      pushLeaf(out, toks, i, name, kEffectFs, false, false, false);
      continue;
    }

    const CallShape shape = callShapeAt(toks, i);
    if (!shape.isCall) continue;

    // Blocking member leaves: thread::join and this_thread sleeps.
    if (shape.member && name == "join") {
      pushLeaf(out, toks, i, name, kEffectBlock, false, false, false);
      continue;
    }
    if ((name == "sleep_for" || name == "sleep_until") &&
        shape.qualifier == "this_thread") {
      pushLeaf(out, toks, i, name, kEffectBlock, false, false, false);
      continue;
    }
    if (shape.member) continue;

    // Libc time/rng: plain or std-qualified (they come from <ctime> /
    // <cstdlib> both ways). Not marked as POSIX leaves — nondeterminism
    // is R1's charter, the R16 module boundary is for the syscall surface.
    const bool plainOrStd =
        shape.global || shape.qualifier.empty() || shape.qualifier == "std";
    if (libcTimeCalls().contains(name) && plainOrStd) {
      pushLeaf(out, toks, i, name, kEffectTime, false, false, shape.global);
      continue;
    }
    if (libcRngCalls().contains(name) && plainOrStd) {
      pushLeaf(out, toks, i, name, kEffectRng, false, false, shape.global);
      continue;
    }

    // Raw POSIX: global `::name(...)` only, plus the two std-spelled
    // process-control wrappers.
    const bool posixForm =
        shape.global ||
        (shape.qualifier == "std" && stdSpelledPosix().contains(name));
    if (!posixForm) continue;

    unsigned effects = 0;
    if (posixFsCalls().contains(name)) effects |= kEffectFs;
    if (posixNetCalls().contains(name)) effects |= kEffectNet;
    if (posixProcCalls().contains(name) || stdSpelledPosix().contains(name)) {
      effects |= kEffectProc;
    }
    if (posixBlockCalls().contains(name)) effects |= kEffectBlock;
    if (effects == 0) continue;

    const bool nonblockingArgs = argsContain(toks, i, nonblockingFlags());
    if (blockingPosix().contains(name) && !nonblockingArgs) {
      effects |= kEffectBlock;
    }
    const bool interruptible =
        interruptiblePosix().contains(name) && !nonblockingArgs;
    pushLeaf(out, toks, i, name, effects, true, interruptible, shape.global);
  }
  return out;
}

EffectIndex inferEffects(const RepoIndex& index) {
  EffectIndex eff;
  std::vector<bool> masked;
  for (std::size_t f = 0; f < index.files.size(); ++f) {
    const bool rngBoundary =
        index.files[f].path.find("common/rng") != std::string::npos;
    for (std::size_t g = 0; g < index.files[f].functions.size(); ++g) {
      eff.flatIndex[{f, g}] = eff.flat.size();
      eff.flat.emplace_back(f, g);
      masked.push_back(rngBoundary);
    }
  }
  eff.fn.resize(eff.flat.size());

  // Seed with direct leaves; the witness root names the leaf in place.
  for (std::size_t i = 0; i < eff.flat.size(); ++i) {
    if (masked[i]) continue;
    const FileIndex& file = index.files[eff.flat[i].first];
    const FunctionInfo& fn = file.functions[eff.flat[i].second];
    for (const LeafSite& leaf : harvestLeafSites(file, fn)) {
      eff.fn[i].direct |= leaf.effects;
      for (std::size_t b = 0; b < kEffectCount; ++b) {
        const unsigned bit = 1u << b;
        if ((leaf.effects & bit) == 0 || (eff.fn[i].total & bit) != 0) {
          continue;
        }
        eff.fn[i].total |= bit;
        eff.fn[i].witness[b].line = leaf.line;
        eff.fn[i].witness[b].via.clear();
        eff.fn[i].witness[b].root = "'" + leaf.name + "' (" + file.path + ":" +
                                    std::to_string(leaf.line) + ")";
      }
    }
  }

  // Quadratic worklist over the call graph: each pass unions every
  // resolvable callee's total into the caller until nothing changes.
  // Effects only accumulate, so the pass count is bounded by
  // kEffectCount * |functions|.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < eff.flat.size(); ++i) {
      if (masked[i]) continue;
      const FileIndex& file = index.files[eff.flat[i].first];
      const FunctionInfo& fn = file.functions[eff.flat[i].second];
      for (const CallSite& call : fn.calls) {
        // `::name(...)` is the intrinsic itself (already harvested as a
        // leaf), never a call into an indexed definition.
        if (globalCallForm(file.tokens, call.tokenIndex)) continue;
        auto [lo, hi] = index.functionsByName.equal_range(call.callee);
        for (auto it = lo; it != hi; ++it) {
          const std::size_t j = eff.flatIndex.at(it->second);
          if (masked[j]) continue;
          const unsigned add = eff.fn[j].total & ~eff.fn[i].total;
          if (add == 0) continue;
          eff.fn[i].total |= add;
          for (std::size_t b = 0; b < kEffectCount; ++b) {
            if ((add & (1u << b)) == 0) continue;
            eff.fn[i].witness[b].line = call.line;
            eff.fn[i].witness[b].via = call.callee;
            eff.fn[i].witness[b].root = eff.fn[j].witness[b].root;
          }
          changed = true;
        }
      }
    }
  }
  return eff;
}

std::string generateEffectsJson(const RepoIndex& index,
                                const EffectIndex& effects) {
  // Keyed by file and function, not line: moving code changes no row.
  struct Row {
    std::string file;
    std::string function;
    unsigned direct;
    unsigned total;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < effects.flat.size(); ++i) {
    if (effects.fn[i].total == 0) continue;
    const FileIndex& file = index.files[effects.flat[i].first];
    const FunctionInfo& fn = file.functions[effects.flat[i].second];
    rows.push_back(
        {file.path, fn.qualified, effects.fn[i].direct, effects.fn[i].total});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::tie(a.file, a.function) < std::tie(b.file, b.function);
  });

  auto escape = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  };

  std::string json = "{\n  \"version\": 1,\n  \"effects\": [";
  for (std::size_t b = 0; b < kEffectCount; ++b) {
    if (b != 0) json += ", ";
    json += "\"";
    json += effectName(b);
    json += "\"";
  }
  json += "],\n  \"functions\": [\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    json += "    {\"file\": \"" + escape(rows[r].file) +
            "\", \"function\": \"" + escape(rows[r].function) +
            "\", \"direct\": \"" + effectSetNames(rows[r].direct) +
            "\", \"total\": \"" + effectSetNames(rows[r].total) + "\"}";
    json += (r + 1 < rows.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  return json;
}

}  // namespace avd::lint
