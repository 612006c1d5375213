// avd_lint phase 4 — leaf harvest (see effects.h).
#include "effects.h"

#include <set>
#include <string>
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

const std::set<std::string>& posixCalls() {
  static const std::set<std::string> kSet = {
      // Files and descriptors.
      "open",   "openat",   "creat",  "close",  "unlink", "unlinkat",
      "rename", "renameat", "fsync",  "fdatasync", "mkdir", "rmdir",
      "readlink", "ftruncate", "lseek", "stat",  "fstat",  "mkfifo",
      "read",   "write",    "pread",  "pwrite", "pipe",   "dup",
      "dup2",   "fcntl",
      // Sockets.
      "socket",   "socketpair", "bind",     "listen",     "accept",
      "accept4",  "connect",    "send",     "recv",       "sendto",
      "recvfrom", "sendmsg",    "recvmsg",  "setsockopt", "getsockopt",
      "getsockname", "getpeername", "shutdown", "inet_pton", "poll",
      "ppoll",    "select",     "epoll_wait",
      // Processes and signals.
      "fork",  "vfork", "execv",  "execve", "execvp", "waitpid",
      "wait",  "kill",  "getpid", "setsid", "prctl",  "pthread_kill",
      "_exit", "signal", "raise"};
  return kSet;
}

// Sleeps and signal waits: POSIX, and blocking whatever their arguments.
const std::set<std::string>& posixSleeps() {
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

}  // namespace

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
  for (std::size_t i = fn.bodyBegin; i < fn.bodyEnd && i < toks.size(); ++i) {
    if (!isIdent(toks, i)) continue;
    const CallShape shape = callShapeAt(toks, i);
    if (!shape.isCall) continue;
    LeafSite leaf;
    leaf.name = toks[i].text;
    leaf.tokenIndex = i;
    leaf.line = toks[i].line;

    // Blocking member leaves: thread::join and this_thread sleeps.
    if ((shape.member && leaf.name == "join") ||
        (shape.qualifier == "this_thread" &&
         (leaf.name == "sleep_for" || leaf.name == "sleep_until"))) {
      leaf.blocking = true;
      out.push_back(std::move(leaf));
      continue;
    }

    // Raw POSIX: global `::name(...)` only, plus the two std-spelled
    // process-control wrappers.
    const bool posixForm =
        shape.global ||
        (shape.qualifier == "std" && stdSpelledPosix().contains(leaf.name));
    const bool sleeps = posixSleeps().contains(leaf.name);
    if (!posixForm || (!sleeps && !posixCalls().contains(leaf.name))) {
      continue;
    }
    const bool nonblockingArgs = argsContain(toks, i, nonblockingFlags());
    leaf.posix = true;
    leaf.blocking =
        sleeps || (blockingPosix().contains(leaf.name) && !nonblockingArgs);
    leaf.interruptible =
        interruptiblePosix().contains(leaf.name) && !nonblockingArgs;
    if (leaf.interruptible) {
      leaf.discarded = resultDiscarded(toks, i, shape.global);
    }
    out.push_back(std::move(leaf));
  }
  return out;
}

}  // namespace avd::lint
