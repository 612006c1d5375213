#include "index.h"

#include <algorithm>
#include <optional>

namespace avd::lint {
namespace {

// Keywords that can precede a '(' without being a function name. Anything
// here must never be indexed as a definition or recorded as a call.
const std::set<std::string>& keywordSet() {
  static const std::set<std::string> kKeywords = {
      "if",       "for",     "while",    "switch",   "catch",  "return",
      "sizeof",   "alignof", "decltype", "noexcept", "throw",  "new",
      "delete",   "static_assert",       "operator", "defined", "else",
      "do",       "case",    "goto",     "co_await", "co_return",
      "co_yield", "typeid",  "alignas",  "requires", "explicit",
      "constexpr"};  // `if constexpr (...)` must not look like a call
  return kKeywords;
}

bool isGuardName(const std::string& name) {
  return name == "lock_guard" || name == "unique_lock" ||
         name == "scoped_lock" || name == "shared_lock";
}

/// std::mutex-family type token (optionally preceded by std::).
bool isMutexType(const std::vector<Token>& toks, std::size_t i) {
  if (!isIdent(toks, i)) return false;
  const std::string& name = toks[i].text;
  if (name == "mutex" || name == "recursive_mutex" ||
      name == "shared_mutex" || name == "timed_mutex" ||
      name == "recursive_timed_mutex") {
    static const std::set<std::string> kStd = {"std"};
    return plainOrQualifiedBy(toks, i, kStd);
  }
  return false;
}

/// Splits the token range (begin, end) — exclusive of the delimiters — into
/// top-level comma-separated argument ranges.
std::vector<std::pair<std::size_t, std::size_t>> splitArgs(
    const std::vector<Token>& toks, std::size_t begin, std::size_t end) {
  std::vector<std::pair<std::size_t, std::size_t>> args;
  std::size_t depth = 0;
  std::size_t start = begin;
  for (std::size_t i = begin; i < end; ++i) {
    const std::string& t = toks[i].text;
    if (t == "(" || t == "{" || t == "[") ++depth;
    if (t == ")" || t == "}" || t == "]") --depth;
    if (t == "," && depth == 0) {
      args.emplace_back(start, i);
      start = i + 1;
    }
  }
  if (start < end) args.emplace_back(start, end);
  return args;
}

/// Last identifier in an argument range: `this->mutex_` -> mutex_,
/// `parent.mtx_` -> mtx_, `*mu` -> mu.
std::string lastIdentIn(const std::vector<Token>& toks, std::size_t begin,
                        std::size_t end) {
  for (std::size_t i = end; i-- > begin;) {
    if (toks[i].kind == TokKind::kIdent) return toks[i].text;
  }
  return {};
}

bool rangeContainsIdent(const std::vector<Token>& toks, std::size_t begin,
                        std::size_t end, std::string_view name) {
  for (std::size_t i = begin; i < end; ++i) {
    if (toks[i].kind == TokKind::kIdent && toks[i].text == name) return true;
  }
  return false;
}

// --- Function definition detection -----------------------------------------

struct DefMatch {
  std::string name;
  std::string owner;
  std::size_t bodyBegin;  // index of '{'
};

/// Skips one constructor-initializer item (`member(init)` / `member{init}`),
/// returning the index after it, or `i` if the shape does not match.
std::size_t skipInitItem(const std::vector<Token>& toks, std::size_t i) {
  if (!isIdent(toks, i)) return i;
  std::size_t j = i + 1;
  while (text(toks, j) == "::" && isIdent(toks, j + 1)) j += 2;
  if (text(toks, j) == "<") j = skipBalanced(toks, j, "<", ">");
  if (text(toks, j) == "(") return skipBalanced(toks, j, "(", ")");
  if (text(toks, j) == "{") return skipBalanced(toks, j, "{", "}");
  return i;
}

/// Tries to match a function definition whose name token is at `i` (the
/// identifier directly followed by '('). Returns the body position on
/// success. `currentClass` is the enclosing class body, if any.
[[nodiscard]] std::optional<DefMatch> matchFunctionDef(
    const std::vector<Token>& toks,
                                         std::size_t i,
                                         const std::string& currentClass) {
  const std::string& name = toks[i].text;
  if (keywordSet().contains(name) || isGuardName(name)) return std::nullopt;
  if (i > 0) {
    const std::string& prev = toks[i - 1].text;
    if (prev == "." || prev == "->") return std::nullopt;  // method call
  }
  std::size_t afterArgs = skipBalanced(toks, i + 1, "(", ")");
  if (afterArgs >= toks.size()) return std::nullopt;

  // Specifier run after the parameter list.
  std::size_t j = afterArgs;
  bool sawInitList = false;
  while (j < toks.size()) {
    const std::string& t = toks[j].text;
    if (t == "const" || t == "override" || t == "final" || t == "&" ||
        t == "&&" || t == "mutable" || t == "try") {
      ++j;
    } else if (t == "noexcept") {
      ++j;
      if (text(toks, j) == "(") j = skipBalanced(toks, j, "(", ")");
    } else if (t == "[[") {
      j = skipBalanced(toks, j, "[[", "]]");
    } else if (t == "->") {
      // Trailing return type: consume type tokens up to '{' or a breaker.
      ++j;
      while (j < toks.size()) {
        const std::string& r = toks[j].text;
        if (r == "{" || r == ";" || r == "=" || r == ")") break;
        if (r == "<") {
          j = skipBalanced(toks, j, "<", ">");
        } else if (r == "(") {
          j = skipBalanced(toks, j, "(", ")");
        } else {
          ++j;
        }
      }
    } else if (t == ":" && !sawInitList) {
      // Constructor member-initializer list.
      sawInitList = true;
      ++j;
      for (;;) {
        const std::size_t next = skipInitItem(toks, j);
        if (next == j) break;
        j = next;
        if (text(toks, j) == ",") {
          ++j;
          continue;
        }
        break;
      }
    } else {
      break;
    }
  }
  if (text(toks, j) != "{") return std::nullopt;

  DefMatch match;
  match.bodyBegin = j;
  match.name = name;
  match.owner = currentClass;
  // Qualified out-of-line definition: Class::name or Class::~Class.
  if (i >= 2 && toks[i - 1].text == "::" && isIdent(toks, i - 2)) {
    match.owner = toks[i - 2].text;
  } else if (i >= 3 && toks[i - 1].text == "~" && toks[i - 2].text == "::" &&
             isIdent(toks, i - 3)) {
    match.owner = toks[i - 3].text;
    match.name = "~" + name;
  } else if (i >= 1 && toks[i - 1].text == "~") {
    match.name = "~" + name;  // in-class destructor
  }
  return match;
}

// --- Function body scan -----------------------------------------------------

void scanBody(const std::vector<Token>& toks, FunctionInfo& fn) {
  std::size_t depth = 1;  // we start just inside the opening '{'
  std::vector<std::size_t> active;  // indices into fn.locks, innermost last

  std::size_t i = fn.bodyBegin + 1;
  const std::size_t end = fn.bodyEnd > 0 ? fn.bodyEnd - 1 : fn.bodyEnd;
  while (i < end) {
    const std::string& t = toks[i].text;
    if (t == "{") {
      ++depth;
      ++i;
      continue;
    }
    if (t == "}") {
      // Guards declared in the closing block die here.
      for (auto it = active.begin(); it != active.end();) {
        if (fn.locks[*it].scopeDepth == depth) {
          it = active.erase(it);
        } else {
          ++it;
        }
      }
      --depth;
      ++i;
      continue;
    }
    if (toks[i].kind != TokKind::kIdent) {
      ++i;
      continue;
    }
    const std::string& name = toks[i].text;

    // RAII guard declaration.
    if (isGuardName(name)) {
      std::size_t j = i + 1;
      if (text(toks, j) == "<") j = skipBalanced(toks, j, "<", ">");
      if (isIdent(toks, j)) ++j;  // the guard variable name (may be absent)
      const std::string& opener = text(toks, j);
      if (opener != "(" && opener != "{") {
        ++i;  // a guard type mention without a declaration (alias, param)
        continue;
      }
      const std::string closer = opener == "(" ? ")" : "}";
      const std::size_t argsEnd = skipBalanced(toks, j, opener, closer);
      const auto args = splitArgs(toks, j + 1, argsEnd - 1);
      bool deferred = false;
      for (const auto& [ab, ae] : args) {
        if (rangeContainsIdent(toks, ab, ae, "defer_lock") ||
            rangeContainsIdent(toks, ab, ae, "try_to_lock")) {
          deferred = true;
        }
      }
      const bool multi = name == "scoped_lock";
      const std::size_t mutexArgs = multi ? args.size() : std::min<std::size_t>(1, args.size());
      for (std::size_t a = 0; a < mutexArgs; ++a) {
        if (rangeContainsIdent(toks, args[a].first, args[a].second, "adopt_lock") ||
            rangeContainsIdent(toks, args[a].first, args[a].second, "defer_lock") ||
            rangeContainsIdent(toks, args[a].first, args[a].second, "try_to_lock")) {
          continue;  // a lock-tag argument, not a mutex
        }
        std::string mutexName =
            lastIdentIn(toks, args[a].first, args[a].second);
        if (mutexName.empty()) continue;
        LockSite site;
        site.mutexName = std::move(mutexName);
        site.scopeDepth = depth;
        site.deferred = deferred;
        fn.locks.push_back(std::move(site));
        if (!deferred) active.push_back(fn.locks.size() - 1);
      }
      i = argsEnd;
      continue;
    }

    // Local mutex declaration.
    if (isMutexType(toks, i) && isIdent(toks, i + 1)) {
      const std::string& follow = text(toks, i + 2);
      if (follow == ";" || follow == "{" || follow == "(" || follow == "=") {
        fn.localMutexes.insert(toks[i + 1].text);
        ++i;
        continue;
      }
    }

    // Generic call site.
    if (text(toks, i + 1) == "(" && !keywordSet().contains(name)) {
      CallSite call;
      call.callee = name;
      call.tokenIndex = i;
      call.line = toks[i].line;
      for (const std::size_t lockIdx : active) {
        if (!fn.locks[lockIdx].deferred) call.heldLocks.push_back(lockIdx);
      }
      fn.calls.push_back(std::move(call));
    }
    ++i;
  }
}

// --- File-level scan --------------------------------------------------------

void scanFile(FileIndex& file) {
  const std::vector<Token>& toks = file.tokens;

  struct Context {
    enum class Kind { kNamespace, kClass, kBrace } kind;
    std::string name;
  };
  std::vector<Context> contexts;

  const auto currentClass = [&]() -> std::string {
    for (auto it = contexts.rbegin(); it != contexts.rend(); ++it) {
      if (it->kind == Context::Kind::kClass) return it->name;
    }
    return {};
  };

  std::size_t i = 0;
  while (i < toks.size()) {
    const std::string& t = toks[i].text;

    if (t == "{") {
      contexts.push_back({Context::Kind::kBrace, {}});
      ++i;
      continue;
    }
    if (t == "}") {
      if (!contexts.empty()) contexts.pop_back();
      ++i;
      continue;
    }
    if (toks[i].kind != TokKind::kIdent) {
      ++i;
      continue;
    }

    // namespace [name] {
    if (t == "namespace") {
      std::size_t j = i + 1;
      std::string name;
      while (isIdent(toks, j)) {
        name = toks[j].text;
        ++j;
        if (text(toks, j) == "::") ++j;
      }
      if (text(toks, j) == "{") {
        contexts.push_back({Context::Kind::kNamespace, name});
        i = j + 1;
        continue;
      }
      ++i;
      continue;
    }

    // class/struct Name ... { (skip `enum class` and forward declarations)
    if ((t == "class" || t == "struct") &&
        (i == 0 || toks[i - 1].text != "enum")) {
      std::size_t j = i + 1;
      while (text(toks, j) == "[[") j = skipBalanced(toks, j, "[[", "]]");
      if (isIdent(toks, j)) {
        const std::string className = toks[j].text;
        ++j;
        if (text(toks, j) == "final") ++j;
        // Base-clause: consume up to '{' or ';' at angle-bracket depth 0.
        if (text(toks, j) == ":") {
          while (j < toks.size() && toks[j].text != "{" &&
                 toks[j].text != ";") {
            if (toks[j].text == "<") {
              j = skipBalanced(toks, j, "<", ">");
            } else {
              ++j;
            }
          }
        }
        if (text(toks, j) == "{") {
          contexts.push_back({Context::Kind::kClass, className});
          i = j + 1;
          continue;
        }
      }
      ++i;
      continue;
    }

    // Mutex declarations at class/namespace scope.
    if (isMutexType(toks, i) && isIdent(toks, i + 1)) {
      const std::string& follow = text(toks, i + 2);
      if (follow == ";" || follow == "{" || follow == "=") {
        const std::string owner = currentClass();
        if (!owner.empty()) {
          file.classMutexMembers[owner].insert(toks[i + 1].text);
        } else {
          file.globalMutexes.insert(toks[i + 1].text);
        }
        if (follow == "{") {
          i = skipBalanced(toks, i + 2, "{", "}");
        } else {
          i += 2;
        }
        continue;
      }
    }

    // Unordered-container declarations (R5 harvest, path-scoped in phase 2).
    if ((t == "unordered_map" || t == "unordered_set") &&
        text(toks, i + 1) == "<") {
      const std::size_t afterArgs = skipBalanced(toks, i + 1, "<", ">");
      if (isIdent(toks, afterArgs) && text(toks, afterArgs + 1) != "(") {
        file.unorderedDecls.insert(toks[afterArgs].text);
      }
      // Do not skip: the declarator may itself be a function definition.
    }

    // Function definition?
    if (text(toks, i + 1) == "(") {
      if (auto match = matchFunctionDef(toks, i, currentClass())) {
        FunctionInfo fn;
        fn.name = std::move(match->name);
        fn.owner = std::move(match->owner);
        fn.qualified =
            fn.owner.empty() ? fn.name : fn.owner + "::" + fn.name;
        fn.line = toks[i].line;
        fn.bodyBegin = match->bodyBegin;
        fn.bodyEnd = skipBalanced(toks, match->bodyBegin, "{", "}");
        scanBody(toks, fn);
        file.functions.push_back(std::move(fn));
        i = file.functions.back().bodyEnd;
        continue;
      }
    }
    ++i;
  }
}

}  // namespace

RepoIndex buildIndex(const std::vector<SourceFile>& files) {
  RepoIndex index;
  index.files.reserve(files.size());
  for (const SourceFile& source : files) {
    FileIndex file;
    file.path = source.path;
    LexResult lexed = lex(source.path, source.text);
    file.tokens = std::move(lexed.tokens);
    file.suppressions = std::move(lexed.suppressions);
    scanFile(file);
    index.files.push_back(std::move(file));
  }

  // Merge the cross-file maps.
  for (std::size_t f = 0; f < index.files.size(); ++f) {
    const FileIndex& file = index.files[f];
    for (const auto& [cls, members] : file.classMutexMembers) {
      index.classMutexMembers[cls].insert(members.begin(), members.end());
    }
    index.globalMutexes.insert(file.globalMutexes.begin(),
                               file.globalMutexes.end());
    for (std::size_t fn = 0; fn < file.functions.size(); ++fn) {
      index.functionsByName.emplace(file.functions[fn].name,
                                    std::make_pair(f, fn));
    }
  }

  // Resolve every lock site to a canonical mutex identity. Member locks in
  // a class with a matching declaration anywhere in the set resolve to
  // "Class::name"; locals to "function:name"; the rest merge by raw name
  // (conservative: distinct unknown mutexes that share a spelling alias).
  for (FileIndex& file : index.files) {
    for (FunctionInfo& fn : file.functions) {
      for (LockSite& lock : fn.locks) {
        const auto owned = index.classMutexMembers.find(fn.owner);
        if (!fn.owner.empty() && owned != index.classMutexMembers.end() &&
            owned->second.contains(lock.mutexName)) {
          lock.mutexId = fn.owner + "::" + lock.mutexName;
          continue;
        }
        if (fn.localMutexes.contains(lock.mutexName)) {
          lock.mutexId = fn.qualified + ":" + lock.mutexName;
          continue;
        }
        // Unique class member with this name anywhere in the repo?
        std::string uniqueOwner;
        bool ambiguous = false;
        for (const auto& [cls, members] : index.classMutexMembers) {
          if (members.contains(lock.mutexName)) {
            if (!uniqueOwner.empty()) {
              ambiguous = true;
              break;
            }
            uniqueOwner = cls;
          }
        }
        if (!ambiguous && !uniqueOwner.empty()) {
          lock.mutexId = uniqueOwner + "::" + lock.mutexName;
        } else if (index.globalMutexes.contains(lock.mutexName)) {
          lock.mutexId = "::" + lock.mutexName;
        } else {
          lock.mutexId = lock.mutexName;
        }
      }
    }
  }
  return index;
}

}  // namespace avd::lint
