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

// --- Lock guards -------------------------------------------------------------

/// Index of the '}' that closes the block open at `from`, or `limit`.
std::size_t blockEnd(const std::vector<Token>& toks, std::size_t from,
                     std::size_t limit) {
  std::size_t depth = 0;
  for (std::size_t i = from; i < limit; ++i) {
    if (toks[i].text == "{") {
      ++depth;
    } else if (toks[i].text == "}") {
      if (depth == 0) return i;
      --depth;
    }
  }
  return limit;
}

/// Records every guard in the body that acquires its mutex, held from its
/// declaration to the end of the block that declares it.
void scanLocks(const std::vector<Token>& toks, FunctionInfo& fn) {
  std::size_t i = fn.bodyBegin + 1;  // just inside the opening '{'
  const std::size_t end = fn.bodyEnd > 0 ? fn.bodyEnd - 1 : fn.bodyEnd;
  while (i < end) {
    if (!isIdent(toks, i) || !isGuardName(toks[i].text)) {
      ++i;
      continue;
    }
    const bool multi = toks[i].text == "scoped_lock";
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
    const auto isTag = [&](const std::pair<std::size_t, std::size_t>& arg,
                           std::string_view tag) {
      return rangeContainsIdent(toks, arg.first, arg.second, tag);
    };
    const bool deferred =
        std::any_of(args.begin(), args.end(), [&](const auto& arg) {
          return isTag(arg, "defer_lock") || isTag(arg, "try_to_lock");
        });
    i = argsEnd;
    if (deferred) continue;  // not acquired here
    const std::size_t scopeEnd = blockEnd(toks, argsEnd, end + 1);
    const std::size_t mutexArgs =
        multi ? args.size() : std::min<std::size_t>(1, args.size());
    for (std::size_t a = 0; a < mutexArgs; ++a) {
      if (isTag(args[a], "adopt_lock")) continue;  // a lock tag, not a mutex
      std::string mutexName = lastIdentIn(toks, args[a].first, args[a].second);
      if (mutexName.empty()) continue;
      fn.locks.push_back({std::move(mutexName), argsEnd, scopeEnd});
    }
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
        fn.qualified =
            match->owner.empty() ? fn.name : match->owner + "::" + fn.name;
        fn.line = toks[i].line;
        fn.bodyBegin = match->bodyBegin;
        fn.bodyEnd = skipBalanced(toks, match->bodyBegin, "{", "}");
        scanLocks(toks, fn);
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
  return index;
}

}  // namespace avd::lint
