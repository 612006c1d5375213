// avd_lint phase 1 — repo-wide semantic index.
//
// Phase 1 walks every translation unit once and extracts the facts the
// cross-file rules reason over: function definitions (with owning class),
// RAII lock-guard acquisitions with the token range each one holds its
// mutex for, and the unordered-container declarations R5 scopes. The rule
// phases (lint.cpp, model.cpp, effects.cpp) run over the finished index;
// nothing in this module reports findings except the lexer's directive
// errors carried through.
//
// The index is deliberately an over-approximation: scopes are tracked by
// brace depth and lambdas are attributed to their enclosing function. It
// has no call graph: no rule resolves a call to a definition by its bare
// name, and every rule remains suppressible at the witness line.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"
#include "lint.h"

namespace avd::lint {

/// A scoped RAII guard (lock_guard/unique_lock/scoped_lock/shared_lock)
/// that acquires its mutex; std::defer_lock / try_to_lock guards are not
/// recorded.
struct LockSite {
  std::string mutexName;       // identifier at the guard site (e.g. "mutex_")
  std::size_t scopeBegin = 0;  // token index just past the guard declaration
  std::size_t scopeEnd = 0;    // token index of the '}' that releases it
};

struct FunctionInfo {
  std::string name;       // unqualified (constructors keep the class name)
  std::string qualified;  // Class::name, or name outside a class
  std::size_t line = 0;
  std::size_t bodyBegin = 0;  // token index of the opening '{'
  std::size_t bodyEnd = 0;    // token index one past the closing '}'
  std::vector<LockSite> locks;
};

struct FileIndex {
  std::string path;
  std::vector<Token> tokens;
  Suppressions suppressions;
  std::vector<FunctionInfo> functions;
  /// Variables declared as unordered_map/unordered_set (R5 harvest).
  std::set<std::string> unorderedDecls;
};

struct RepoIndex {
  std::vector<FileIndex> files;
};

/// Phase 1: lex and index every file.
RepoIndex buildIndex(const std::vector<SourceFile>& files);

}  // namespace avd::lint
