// avd_lint phase 1 — repo-wide semantic index.
//
// Phase 1 walks every translation unit once and extracts the facts the
// cross-file rules reason over: function definitions (with owning class),
// mutex declarations (class members, locals, globals), RAII lock-acquisition
// sites with their lexical scopes, call sites with the set of locks held at
// the call, and `ByteReader` read sites. Phase 2 (lint.cpp) runs the
// rule families over the finished index; nothing in this module reports
// findings except the lexer's directive errors carried through.
//
// The index is deliberately an over-approximation: scopes are tracked by
// brace depth, lambdas are attributed to their enclosing function, and
// callees are resolved by unqualified name. Rules that consume it are
// written so the over-approximation can only widen, never miss, a class of
// defect — and every rule remains suppressible at the witness line.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"
#include "lint.h"

namespace avd::lint {

/// A scoped RAII guard acquisition (lock_guard/unique_lock/scoped_lock).
struct LockSite {
  std::string mutexName;     // identifier at the guard site (e.g. "mutex_")
  std::string mutexId;       // canonical identity, resolved by finishIndex()
  std::size_t scopeDepth = 0;  // brace depth where the guard lives
  bool deferred = false;       // std::defer_lock / try_to_lock: not acquired
};

/// A call site inside a function body, with the locks held at that token.
struct CallSite {
  std::string callee;  // unqualified name
  std::size_t tokenIndex = 0;
  std::size_t line = 0;
  std::vector<std::size_t> heldLocks;  // indices into FunctionInfo::locks
};

struct FunctionInfo {
  std::string name;       // unqualified (constructors keep the class name)
  std::string owner;      // qualifying/enclosing class, may be empty
  std::string qualified;  // owner::name or name
  std::size_t line = 0;
  std::size_t bodyBegin = 0;  // token index of the opening '{'
  std::size_t bodyEnd = 0;    // token index one past the closing '}'
  std::vector<LockSite> locks;
  std::vector<CallSite> calls;
  std::set<std::string> localMutexes;  // mutexes declared in the body
};

struct FileIndex {
  std::string path;
  std::vector<Token> tokens;
  Suppressions suppressions;
  std::vector<FunctionInfo> functions;
  /// class -> mutex member names declared in this file.
  std::map<std::string, std::set<std::string>> classMutexMembers;
  /// Namespace-scope mutexes declared in this file.
  std::set<std::string> globalMutexes;
  /// Variables declared as unordered_map/unordered_set (R5 harvest).
  std::set<std::string> unorderedDecls;
};

struct RepoIndex {
  std::vector<FileIndex> files;
  /// Merged across files: class -> mutex member names.
  std::map<std::string, std::set<std::string>> classMutexMembers;
  /// Merged namespace-scope mutexes.
  std::set<std::string> globalMutexes;
  /// Unqualified function name -> (file index, function index) definitions.
  std::multimap<std::string, std::pair<std::size_t, std::size_t>>
      functionsByName;
};

/// Phase 1: lex and index every file, then resolve mutex identities
/// (member locks to "Class::name", locals to "function:name") across the
/// whole set.
RepoIndex buildIndex(const std::vector<SourceFile>& files);

}  // namespace avd::lint
