// avd_lint CLI — walks source trees, runs the rule set, prints findings.
//
// Usage:
//   avd_lint [--json] [--include-suppressed] [--list-rules]
//            [--gen-events out.h] [--check-events checked-in.h]
//            <path>...
//
// Paths may be files or directories (directories are walked recursively for
// .h/.cpp files). Exit status is 0 when no unsuppressed finding exists,
// 1 when violations remain, 2 on usage/IO errors — so a CTest entry is just
// `avd_lint ${CMAKE_SOURCE_DIR}/src`.
//
// With --gen-events, the protocol-event taxonomy extracted from the given
// paths is written to the output header (src/avd/gen/protocol_events.h in
// the tree) instead of linting. --check-events regenerates the taxonomy
// and diffs it against the checked-in header: exit 1 on drift (the
// `lint.gen` CTest gate).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "index.h"
#include "lint.h"
#include "model.h"

namespace {

namespace fs = std::filesystem;
using avd::lint::Finding;
using avd::lint::SourceFile;

bool isSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

bool readFile(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

int usage() {
  std::cerr << "usage: avd_lint [--json] [--include-suppressed] "
               "[--list-rules] [--gen-events out.h] "
               "[--check-events checked-in.h] <file-or-dir>...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool includeSuppressed = false;
  std::string genEventsPath;
  std::string checkEventsPath;
  std::vector<fs::path> roots;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--include-suppressed") {
      includeSuppressed = true;
    } else if (arg == "--gen-events") {
      if (i + 1 >= argc) {
        std::cerr << "avd_lint: --gen-events requires an output path\n";
        return usage();
      }
      genEventsPath = argv[++i];
    } else if (arg == "--check-events") {
      if (i + 1 >= argc) {
        std::cerr << "avd_lint: --check-events requires the checked-in "
                     "header path\n";
        return usage();
      }
      checkEventsPath = argv[++i];
    } else if (arg == "--list-rules") {
      for (const auto& rule : avd::lint::ruleRegistry()) {
        std::cout << rule.id << "\t" << rule.summary << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "avd_lint: unknown flag '" << arg << "'\n";
      return usage();
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) return usage();

  std::vector<SourceFile> files;
  for (const fs::path& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (fs::recursive_directory_iterator it(root, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file() && isSourceFile(it->path())) {
          files.push_back({it->path().generic_string(), {}});
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.push_back({root.generic_string(), {}});
    } else {
      std::cerr << "avd_lint: cannot access '" << root.string() << "'\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  for (SourceFile& file : files) {
    if (!readFile(file.path, file.text)) {
      std::cerr << "avd_lint: cannot read '" << file.path << "'\n";
      return 2;
    }
  }

  if (!genEventsPath.empty() || !checkEventsPath.empty()) {
    const avd::lint::RepoIndex index = avd::lint::buildIndex(files);
    const avd::lint::ProtocolModel model = avd::lint::extractModel(index);
    const std::string header = avd::lint::generateEventsHeader(model);
    if (!genEventsPath.empty()) {
      std::ofstream out(genEventsPath, std::ios::binary);
      if (!out || !(out << header)) {
        std::cerr << "avd_lint: cannot write '" << genEventsPath << "'\n";
        return 2;
      }
      return 0;
    }
    std::string checkedIn;
    if (!readFile(checkEventsPath, checkedIn)) {
      std::cerr << "avd_lint: cannot read '" << checkEventsPath << "'\n";
      return 2;
    }
    if (checkedIn != header) {
      std::cerr << "avd_lint: '" << checkEventsPath
                << "' is stale: the protocol-event taxonomy extracted from "
                   "the sources differs from the checked-in header.\n"
                   "Regenerate with: avd_lint --gen-events "
                << checkEventsPath << " <paths>\n";
      return 1;
    }
    return 0;
  }

  avd::lint::Options options;
  options.includeSuppressed = includeSuppressed;
  const std::vector<Finding> findings = avd::lint::lintFiles(files, options);

  if (json) {
    std::cout << avd::lint::toJson(findings);
  } else {
    for (const Finding& finding : findings) {
      std::cout << finding.file << ":" << finding.line << ": ["
                << finding.rule << (finding.suppressed ? ", suppressed" : "")
                << "] " << finding.message << "\n";
    }
    const std::size_t bad = avd::lint::unsuppressedCount(findings);
    std::cout << files.size() << " files scanned, " << bad
              << " unsuppressed finding(s)\n";
  }
  return avd::lint::unsuppressedCount(findings) == 0 ? 0 : 1;
}
