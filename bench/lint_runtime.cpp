// avd_lint end-to-end analysis throughput over the real tree. The engine
// re-indexes every translation unit on every run (no incremental cache),
// so the whole-tree wall clock IS the developer-facing latency of the
// lint.src gate. Budget: a full src/ + tools/ + bench/ pass through all
// five phases must stay under 5 seconds.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "index.h"
#include "lexer.h"
#include "lint.h"
#include "model.h"

namespace fs = std::filesystem;

namespace {

bool isSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cpp" || ext == ".cc";
}

std::vector<avd::lint::SourceFile> loadTree(const fs::path& root) {
  std::vector<avd::lint::SourceFile> files;
  for (const char* sub : {"src", "tools", "bench"}) {
    const fs::path base = root / sub;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file() || !isSourceFile(entry.path())) continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      files.push_back({fs::relative(entry.path(), root).generic_string(),
                       buffer.str()});
    }
  }
  return files;
}

// Wall-clock timing is the entire point of a throughput benchmark; the
// measured numbers never feed a consensus decision.
double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now()  // avd-lint: allow(nondeterminism)
                 .time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path root = argc > 1 ? fs::path(argv[1]) : fs::path(".");
  const auto files = loadTree(root);
  if (files.empty()) {
    std::fprintf(stderr,
                 "lint_runtime: no sources under %s (run from the repo root "
                 "or pass it as argv[1])\n",
                 root.string().c_str());
    return 2;
  }

  std::size_t totalLines = 0;
  for (const auto& file : files) {
    totalLines += static_cast<std::size_t>(
        std::count(file.text.begin(), file.text.end(), '\n'));
  }

  // Phase 0 alone (tokenize every TU) isolates the lexer's share of the
  // budget from the index + rules share.
  const auto lexStart = now();
  std::size_t tokens = 0;
  for (const auto& file : files) {
    tokens += avd::lint::lex(file.path, file.text).tokens.size();
  }
  const double lexSeconds = now() - lexStart;

  // Phase 1 (semantic index) and phase 3 (protocol model), timed directly:
  // the v3 model extractor walks the whole index, so its share of the
  // budget must be visible before it can quietly eat the headroom.
  const auto indexStart = now();
  const avd::lint::RepoIndex index = avd::lint::buildIndex(files);
  const double indexSeconds = now() - indexStart;

  const auto modelStart = now();
  const avd::lint::ProtocolModel model = avd::lint::extractModel(index);
  const double modelSeconds = now() - modelStart;
  const std::size_t modelKinds = model.kinds.size();
  const std::size_t modelTransitions = model.transitions.size();

  // Full pipeline, best of three (first run warms the page cache).
  constexpr int kRuns = 3;
  double bestSeconds = 0.0;
  std::size_t findings = 0;
  for (int run = 0; run < kRuns; ++run) {
    const auto start = now();
    const auto result = avd::lint::lintFiles(files);
    const double seconds = now() - start;
    if (run == 0 || seconds < bestSeconds) bestSeconds = seconds;
    findings = avd::lint::unsuppressedCount(result);
  }

  constexpr double kBudgetSeconds = 5.0;
  const bool withinBudget = bestSeconds < kBudgetSeconds;
  // The rules' share is the pipeline remainder after the phases measured
  // in isolation (clamped: the isolated runs are not the same wall clock).
  const double rulesSeconds =
      std::max(0.0, bestSeconds - lexSeconds - indexSeconds - modelSeconds);

  std::printf("=== avd_lint full-tree analysis ===\n");
  std::printf("files:            %zu\n", files.size());
  std::printf("lines:            %zu\n", totalLines);
  std::printf("tokens:           %zu\n", tokens);
  std::printf("lex only:         %.3f s\n", lexSeconds);
  std::printf("index only:       %.3f s\n", indexSeconds);
  std::printf("model only:       %.3f s (%zu kinds, %zu transitions)\n",
              modelSeconds, modelKinds, modelTransitions);
  std::printf("rules (residual): %.3f s\n", rulesSeconds);
  std::printf("full pipeline:    %.3f s (best of %d)\n", bestSeconds, kRuns);
  std::printf("throughput:       %.0f lines/s\n",
              bestSeconds > 0.0 ? totalLines / bestSeconds : 0.0);
  std::printf("unsuppressed:     %zu finding(s)\n", findings);
  std::printf("budget:           %s (< %.1f s)\n",
              withinBudget ? "PASS" : "FAIL", kBudgetSeconds);

  return withinBudget ? 0 : 1;
}
