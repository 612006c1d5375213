// Malformed-input corpus for the decoders that read bytes from outside the
// process: journal lines, fleet frames (a `--remote` worker is an
// unauthenticated peer), and the manifest and checkpoint of a campaign
// directory.
//
// Each decoder gets one valid instance of every input, truncated at every
// offset and with each bit flipped in turn. It must return nullopt, or a
// value that passes the checks its callers rely on: a decoded done outcome
// has no outcomeDefect, and a manifest's mode is "process" or "fleet" and
// its minImpact finite.
// Totality (no crash, no undefined behaviour) is checked by the sanitizer
// trees, which run this suite.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "campaign/fleet/protocol.h"
#include "campaign/journal.h"

namespace avd::campaign {
namespace {

using Corpus = std::vector<std::pair<std::string, std::string>>;

/// One valid instance of every line a journal or a fleet socket carries.
Corpus lineCorpus() {
  GenEvent gen;
  gen.test = 17;
  gen.point = {3, 0, 41};
  gen.generatedBy = "mutation";
  gen.parentImpact = 0.625;
  gen.pluginIndex = 2;

  DoneEvent done;
  done.test = 17;
  done.outcome.impact = 0.8125;
  done.outcome.throughputRps = 312.5;
  done.outcome.avgLatencySec = 0.0375;
  done.outcome.viewChanges = 4;
  done.outcome.restarts = 2;
  done.outcome.recoveryLatencySec = 0.25;
  done.outcome.queueDrops = 96;
  done.outcome.quotaDrops = 8;
  done.outcome.safetyViolated = true;
  done.outcome.safetyWitness = "seq=5 r0=00000000deadbeef[votes 0.1.2]";
  done.bestImpact = 0.875;
  done.error = "none \"quoted\"";

  fleet::Welcome welcome;
  welcome.slot = 3;
  welcome.incarnation = 7;
  welcome.system = "pbft-twins";
  welcome.seed = 2011;
  welcome.outDir = "/tmp/run \"a\"\\b";
  welcome.heartbeatMs = 125;

  fleet::Assign assign;
  assign.test = 42;
  assign.point = {0, 19, 3};

  return {
      {"gen", encodeGen(gen)},
      {"done", encodeDone(done)},
      {"hello", fleet::encodeHello(fleet::Hello{})},
      {"welcome", fleet::encodeWelcome(welcome)},
      {"assign", fleet::encodeAssign(assign)},
      {"heartbeat", fleet::encodeHeartbeat()},
      {"shutdown", fleet::encodeShutdown()},
  };
}

/// Every truncation (lengths 0 .. size - 1) and every single-bit flip.
template <typename Check>
void forEachMutant(const std::string& valid, Check check) {
  for (std::size_t length = 0; length < valid.size(); ++length) {
    check(valid.substr(0, length), "truncated to", length);
  }
  for (std::size_t bit = 0; bit < valid.size() * 8; ++bit) {
    std::string mutant = valid;
    mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
    check(mutant, "bit flipped at", bit);
  }
}

/// Runs every line decoder on `line`; fails on an accepted unsound value.
void expectLineRejectedOrSound(const std::string& line,
                               const std::string& what) {
  if (const auto event = decodeLine(line);
      event && event->kind == JournalEvent::Kind::kDone) {
    EXPECT_EQ(outcomeDefect(event->done.outcome), "") << what;
  }
  (void)fleet::kindOf(line);
  (void)fleet::decodeHello(line);
  (void)fleet::decodeWelcome(line);
  (void)fleet::decodeAssign(line);
}

std::string scratchDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "avd_decoder_corpus" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void writeFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  ASSERT_TRUE(out.good()) << path;
}

Manifest sampleManifest() {
  Manifest manifest;
  manifest.system = "pbft-churn";
  manifest.seed = 7;
  manifest.totalTests = 160;
  manifest.workers = 2;
  manifest.checkpointEvery = 16;
  manifest.scenarioTimeoutMs = 2500;
  manifest.minImpact = 0.25;
  manifest.mode = "fleet";
  manifest.batch = 4;
  manifest.spawn = 2;
  manifest.heartbeatMs = 200;
  return manifest;
}

Checkpoint sampleCheckpoint() {
  Checkpoint checkpoint;
  checkpoint.generated = 40;
  checkpoint.completed = 32;
  checkpoint.maxImpact = 0.921875;
  checkpoint.respawns = 1;
  checkpoint.reassigned = 2;
  checkpoint.workerCrashes = 3;
  checkpoint.safetyViolations = 5;
  return checkpoint;
}

TEST(DecoderCorpus, ValidInstancesDecode) {
  const Corpus lines = lineCorpus();
  // Every line but the gen line is a fleet frame (a done line is the
  // outcome frame).
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_NE(fleet::kindOf(lines[i].second), fleet::MessageKind::kUnknown)
        << lines[i].first;
  }
  EXPECT_TRUE(decodeLine(lines[0].second).has_value());
  EXPECT_TRUE(decodeLine(lines[1].second).has_value());
  EXPECT_TRUE(fleet::decodeHello(lines[2].second).has_value());
  EXPECT_TRUE(fleet::decodeWelcome(lines[3].second).has_value());
  EXPECT_TRUE(fleet::decodeAssign(lines[4].second).has_value());
  EXPECT_EQ(fleet::kindOf(lines[5].second), fleet::MessageKind::kHeartbeat);

  const std::string dir = scratchDir("valid");
  ASSERT_TRUE(writeManifest(dir, sampleManifest()));
  ASSERT_TRUE(writeCheckpoint(dir, sampleCheckpoint()));
  EXPECT_TRUE(loadManifest(dir).has_value());
  EXPECT_TRUE(loadCheckpoint(dir).has_value());
  std::filesystem::remove_all(dir);
}

TEST(DecoderCorpus, MutatedLinesAreRejectedOrSound) {
  for (const auto& entry : lineCorpus()) {
    forEachMutant(entry.second, [&entry](const std::string& mutant,
                                         const char* how, std::size_t at) {
      expectLineRejectedOrSound(
          mutant, entry.first + " " + how + " " + std::to_string(at));
    });
  }
}

TEST(DecoderCorpus, MutatedManifestsAndCheckpointsAreRejectedOrSound) {
  const std::string dir = scratchDir("mutants");
  ASSERT_TRUE(writeManifest(dir, sampleManifest()));
  ASSERT_TRUE(writeCheckpoint(dir, sampleCheckpoint()));
  const std::string manifest = readFile(manifestPath(dir));
  const std::string checkpoint = readFile(checkpointPath(dir));
  ASSERT_FALSE(manifest.empty());
  ASSERT_FALSE(checkpoint.empty());

  forEachMutant(manifest, [&](const std::string& mutant, const char* how,
                              std::size_t at) {
    writeFile(manifestPath(dir), mutant);
    if (const auto loaded = loadManifest(dir)) {
      EXPECT_EQ(loaded->version, 1u)
          << "manifest " << how << " " << at << ": version "
          << loaded->version;
      EXPECT_TRUE(loaded->mode == "process" || loaded->mode == "fleet")
          << "manifest " << how << " " << at << ": mode " << loaded->mode;
      EXPECT_TRUE(std::isfinite(loaded->minImpact))
          << "manifest " << how << " " << at << ": minImpact "
          << loaded->minImpact;
    }
  });
  forEachMutant(checkpoint, [&](const std::string& mutant, const char*,
                                std::size_t) {
    writeFile(checkpointPath(dir), mutant);
    (void)loadCheckpoint(dir);
  });
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace avd::campaign
