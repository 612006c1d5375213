// avd_lint rule-engine tests.
//
// Every rule class is demonstrated twice: against an on-disk fixture under
// tests/lint_fixtures/ with seeded violations (the "would the gate have
// caught this" proof), and against inline snippets pinning down edge cases
// of the tokenizer, the suppression syntax, and the reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "effects.h"
#include "index.h"
#include "lexer.h"
#include "lint.h"

namespace avd::lint {
namespace {

std::string readFixture(const std::string& name) {
  const std::string path = std::string(AVD_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Lints one fixture under a pretend repo path (path scoping is part of
/// several rules).
std::vector<Finding> lintFixture(const std::string& name,
                                 const std::string& pretendPath,
                                 const Options& options = {}) {
  return lintSource(pretendPath, readFixture(name), options);
}

std::size_t countRule(const std::vector<Finding>& findings,
                      std::string_view rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

// --- Registry ---------------------------------------------------------------

TEST(LintRegistry, ContainsTheThirteenRulesPlusMeta) {
  const auto& rules = ruleRegistry();
  ASSERT_EQ(rules.size(), 14u);
  EXPECT_TRUE(isKnownRule("syscall-discipline"));
  EXPECT_TRUE(isKnownRule("durability-ordering"));
  EXPECT_TRUE(isKnownRule("blocking-under-lock"));
  EXPECT_TRUE(isKnownRule("quorum-consistency"));
  EXPECT_TRUE(isKnownRule("event-coverage"));
  EXPECT_TRUE(isKnownRule("nondeterminism"));
  EXPECT_TRUE(isKnownRule("unchecked-parse"));
  EXPECT_TRUE(isKnownRule("uncapped-reserve"));
  EXPECT_TRUE(isKnownRule("naked-lock"));
  EXPECT_TRUE(isKnownRule("unordered-iter"));
  EXPECT_TRUE(isKnownRule("detached-thread"));
  EXPECT_TRUE(isKnownRule("tainted-size"));
  EXPECT_TRUE(isKnownRule("stale-suppression"));
  EXPECT_TRUE(isKnownRule("bad-suppression"));
  // Unused ids: an allow() naming one of these is a bad-suppression.
  for (const char* gone : {"lock-order", "timer-capture", "wire-symmetry",
                           "handler-exhaustive", "determinism-boundary"}) {
    EXPECT_FALSE(isKnownRule(gone)) << gone;
  }
  EXPECT_FALSE(isKnownRule("no-such-rule"));
}

// --- R1 nondeterminism -------------------------------------------------------

TEST(LintR1, FixtureSeedsThreeViolationsAndNoFalsePositives) {
  const auto findings =
      lintFixture("nondeterminism.cc", "src/avd/fixture.cpp");
  EXPECT_EQ(countRule(findings, "nondeterminism"), 5u)
      << "rand, srand, time, random_device, steady_clock";
  EXPECT_EQ(findings.size(), countRule(findings, "nondeterminism"))
      << "no other rule fires on this fixture";
  // R1 is not scoped to the replay core: the same leaves fire anywhere
  // outside common/rng.
  EXPECT_EQ(countRule(lintFixture("nondeterminism.cc",
                                  "src/campaign/stats_fixture.cpp"),
                      "nondeterminism"),
            5u);
}

TEST(LintR1, CommonRngIsExempt) {
  const auto findings = lintSource(
      "src/common/rng.cpp", "void f() { auto x = rand(); (void)x; }");
  EXPECT_EQ(countRule(findings, "nondeterminism"), 0u);
}

TEST(LintR1, QualifiedNamesOutsideStdAreNotFlagged) {
  const auto findings = lintSource(
      "src/avd/a.cpp", "int f() { return sim::time(3) + obj.rand(); }");
  EXPECT_EQ(countRule(findings, "nondeterminism"), 0u);
  const auto flagged =
      lintSource("src/avd/a.cpp", "int g() { return std::rand(); }");
  EXPECT_EQ(countRule(flagged, "nondeterminism"), 1u);
}

// --- R2 unchecked-parse ------------------------------------------------------

TEST(LintR2, FixtureSeedsDeclAndDiscardViolations) {
  const auto findings =
      lintFixture("unchecked_parse.cc", "src/pbft/parse_fixture.cpp");
  EXPECT_EQ(countRule(findings, "unchecked-parse"), 2u)
      << "optional decl without nodiscard, dropped reader.u32()";
}

TEST(LintR2, NodiscardDeclarationsPass) {
  const auto findings = lintSource(
      "src/x/a.h",
      "[[nodiscard]] std::optional<int> parse();\n"
      "std::optional<int> alsoParse();\n");
  EXPECT_EQ(countRule(findings, "unchecked-parse"), 1u);
}

TEST(LintR2, OutOfLineDefinitionsAreNotReflagged) {
  const auto findings = lintSource(
      "src/x/a.cpp",
      "std::optional<int> Parser::field() { return value_; }\n");
  EXPECT_EQ(countRule(findings, "unchecked-parse"), 0u);
}

TEST(LintR2, CheckedReaderResultIsNotFlagged) {
  const auto findings = lintSource(
      "src/x/a.cpp",
      "bool f(util::ByteReader& reader) {\n"
      "  const auto v = reader.u32();\n"
      "  return v.has_value();\n"
      "}\n");
  EXPECT_EQ(countRule(findings, "unchecked-parse"), 0u);
}

// --- R3 uncapped-reserve -----------------------------------------------------

TEST(LintR3, FixtureSeedsReserveAndResizeViolations) {
  const auto findings =
      lintFixture("uncapped_reserve.cc", "src/pbft/fixture.cpp");
  EXPECT_EQ(countRule(findings, "uncapped-reserve"), 2u)
      << "uncapped reserve + uncapped resize; the clamped and literal "
         "variants pass";
}

TEST(LintR3, BinaryMultiplyIsNotADeref) {
  const auto findings = lintSource(
      "src/x/a.cpp", "void f() { out.reserve(data.size() * 2); }");
  EXPECT_EQ(countRule(findings, "uncapped-reserve"), 0u);
}

// --- R4 naked-lock -----------------------------------------------------------

TEST(LintR4, FixtureSeedsFourViolationsRaiiPasses) {
  const auto findings = lintFixture("naked_lock.cc", "src/common/fixture.cpp");
  EXPECT_EQ(countRule(findings, "naked-lock"), 4u)
      << "lock, unlock, try_lock, unlock-via-accessor";
}

TEST(LintR4, LockGuardOnNonMutexNameIsNotFlagged) {
  const auto findings = lintSource(
      "src/x/a.cpp",
      "void f() { std::unique_lock<std::mutex> lock(m_); lock.unlock(); }");
  EXPECT_EQ(countRule(findings, "naked-lock"), 0u)
      << "unlocking a unique_lock handle is RAII-safe";
}

// --- R5 unordered-iter -------------------------------------------------------

TEST(LintR5, FixtureSeedsRangeForAndIteratorViolations) {
  const auto findings =
      lintFixture("unordered_iter.cc", "src/pbft/replica.cpp");
  EXPECT_EQ(countRule(findings, "unordered-iter"), 2u)
      << "range-for over unordered_map + .begin() on unordered_set; the "
         "std::map loop and the point lookup pass";
}

TEST(LintR5, SameCodeOutsideTheScopedFilesIsAllowed) {
  const auto findings =
      lintFixture("unordered_iter.cc", "src/avd/somewhere_else.cpp");
  EXPECT_EQ(countRule(findings, "unordered-iter"), 0u);
}

TEST(LintR5, DeclarationInHeaderIsTrackedAcrossFiles) {
  const std::vector<SourceFile> files = {
      {"src/pbft/replica.h",
       "class R { std::unordered_map<int, int> votes_; };"},
      {"src/pbft/replica.cpp",
       "int R::f() { int s = 0; for (auto& [k, v] : votes_) s += v; "
       "return s; }"},
  };
  const auto findings = lintFiles(files);
  EXPECT_EQ(countRule(findings, "unordered-iter"), 1u);
}

TEST(LintR5, CampaignRunnerIsInScope) {
  for (const char* path :
       {"src/campaign/runner.cpp", "src/campaign/ledger.cpp"}) {
    const auto findings = lintFixture("unordered_iter.cc", path);
    EXPECT_EQ(countRule(findings, "unordered-iter"), 2u)
        << path << ": the campaign driver loop and the ledger's fold are "
           "ordering-sensitive: journal replay must see the same "
           "interleaving every run";
  }
}

TEST(LintR5, CampaignHeaderDeclarationsAreTrackedAcrossFiles) {
  const std::vector<SourceFile> files = {
      {"src/campaign/runner.h",
       "class C { std::unordered_map<int, int> inFlight_; };"},
      {"src/campaign/runner.cpp",
       "int C::f() { int s = 0; for (auto& [k, v] : inFlight_) s += v; "
       "return s; }"},
  };
  const auto findings = lintFiles(files);
  EXPECT_EQ(countRule(findings, "unordered-iter"), 1u);
}

TEST(LintR5, ChurnAndDedupSourcesAreInScope) {
  // The crash-recovery additions are ordering-sensitive too: churn books
  // simulator events and dedup orders the triage report.
  for (const char* path :
       {"src/faultinject/churn.cpp", "src/campaign/dedup.cpp"}) {
    const auto findings = lintFixture("unordered_iter.cc", path);
    EXPECT_EQ(countRule(findings, "unordered-iter"), 2u) << path;
  }
}

TEST(LintR5, FloodAndNetworkSchedulerSourcesAreInScope) {
  // The resource-exhaustion additions book simulator events (flood tools)
  // and pick the next ingress lane to service (network scheduler): hash
  // iteration order there would break same-seed replay of flood campaigns.
  for (const char* path :
       {"src/faultinject/flood.cpp", "src/sim/network.cpp"}) {
    const auto findings = lintFixture("unordered_iter.cc", path);
    EXPECT_EQ(countRule(findings, "unordered-iter"), 2u) << path;
  }
}

TEST(LintR5, TwinsSourcesAreInScope) {
  // The twins tool mints replicas and installs the partition-side router:
  // hash iteration there would make the equivocation schedule — and hence
  // which safety violations a seed finds — replay-dependent.
  const auto findings =
      lintFixture("unordered_iter.cc", "src/faultinject/twins.cpp");
  EXPECT_EQ(countRule(findings, "unordered-iter"), 2u);
}

TEST(LintR5, TwinsHeaderDeclarationsAreTrackedAcrossFiles) {
  const std::vector<SourceFile> files = {
      {"src/faultinject/twins.h",
       "class T { std::unordered_map<int, int> sides_; };"},
      {"src/faultinject/twins.cpp",
       "int T::f() { int s = 0; for (auto& [k, v] : sides_) s += v; "
       "return s; }"},
  };
  const auto findings = lintFiles(files);
  EXPECT_EQ(countRule(findings, "unordered-iter"), 1u);
}

TEST(LintR5, FloodHeaderDeclarationsAreTrackedAcrossFiles) {
  const std::vector<SourceFile> files = {
      {"src/faultinject/flood.h",
       "class F { std::unordered_map<int, int> lanes_; };"},
      {"src/sim/network.cpp",
       "int F::f() { int s = 0; for (auto& [k, v] : lanes_) s += v; "
       "return s; }"},
  };
  const auto findings = lintFiles(files);
  EXPECT_EQ(countRule(findings, "unordered-iter"), 1u);
}

TEST(LintR5, StableStorageHeaderDeclarationsAreTrackedAcrossFiles) {
  const std::vector<SourceFile> files = {
      {"src/pbft/stable_storage.h",
       "struct StableRecord { std::unordered_map<int, int> proofs_; };"},
      {"src/pbft/replica.cpp",
       "int g() { int s = 0; for (auto& [k, v] : proofs_) s += v; "
       "return s; }"},
  };
  const auto findings = lintFiles(files);
  EXPECT_EQ(countRule(findings, "unordered-iter"), 1u);
}

// --- R6 detached-thread ------------------------------------------------------

TEST(LintR6, FixtureSeedsThreeViolationsJoinAndFreeCallPass) {
  const auto findings =
      lintFixture("detached_thread.cc", "src/campaign/fixture.cpp");
  EXPECT_EQ(countRule(findings, "detached-thread"), 3u)
      << "member detach, pointer detach, temporary fire-and-forget";
  EXPECT_EQ(findings.size(), countRule(findings, "detached-thread"))
      << "join() and the free function detach(int) must not fire";
}

TEST(LintR6, AppliesRepoWideNotJustCampaign) {
  const auto findings = lintSource(
      "src/sim/net.cpp", "void f(std::thread& t) { t.detach(); }");
  EXPECT_EQ(countRule(findings, "detached-thread"), 1u);
}

TEST(LintR6, DetachAsValueOrMemberNameIsNotFlagged) {
  const auto findings = lintSource(
      "src/x/a.cpp",
      "bool detach = false;\n"
      "void f() { if (detach) return; config.detach = true; }\n");
  EXPECT_EQ(countRule(findings, "detached-thread"), 0u)
      << "only member *calls* named detach are thread detaches";
}

// --- Suppressions ------------------------------------------------------------

TEST(LintSuppression, FixtureHasFindingsButAllSuppressed) {
  Options options;
  options.includeSuppressed = true;
  const auto all =
      lintFixture("suppressed.cc", "src/common/fixture.cpp", options);
  EXPECT_GE(all.size(), 5u) << "violations are still detected";
  EXPECT_EQ(unsuppressedCount(all), 0u) << "but every one is allowed";

  const auto visible = lintFixture("suppressed.cc", "src/common/fixture.cpp");
  EXPECT_TRUE(visible.empty())
      << "default report hides suppressed findings entirely";
}

TEST(LintSuppression, UnknownRuleNameInAllowIsItselfAFinding) {
  const auto findings = lintSource(
      "src/x/a.cpp", "void f() { }  // avd-lint: allow(nacked-lock)\n");
  EXPECT_EQ(countRule(findings, "bad-suppression"), 1u)
      << "typo'd suppressions must not silently pass";
}

TEST(LintSuppression, DirectiveOnlyCoversItsOwnLine) {
  const auto findings = lintSource(
      "src/x/a.cpp",
      "void f() {\n"
      "  mutex_.lock();  // avd-lint: allow(naked-lock)\n"
      "  mutex_.unlock();\n"
      "}\n");
  EXPECT_EQ(unsuppressedCount(findings), 1u) << "second line still fires";
}

// --- Clean fixture and machine-readable report -------------------------------

TEST(LintClean, IdiomaticCodeProducesZeroFindings) {
  const auto findings = lintFixture("clean.cc", "src/pbft/replica.cpp");
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : findings.front().message);
}

TEST(LintReport, JsonContainsFileLineRuleAndMessage) {
  const auto findings = lintSource(
      "src/x/a.cpp", "void f() { mutex_.lock(); }");
  ASSERT_EQ(findings.size(), 1u);
  const std::string json = toJson(findings);
  EXPECT_NE(json.find("\"file\": \"src/x/a.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"naked-lock\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": false"), std::string::npos);
}

TEST(LintReport, JsonEscapesQuotesAndBackslashes) {
  std::vector<Finding> findings = {
      {"a\"b\\c.cpp", 3, "naked-lock", "msg with \"quotes\"", false}};
  const std::string json = toJson(findings);
  EXPECT_NE(json.find("a\\\"b\\\\c.cpp"), std::string::npos);
}

// --- Tokenizer robustness ----------------------------------------------------

TEST(LintTokenizer, ViolationsInsideStringsAndCommentsAreIgnored) {
  const auto findings = lintSource(
      "src/x/a.cpp",
      "const char* kDoc = \"call rand() then mutex_.lock()\";\n"
      "// rand() in a comment\n"
      "/* mutex_.lock() in a block comment */\n"
      "const char* kRaw = R\"(time(nullptr))\";\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintTokenizer, RawStringWithDelimiterIsSkipped) {
  const auto findings = lintSource(
      "src/x/a.cpp",
      "const char* kRaw = R\"x(rand() \")\" still inside)x\";\n"
      "void f() { mutex_.lock(); }\n");
  EXPECT_EQ(countRule(findings, "naked-lock"), 1u)
      << "lexer resynchronizes after the raw string";
  EXPECT_EQ(countRule(findings, "nondeterminism"), 0u);
}

// --- R9 tainted-size ---------------------------------------------------------

TEST(LintR9, FixtureSeedsUnclampedReserveAndLoopBound) {
  const auto findings = lintFixture("tainted_size.cc", "src/pbft/service.cpp");
  EXPECT_EQ(countRule(findings, "tainted-size"), 2u);
}

TEST(LintR9, FloodToolSourcesAreCovered) {
  // R9 is repo-wide, but pin the flood tools explicitly: they synthesize
  // wire payloads from attacker-chosen sizes, exactly the shape R9 guards.
  const auto findings =
      lintFixture("tainted_size.cc", "src/faultinject/flood.cpp");
  EXPECT_EQ(countRule(findings, "tainted-size"), 2u);
}

TEST(LintR9, ClampedAndRemainingValidatedFlowsAreClean) {
  const auto findings =
      lintFixture("tainted_size_clean.cc", "src/pbft/service.cpp");
  EXPECT_EQ(countRule(findings, "tainted-size"), 0u);
}

TEST(LintR9, RemainingDivisorClampSanitizes) {
  // Regression for the KvService::restore fix: bounding the entry count by
  // remaining()/kMinEntryBytes counts as validation.
  const auto findings = lintSource(
      "src/pbft/service.cpp",
      "void restore(util::ByteReader& reader) {\n"
      "  constexpr std::uint64_t kMinEntryBytes = 8;\n"
      "  const auto count = reader.u64();\n"
      "  if (!count || *count > reader.remaining() / kMinEntryBytes) return;\n"
      "  for (std::uint64_t i = 0; i < *count; ++i) {\n"
      "    consume(i);\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(countRule(findings, "tainted-size"), 0u);
}

TEST(LintR9, UnclampedCountIntoLoopIsFlagged) {
  // The same shape without the remaining() check — the pre-fix
  // KvService::restore bug.
  const auto findings = lintSource(
      "src/pbft/service.cpp",
      "void restore(util::ByteReader& reader) {\n"
      "  const auto count = reader.u64();\n"
      "  if (!count) return;\n"
      "  for (std::uint64_t i = 0; i < *count; ++i) {\n"
      "    consume(i);\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(countRule(findings, "tainted-size"), 1u);
}

// --- R10 stale-suppression ---------------------------------------------------

TEST(LintR10, FixtureSeedsTrailingAndStandaloneDeadDirectives) {
  const auto findings =
      lintFixture("stale_suppression.cc", "src/pbft/state.cpp");
  EXPECT_EQ(countRule(findings, "stale-suppression"), 2u);
}

TEST(LintR10, LiveDirectivesAreNotFlagged) {
  // suppressed.cc's every allow() still covers a real finding.
  const auto findings = lintFixture("suppressed.cc", "src/pbft/node.cpp");
  EXPECT_EQ(countRule(findings, "stale-suppression"), 0u);
}

TEST(LintR10, StaleSuppressionCannotSuppressItself) {
  const auto findings = lintSource(
      "src/pbft/x.cpp",
      "int f() {\n"
      "  return 1;  // avd-lint: allow(nondeterminism) allow(stale-suppression)\n"
      "}\n");
  EXPECT_GE(countRule(findings, "stale-suppression"), 1u);
  EXPECT_EQ(unsuppressedCount(findings), findings.size());
}

// --- R13 quorum-consistency --------------------------------------------------

TEST(LintR13, FixtureSeedsNonCanonicalFormAndMagicNumber) {
  const auto findings =
      lintFixture("quorum_consistency.cc", "src/pbft/quorum_fixture.cpp");
  EXPECT_EQ(countRule(findings, "quorum-consistency"), 2u)
      << "3f+2 threshold and votes >= 3";
  EXPECT_EQ(findings.size(), countRule(findings, "quorum-consistency"))
      << "no other rule fires on this fixture";
}

TEST(LintR13, CanonicalCertificateFormulasAreClean) {
  const auto findings =
      lintFixture("quorum_consistency_clean.cc", "src/pbft/quorum_fixture.cpp");
  EXPECT_TRUE(findings.empty());
}

TEST(LintR13, QuorumScanIsScopedToPbftSources) {
  // The same magic comparison outside pbft/ is not a protocol quorum.
  const auto findings =
      lintFixture("quorum_consistency.cc", "src/sim/quorum_fixture.cpp");
  EXPECT_EQ(countRule(findings, "quorum-consistency"), 0u);
}

// --- R14 event-coverage ------------------------------------------------------

TEST(LintR14, TransitionWithoutEmissionIsFlagged) {
  const auto findings =
      lintFixture("event_coverage.cc", "src/pbft/replica_fixture.cpp");
  EXPECT_EQ(countRule(findings, "event-coverage"), 1u);
  EXPECT_EQ(findings.size(), countRule(findings, "event-coverage"))
      << "no other rule fires on this fixture";
}

TEST(LintR14, CounterIncrementAtTheTransitionIsClean) {
  const auto findings =
      lintFixture("event_coverage_clean.cc", "src/pbft/replica_fixture.cpp");
  EXPECT_TRUE(findings.empty());
}

TEST(LintR14, DeletingTheEmissionSiteBreaksTheCleanFixture) {
  // The acceptance property: removing the counter increment from a clean
  // transition must fail R14.
  std::string source = readFixture("event_coverage_clean.cc");
  const std::string emission = "++stats_.viewChangesInitiated;\n";
  const std::size_t at = source.find(emission);
  ASSERT_NE(at, std::string::npos);
  source.erase(at, emission.size());
  const auto findings = lintSource("src/pbft/replica_fixture.cpp", source);
  EXPECT_EQ(countRule(findings, "event-coverage"), 1u);
}

TEST(LintR14, PlainFlagAssignmentIsNotAnEmission) {
  // `inFlight_ = false` mentions no counter increment; only ++/+= count.
  const auto findings = lintSource(
      "src/pbft/replica_fixture.cpp",
      "void Replica::startViewChange() {\n"
      "  viewChangeInFlight_ = true;\n"
      "}\n");
  EXPECT_EQ(countRule(findings, "event-coverage"), 1u);
}

// --- R16 syscall-discipline --------------------------------------------------

TEST(LintR16, FixtureSeedsModuleAndInterruptibleViolations) {
  const auto findings =
      lintFixture("syscall_discipline.cc", "src/campaign/report_fixture.cpp");
  EXPECT_EQ(countRule(findings, "syscall-discipline"), 6u)
      << "4 module-boundary findings (open, read, read, close) + discarded "
         "read + read with no EINTR handling";
  EXPECT_EQ(findings.size(), countRule(findings, "syscall-discipline"))
      << "no other rule fires on this fixture";
}

TEST(LintR16, DesignatedModuleWithEintrRetryIsClean) {
  const auto findings = lintFixture("syscall_discipline_clean.cc",
                                    "src/common/framing_fixture.cpp");
  EXPECT_TRUE(findings.empty());
}

TEST(LintR16, DesignatedModuleKeepsOnlyTheInterruptibleFindings) {
  // Inside campaign/journal the module-boundary findings vanish; the two
  // interruptible-call findings are location-independent and stay.
  const auto findings =
      lintFixture("syscall_discipline.cc", "src/campaign/journal_fixture.cpp");
  EXPECT_EQ(countRule(findings, "syscall-discipline"), 2u);
}

// --- R17 durability-ordering -------------------------------------------------

TEST(LintR17, FixtureSeedsBareRenameAndAckBeforePersist) {
  const auto findings = lintFixture("durability_ordering.cc",
                                    "src/campaign/fleet/shard_fixture.cpp");
  EXPECT_EQ(countRule(findings, "durability-ordering"), 3u)
      << "missing fsync-before, missing parent-dir fsync-after, "
         "ack-before-persist";
  EXPECT_EQ(findings.size(), countRule(findings, "durability-ordering"))
      << "no other rule fires on this fixture";
}

TEST(LintR17, BarrieredRenameAndPersistFirstAreClean) {
  const auto findings = lintFixture("durability_ordering_clean.cc",
                                    "src/campaign/fleet/shard_fixture.cpp");
  EXPECT_TRUE(findings.empty());
}

TEST(LintR17, DroppingTheParentDirFsyncBreaksTheCleanFixture) {
  // The acceptance property: removing the post-rename directory barrier
  // from a clean writer must fail R17.
  std::string source = readFixture("durability_ordering_clean.cc");
  const std::string barrier = "return fsyncParentDir(path);";
  const std::size_t at = source.find(barrier);
  ASSERT_NE(at, std::string::npos);
  source.replace(at, barrier.size(), "return true;");
  const auto findings =
      lintSource("src/campaign/fleet/shard_fixture.cpp", source);
  EXPECT_EQ(countRule(findings, "durability-ordering"), 1u);
}

TEST(LintR17, RenameOutsideWriterScopeIsNotDurabilityCritical) {
  const auto findings =
      lintFixture("durability_ordering.cc", "src/campaign/report_fixture.cpp");
  EXPECT_EQ(countRule(findings, "durability-ordering"), 0u);
}

// --- R18 blocking-under-lock -------------------------------------------------

TEST(LintR18, FixtureSeedsSleepAndJoinUnderLock) {
  const auto findings = lintFixture("blocking_under_lock.cc",
                                    "src/campaign/fleet/pool_fixture.cpp");
  EXPECT_EQ(countRule(findings, "blocking-under-lock"), 2u)
      << "sleep_for under lock, thread join under lock";
  EXPECT_EQ(findings.size(), countRule(findings, "blocking-under-lock"))
      << "no other rule fires on this fixture";
}

TEST(LintR18, CondvarWaitAndPostGuardJoinAreClean) {
  const auto findings = lintFixture("blocking_under_lock_clean.cc",
                                    "src/campaign/fleet/pool_fixture.cpp");
  EXPECT_TRUE(findings.empty());
}

TEST(LintR18, BlockingCalleeResolvedAcrossTranslationUnits) {
  const std::vector<SourceFile> files = {
      {"src/campaign/fleet/wait_fixture.cpp",
       "#include <thread>\n"
       "void settle() {\n"
       "  std::this_thread::sleep_for(std::chrono::milliseconds(1));\n"
       "}\n"},
      {"src/campaign/fleet/pool_fixture.cpp",
       "#include <mutex>\n"
       "void settle();\n"
       "std::mutex gate;\n"
       "void tick() {\n"
       "  std::lock_guard<std::mutex> hold(gate);\n"
       "  settle();\n"
       "}\n"},
  };
  const auto findings = lintFiles(files);
  ASSERT_EQ(countRule(findings, "blocking-under-lock"), 1u);
  for (const Finding& f : findings) {
    if (f.rule != "blocking-under-lock") continue;
    EXPECT_EQ(f.file, "src/campaign/fleet/pool_fixture.cpp");
    EXPECT_NE(f.message.find("sleep_for"), std::string::npos)
        << "the witness chain reaches the true blocking leaf";
  }
}

// --- Effect inference --------------------------------------------------------

TEST(LintEffects, CommonRngMaskHoldsAcrossTranslationUnits) {
  // common/rng is the sanctioned randomness source: its functions are
  // masked to pure, so a caller in another TU imports no rng effect.
  std::vector<SourceFile> files = {
      {"src/common/rng/ambient_fixture.cpp",
       "unsigned ambientSeed() { return std::random_device{}(); }\n"},
      {"src/sim/sched_fixture.cpp",
       "unsigned ambientSeed();\n"
       "unsigned seedLane() { return ambientSeed() % 64; }\n"},
  };
  const auto seedLaneEffects = [](const std::vector<SourceFile>& set) {
    const RepoIndex index = buildIndex(set);
    const EffectIndex effects = inferEffects(index);
    return effects.fn[effects.flatIndex.at({1, 0})].total;
  };
  EXPECT_EQ(seedLaneEffects(files), 0u);
  EXPECT_EQ(countRule(lintFiles(files), "nondeterminism"), 0u);

  // The same helper outside common/rng leaks its rng effect to the caller.
  files[0].path = "src/campaign/ambient_fixture.cpp";
  EXPECT_EQ(seedLaneEffects(files), kEffectRng);
}

TEST(LintEffects, MapIgnoresShiftedLinesButNotANewEffect) {
  // The checked-in map (`--check-effects`) is keyed by file and function:
  // moving code leaves it as it is, and only a change of effects shows.
  std::vector<SourceFile> files = {
      {"src/campaign/settle_fixture.cpp",
       "#include <thread>\n"
       "void settle() {\n"
       "  std::this_thread::sleep_for(std::chrono::milliseconds(1));\n"
       "}\n"
       "int tally(int n) { return n + 1; }\n"},
  };
  const auto render = [](const std::vector<SourceFile>& set) {
    const RepoIndex index = buildIndex(set);
    return generateEffectsJson(index, inferEffects(index));
  };
  const std::string before = render(files);
  ASSERT_NE(before.find("\"function\": \"settle\""), std::string::npos);
  EXPECT_EQ(before.find("tally"), std::string::npos);

  files[0].text.insert(0, "\n");
  EXPECT_EQ(render(files), before) << "a shifted line is not a change";

  files[0].text += "void drain() { settle(); }\n";
  const std::string after = render(files);
  EXPECT_NE(after, before) << "a new effect must fail the gate";
  EXPECT_NE(after.find("\"function\": \"drain\""), std::string::npos);
}

// --- Lexer hardening ---------------------------------------------------------

TEST(LintLexer, RawStringLiteralIsOneTokenAndHidesItsContent) {
  const auto result = lex(
      "src/x/a.cpp",
      "const char* s = R\"avd(++viewChanges \" // not a comment)avd\";\n");
  std::size_t strings = 0;
  for (const Token& token : result.tokens) {
    if (token.kind == TokKind::kString) ++strings;
    EXPECT_NE(token.text, "viewChanges") << "raw content leaked as tokens";
  }
  EXPECT_EQ(strings, 1u);
}

TEST(LintLexer, MalformedRawStringDelimiterRecoversWithoutDesync) {
  // A 17-char delimiter exceeds the C++ cap: the R degrades to an ordinary
  // identifier, the quote to a normal string, and lexing continues.
  const auto result = lex(
      "src/x/a.cpp", "auto s = R\"aaaaaaaaaaaaaaaaa(x)\"; int tail = 1;\n");
  bool sawTail = false;
  for (const Token& token : result.tokens) {
    sawTail = sawTail || token.text == "tail";
  }
  EXPECT_TRUE(sawTail);
}

TEST(LintLexer, DigitSeparatorsStayOneNumberToken) {
  const auto result = lex("src/x/a.cpp", "long big = 1'000'000;\n");
  bool sawNumber = false;
  for (const Token& token : result.tokens) {
    if (token.kind == TokKind::kNumber) {
      sawNumber = true;
      EXPECT_EQ(token.text, "1'000'000");
    }
    EXPECT_NE(token.kind, TokKind::kChar) << "separator misread as char";
  }
  EXPECT_TRUE(sawNumber);
}

TEST(LintLexer, IfConstexprBodyIsStillLinted) {
  const auto findings = lintSource(
      "src/avd/a.cpp",
      "template <bool kFlag>\n"
      "int f() {\n"
      "  if constexpr (kFlag) {\n"
      "    return std::rand();\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(countRule(findings, "nondeterminism"), 1u);
}

}  // namespace
}  // namespace avd::lint
