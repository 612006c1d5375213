// Figure 2 — "Evolution of average latency of requests from correct clients
// and of average throughput of PBFT system, as induced by attacks generated
// by the fitness-guided exploration of AVD, versus random exploration, over
// 125 executed tests."
//
// Hyperspace (§6): 4096 Gray-coded MAC masks x 25 correct-client counts
// (10..250 step 10) x {1,2} malicious clients = 204,800 scenarios.
//
// Expected shape vs the paper: the AVD series drives throughput down (and
// latency up) within a few tens of tests and keeps finding strong attacks,
// while random exploration only stumbles on them occasionally. Absolute
// req/s differ from Emulab — the substrate is a discrete-event simulator —
// but both are in the tens of thousands at baseline.
#include <cstdio>
#include <string>

#include "avd/controller.h"
#include "avd/explorers.h"
#include "avd/pbft_executor.h"

using namespace avd;

namespace {

core::PbftExecutorOptions benchOptions(std::uint64_t seed) {
  // The paper's timing ratios, so only sustained attacks (the paper's dark
  // points) register near-total impact. Wider links keep per-test event
  // counts manageable on one core.
  core::PbftExecutorOptions options =
      core::makePaperExecutorOptions(sim::msec(4000));
  options.baseSeed = seed;
  return options;
}

}  // namespace

int main() {
  constexpr std::size_t kTests = 125;
  constexpr std::uint64_t kSeed = 2011;

  std::printf("=== Figure 2: exploration evolution over %zu tests ===\n",
              kTests);
  std::printf(
      "hyperspace: 4096 masks x 25 client counts x {1,2} malicious "
      "= 204800 scenarios\n\n");

  core::PbftAttackExecutor avdExecutor(core::makePaperMacHyperspace(),
                                       benchOptions(kSeed));
  core::Controller avd(avdExecutor, core::defaultPlugins(avdExecutor.space()),
                       core::ControllerOptions{}, kSeed);
  avd.runTests(kTests);

  // Distinct RNG stream for the random strategy so the two runs do not
  // share their opening samples.
  core::PbftAttackExecutor randomExecutor(core::makePaperMacHyperspace(),
                                          benchOptions(kSeed));
  core::Controller random =
      core::makeRandomExplorer(randomExecutor, kSeed + 1000003);
  random.runTests(kTests);

  std::printf("%6s  %14s %14s %12s  %14s %14s %12s\n", "test",
              "AVD tput(r/s)", "AVD lat(s)", "AVD best", "RND tput(r/s)",
              "RND lat(s)", "RND best");
  for (std::size_t i = 0; i < kTests; ++i) {
    const core::TestRecord& a = avd.history()[i];
    const core::TestRecord& r = random.history()[i];
    std::printf("%6zu  %14.1f %14.4f %12.3f  %14.1f %14.4f %12.3f\n", i + 1,
                a.outcome.throughputRps, a.outcome.avgLatencySec,
                a.bestImpactSoFar, r.outcome.throughputRps,
                r.outcome.avgLatencySec, r.bestImpactSoFar);
  }

  const auto avdFind = avd.testsToReach(0.9);
  const auto randomFind = random.testsToReach(0.9);

  // Concentration: what fraction of each strategy's *generated* tests were
  // strong attacks — the visual difference between the two series in the
  // paper's figure (AVD's throughput line hugs zero, random's stays high).
  const auto concentration = [](const core::Controller& controller) {
    std::size_t strong = 0;
    for (const core::TestRecord& record : controller.history()) {
      if (record.outcome.impact >= 0.9) ++strong;
    }
    return static_cast<double>(strong) /
           static_cast<double>(controller.history().size());
  };

  std::printf("\nsummary:\n");
  std::printf("  fraction of generated tests with impact>=0.9: AVD %.2f vs "
              "random %.2f\n",
              concentration(avd), concentration(random));
  std::printf("  AVD    max impact %.3f, tests to impact>=0.9: %s\n",
              avd.maxImpact(),
              avdFind ? std::to_string(*avdFind).c_str() : "not found");
  std::printf("  random max impact %.3f, tests to impact>=0.9: %s\n",
              random.maxImpact(),
              randomFind ? std::to_string(*randomFind).c_str() : "not found");
  if (const auto best = avd.best()) {
    const core::Hyperspace& space = avdExecutor.space();
    std::printf(
        "  AVD best scenario: mask=0x%llx clients=%lld malicious=%lld "
        "(throughput %.1f r/s)\n",
        static_cast<unsigned long long>(
            space.valueOf(best->point, "mac_mask", 0)),
        static_cast<long long>(
            space.valueOf(best->point, "correct_clients", 0)),
        static_cast<long long>(
            space.valueOf(best->point, "malicious_clients", 0)),
        best->outcome.throughputRps);
  }
  return 0;
}
