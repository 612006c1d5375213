// Ablations for the design choices called out in DESIGN.md §5, plus impact
// sweeps for the remaining tool classes (§5 of the paper):
//
//  A. Gray-coded index stepping vs direct binary mask-bit flipping for the
//     MAC dimension (what the Gray encoding buys the hill climber).
//  B. Fitness-weighted plugin sampling (Fitnex-style) vs uniform.
//  C. Network-control tool: drop-probability sweep.
//  D. Message-reordering tool: intensity sweep.
//  E. Meta-heuristic comparison: Algorithm 1 vs a genetic algorithm vs
//     random (§3 cites GAs as the alternative meta-heuristic).
//  F. Blind-tamper tool: bit-flip probability sweep (§4's weakest tool).
#include <cstdio>

#include "avd/controller.h"
#include "avd/explorers.h"
#include "avd/genetic.h"
#include "avd/pbft_executor.h"

using namespace avd;

namespace {

core::PbftExecutorOptions quickOptions(std::uint64_t seed) {
  core::PbftExecutorOptions options =
      core::makePaperExecutorOptions(sim::msec(3000));
  options.baseSeed = seed;
  return options;
}

/// Fraction of generated tests that were strong attacks (impact >= 0.9) —
/// the concentration metric that separates exploration strategies on this
/// landscape (best-impact curves saturate too quickly to discriminate).
double strongFraction(const core::Controller& controller) {
  std::size_t strong = 0;
  for (const core::TestRecord& record : controller.history()) {
    if (record.outcome.impact >= 0.9) ++strong;
  }
  return static_cast<double>(strong) /
         static_cast<double>(controller.history().size());
}

}  // namespace

int main() {
  constexpr std::size_t kTests = 60;
  const std::vector<std::uint64_t> seeds{5, 6, 7};

  // --- A: Gray stepping vs binary bit flips --------------------------------
  std::printf("=== Ablation A: Gray-coded stepping vs binary mask flips ===\n");
  std::printf("%8s %18s %18s\n", "seed", "gray strong", "binary strong");
  for (const std::uint64_t seed : seeds) {
    core::Hyperspace space;
    space.add(core::Dimension::grayBitmask("mac_mask", 12));
    core::PbftAttackExecutor grayExecutor(space, quickOptions(seed));
    core::Controller gray(grayExecutor,
                          core::defaultPlugins(grayExecutor.space()),
                          core::ControllerOptions{}, seed);
    gray.runTests(kTests);

    core::PbftAttackExecutor binExecutor(space, quickOptions(seed));
    std::vector<core::PluginPtr> binaryPlugins{
        std::make_shared<core::BinaryMaskFlipPlugin>("binflip:mac_mask", 0)};
    core::Controller binary(binExecutor, std::move(binaryPlugins),
                            core::ControllerOptions{}, seed);
    binary.runTests(kTests);

    std::printf("%8llu %18.2f %18.2f\n",
                static_cast<unsigned long long>(seed),
                strongFraction(gray), strongFraction(binary));
  }

  // --- B: plugin fitness weighting ------------------------------------------
  std::printf("\n=== Ablation B: plugin fitness weighting vs uniform ===\n");
  std::printf("%8s %18s %18s\n", "seed", "weighted strong", "uniform strong");
  for (const std::uint64_t seed : seeds) {
    core::Hyperspace space = core::makePaperMacHyperspace();
    core::PbftAttackExecutor weightedExecutor(space, quickOptions(seed));
    core::Controller weighted(weightedExecutor,
                              core::defaultPlugins(weightedExecutor.space()),
                              core::ControllerOptions{}, seed);
    weighted.runTests(kTests);

    core::PbftAttackExecutor uniformExecutor(space, quickOptions(seed));
    core::ControllerOptions uniformOptions;
    uniformOptions.pluginFitnessWeighting = false;
    core::Controller uniform(uniformExecutor,
                             core::defaultPlugins(uniformExecutor.space()),
                             uniformOptions, seed);
    uniform.runTests(kTests);

    std::printf("%8llu %18.2f %18.2f\n",
                static_cast<unsigned long long>(seed),
                strongFraction(weighted), strongFraction(uniform));
  }

  // --- C: drop-probability sweep --------------------------------------------
  std::printf("\n=== Tool sweep C: network drop probability ===\n");
  std::printf("%10s %16s %10s\n", "drop %", "tput (r/s)", "impact");
  {
    core::Hyperspace space;
    space.add(core::Dimension::range("drop_probability", 0, 40, 5));
    core::PbftAttackExecutor executor(space, quickOptions(9));
    for (std::uint64_t i = 0; i < 9; ++i) {
      const core::Outcome outcome = executor.execute(core::Point{i});
      std::printf("%10llu %16.1f %10.3f\n",
                  static_cast<unsigned long long>(i * 5),
                  outcome.throughputRps, outcome.impact);
    }
  }

  // --- D: reorder-intensity sweep --------------------------------------------
  std::printf("\n=== Tool sweep D: message reordering intensity ===\n");
  std::printf("%10s %16s %10s\n", "reorder %", "tput (r/s)", "impact");
  {
    core::Hyperspace space;
    space.add(core::Dimension::range("reorder_intensity", 0, 100, 10));
    core::PbftAttackExecutor executor(space, quickOptions(13));
    for (std::uint64_t i = 0; i < 11; ++i) {
      const core::Outcome outcome = executor.execute(core::Point{i});
      std::printf("%10llu %16.1f %10.3f\n",
                  static_cast<unsigned long long>(i * 10),
                  outcome.throughputRps, outcome.impact);
    }
  }

  // --- E: meta-heuristic comparison ------------------------------------------
  std::printf("\n=== Ablation E: Algorithm 1 vs genetic algorithm vs random ===\n");
  std::printf("(strong fraction: share of 60 tests with impact >= 0.9)\n");
  std::printf("%8s %14s %14s %14s\n", "seed", "Algorithm 1", "genetic",
              "random");
  for (const std::uint64_t seed : seeds) {
    core::Hyperspace space = core::makePaperMacHyperspace();

    core::PbftAttackExecutor controllerExecutor(space, quickOptions(seed));
    core::Controller controller(
        controllerExecutor, core::defaultPlugins(controllerExecutor.space()),
        core::ControllerOptions{}, seed);
    controller.runTests(kTests);

    core::PbftAttackExecutor gaExecutor(space, quickOptions(seed));
    core::GeneticExplorer genetic(gaExecutor,
                                  core::defaultPlugins(gaExecutor.space()),
                                  core::GeneticOptions{}, seed);
    genetic.runTests(kTests);
    std::size_t gaStrong = 0;
    for (const core::TestRecord& record : genetic.history()) {
      if (record.outcome.impact >= 0.9) ++gaStrong;
    }

    core::PbftAttackExecutor randomExecutor(space, quickOptions(seed));
    core::Controller random = core::makeRandomExplorer(randomExecutor, seed);
    random.runTests(kTests);

    std::printf("%8llu %14.2f %14.2f %14.2f\n",
                static_cast<unsigned long long>(seed),
                strongFraction(controller),
                static_cast<double>(gaStrong) /
                    static_cast<double>(genetic.history().size()),
                strongFraction(random));
  }

  // --- F: blind-tamper sweep --------------------------------------------------
  std::printf("\n=== Tool sweep F: blind bit-flip (tamper) probability ===\n");
  std::printf("%10s %16s %10s\n", "tamper %", "tput (r/s)", "impact");
  {
    core::Hyperspace space;
    space.add(core::Dimension::range("tamper_probability", 0, 10, 1));
    core::PbftAttackExecutor executor(space, quickOptions(15));
    for (std::uint64_t i = 0; i <= 10; ++i) {
      const core::Outcome outcome = executor.execute(core::Point{i});
      std::printf("%10llu %16.1f %10.3f\n",
                  static_cast<unsigned long long>(i), outcome.throughputRps,
                  outcome.impact);
    }
  }

  std::printf(
      "\nexpected: Gray stepping >= binary flips (smoother neighbourhood);\n"
      "weighting helps modestly (one dominant dimension here); both guided\n"
      "meta-heuristics concentrate far more budget on strong attacks than\n"
      "random; drops degrade throughput sharply but gracefully (status/sync\n"
      "recovery keeps the system live); reordering alone is nearly harmless\n"
      "— PBFT tolerates asynchrony; blind tampering behaves like message\n"
      "loss because every flip is absorbed by a MAC or digest check.\n");
  return 0;
}
