#include "avd/attacker_power.h"

#include "avd/controller.h"
#include "avd/explorers.h"
#include "avd/pbft_executor.h"

namespace avd::core {

std::string powerName(AttackerPower power) {
  switch (power) {
    case AttackerPower::kBlindFuzz:
      return "blind-fuzz";
    case AttackerPower::kGrayFeedback:
      return "gray-feedback";
    case AttackerPower::kProtocolAware:
      return "protocol-aware";
  }
  return "?";
}

namespace {

Hyperspace spaceFor(AttackerPower power) {
  // All levels search the same base space; what differs is the strategy
  // (random vs feedback-guided) and, at the top level, the extra dimension
  // the protocol-aware synthesis tool unlocks. This keeps the ladder an
  // apples-to-apples comparison of attacker capability.
  Hyperspace space;
  space.add(Dimension::grayBitmask("mac_mask", 12));
  space.add(Dimension::range("correct_clients", 10, 100, 10));
  if (power == AttackerPower::kProtocolAware) {
    space.add(
        Dimension::choice("replica_behavior", {0, 1, 2, 3, 4, 5, 6, 7}));
  }
  return space;
}

}  // namespace

PowerMeasurement measureAttackerPower(AttackerPower power, double threshold,
                                      std::size_t maxTests,
                                      std::uint64_t seed) {
  // Timing ratios as in the figure benches: a window much longer than the
  // request timeout, so only sustained attacks reach high impact and
  // "finding a vulnerability" means finding a real one.
  PbftExecutorOptions options = makePaperExecutorOptions(sim::msec(3000));
  options.baseSeed = seed;
  PbftAttackExecutor executor(spaceFor(power), options);

  PowerMeasurement measurement;
  measurement.power = power;
  measurement.testsToFind = maxTests;

  auto runUntilFound = [&](Controller& controller) {
    // The full budget always runs: testsToFind records the first crossing,
    // strongFraction how the remaining budget was spent.
    controller.runTests(maxTests);
    measurement.bestImpact = controller.maxImpact();
    std::size_t strong = 0;
    for (std::size_t i = 0; i < controller.history().size(); ++i) {
      const TestRecord& record = controller.history()[i];
      if (!measurement.found && record.outcome.impact >= threshold) {
        measurement.found = true;
        measurement.testsToFind = i + 1;
      }
      if (record.outcome.impact >= 0.9) ++strong;
    }
    measurement.strongFraction =
        static_cast<double>(strong) /
        static_cast<double>(controller.history().size());
  };

  if (power == AttackerPower::kBlindFuzz) {
    Controller random = makeRandomExplorer(executor, seed);
    runUntilFound(random);
  } else {
    Controller controller(executor, defaultPlugins(executor.space()),
                          ControllerOptions{}, seed);
    runUntilFound(controller);
  }
  return measurement;
}

}  // namespace avd::core
