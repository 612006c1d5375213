#include "campaign/systems.h"

#include <utility>

#include "avd/pbft_executor.h"
#include "avd/quorum_executor.h"

namespace avd::campaign {

namespace {

std::unique_ptr<core::ScenarioExecutor> pbftExecutor(
    core::Hyperspace space, core::PbftExecutorOptions options,
    std::uint64_t seed) {
  options.baseSeed = seed;
  return std::make_unique<core::PbftAttackExecutor>(std::move(space),
                                                    std::move(options));
}

const System kRegistry[] = {
    {"pbft", "MAC-corruption hyperspace, 204800 scenarios",
     [](std::uint64_t seed) {
       return pbftExecutor(core::makePaperMacHyperspace(),
                           core::makePaperExecutorOptions(sim::msec(3000)),
                           seed);
     }},
    // The pbft deployment; the space is which replica to crash, when, for
    // how long, and at what repeat period.
    {"pbft-churn", "crash-restart timing hyperspace",
     [](std::uint64_t seed) {
       return pbftExecutor(core::makeChurnHyperspace(),
                           core::makePaperExecutorOptions(sim::msec(3000)),
                           seed);
     }},
    // The ablation pair: one resource-exhaustion space over a
    // bounded-ingress deployment, without and with admission control +
    // fair scheduling.
    {"pbft-flood", "resource-exhaustion hyperspace, bounded ingress",
     [](std::uint64_t seed) {
       return pbftExecutor(core::makeFloodHyperspace(),
                           core::makeFloodExecutorOptions(false), seed);
     }},
    {"pbft-flood-defended", "pbft-flood against the Aardvark defenses",
     [](std::uint64_t seed) {
       return pbftExecutor(core::makeFloodHyperspace(),
                           core::makeFloodExecutorOptions(true), seed);
     }},
    // Divergence shows up within the first virtual second, so a shorter
    // window than the liveness systems keeps each scenario cheap.
    {"pbft-twins", "twinned identities; hunts safety violations",
     [](std::uint64_t seed) {
       return pbftExecutor(core::makeTwinsHyperspace(),
                           core::makePaperExecutorOptions(sim::msec(2000)),
                           seed);
     }},
    {"quorum", "timestamp/victims/replica-behaviour space",
     [](std::uint64_t seed) -> std::unique_ptr<core::ScenarioExecutor> {
       core::QuorumExecutorOptions options;
       options.baseSeed = seed;
       return std::make_unique<core::QuorumApiExecutor>(
           core::makeQuorumApiHyperspace(), options);
     }},
};

}  // namespace

std::span<const System> systems() { return kRegistry; }

const System* findSystem(std::string_view name) {
  for (const System& system : kRegistry) {
    if (name == system.name) return &system;
  }
  return nullptr;
}

std::unique_ptr<core::ScenarioExecutor> makeSystemExecutor(
    std::string_view name, std::uint64_t seed) {
  const System* system = findSystem(name);
  return system == nullptr ? nullptr : system->makeExecutor(seed);
}

}  // namespace avd::campaign
