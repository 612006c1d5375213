// Twins machinery overhead bench: wall-clock cost of the identity-fault
// plumbing on deployments that do not use it, plus the price of live twin
// pairs.
//
// The headline row is the dormancy bar the hyperspaces that never twin
// anything rely on: with a twin registered but isolated (nobody routed to
// side 1, the twin never started), every send pays the twin-map lookups —
// that inert run must stay within 10% of the plain no-twin baseline.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "faultinject/twins.h"
#include "pbft/deployment.h"

using namespace avd;

namespace {

pbft::DeploymentConfig twinsConfig() {
  pbft::DeploymentConfig config;
  config.pbft.f = 1;
  config.pbft.requestTimeout = sim::msec(400);
  config.pbft.viewChangeTimeout = sim::msec(400);
  config.correctClients = 20;
  config.clientRetx = sim::msec(100);
  config.warmup = sim::msec(300);
  config.measure = sim::sec(2);
  config.seed = 17;
  config.link = sim::LinkModel{sim::usec(500), sim::usec(100)};
  return config;
}

struct Row {
  std::string name;
  double wallMsPerRun = 0.0;
  double rps = 0.0;
  bool safetyViolated = false;
};

constexpr int kReps = 5;

// Runs kReps deployments through `prepare` (which may attach twin
// machinery before the run) and averages wall time and throughput.
template <typename Prepare>
Row timedRuns(const std::string& name, Prepare prepare) {
  Row row;
  row.name = name;
  const auto start = std::chrono::steady_clock::now();  // avd-lint: allow(nondeterminism)
  for (int rep = 0; rep < kReps; ++rep) {
    pbft::Deployment deployment(twinsConfig());
    auto keepAlive = prepare(deployment);
    const pbft::RunResult result = deployment.run();
    row.rps += result.throughputRps;
    row.safetyViolated = row.safetyViolated || result.safetyViolated;
    (void)keepAlive;
  }
  const auto end = std::chrono::steady_clock::now();  // avd-lint: allow(nondeterminism)
  row.wallMsPerRun =
      std::chrono::duration<double, std::milli>(end - start).count() / kReps;
  row.rps /= kReps;
  return row;
}

fi::TwinFault::Options pairOptions(std::vector<util::NodeId> targets) {
  fi::TwinFault::Options options;
  options.targets = std::move(targets);
  options.activation = 0;
  options.shape = fi::TwinFault::Shape::kSplitParity;
  return options;
}

}  // namespace

int main() {
  std::printf("=== twins machinery overhead (f=1, 20 correct clients, "
              "%d reps) ===\n",
              kReps);

  const Row baseline = timedRuns(
      "no-twin", [](pbft::Deployment&) { return std::shared_ptr<void>(); });

  // Inert machinery: a twin instance is registered (so every send pays the
  // twin-map resolution) but never started, and no router is installed, so
  // everyone stays on side 0 and the protocol behaves exactly like the
  // baseline.
  const Row inert = timedRuns("inert-twin", [](pbft::Deployment& deployment) {
    auto twin = std::shared_ptr<pbft::Replica>(deployment.makeTwinReplica(0));
    deployment.network().registerTwin(twin.get());
    return std::shared_ptr<void>(twin);
  });

  const Row withinF = timedRuns("within-f", [](pbft::Deployment& deployment) {
    auto fault = std::make_shared<fi::TwinFault>(&deployment, pairOptions({0}));
    fault->install();
    return std::shared_ptr<void>(fault);
  });

  const Row beyondF = timedRuns("beyond-f", [](pbft::Deployment& deployment) {
    auto fault =
        std::make_shared<fi::TwinFault>(&deployment, pairOptions({0, 1}));
    fault->install();
    return std::shared_ptr<void>(fault);
  });

  const std::vector<Row> rows = {baseline, inert, withinF, beyondF};
  std::printf("%-12s %12s %12s %8s\n", "case", "wall ms/run", "rps", "safety");
  for (const Row& row : rows) {
    std::printf("%-12s %12.2f %12.1f %8s\n", row.name.c_str(),
                row.wallMsPerRun, row.rps,
                row.safetyViolated ? "VIOLATED" : "ok");
  }

  const double overhead =
      baseline.wallMsPerRun > 0.0
          ? inert.wallMsPerRun / baseline.wallMsPerRun - 1.0
          : 0.0;
  std::printf("\ninert-twin overhead vs no-twin baseline: %+.1f%% "
              "(bar: <= 10%%)\n",
              overhead * 100.0);
  return 0;
}
