// Flood-attack ablation bench: throughput of a bounded-ingress PBFT
// deployment under each flood tool class, undefended vs the Aardvark-style
// defense profile (admission control + fair scheduling + bounded queues).
//
// The headline row is the defense ablation the campaign acceptance relies
// on: request spam at 16k msgs/s drives the undefended deployment's damage
// >= 0.5 while the defended one stays <= 0.2 against its own baseline.
#include <cstdio>
#include <memory>
#include <vector>

#include "faultinject/flood.h"
#include "pbft/deployment.h"

using namespace avd;

namespace {

pbft::DeploymentConfig boundedConfig(bool defended) {
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
  config.link.ingressCapacity = 64;
  config.link.ingressByteBudget = 32 * 1024;
  config.link.ingressServiceTime = sim::usec(100);
  if (defended) fi::enableFloodDefenses(config.pbft);
  return config;
}

pbft::RunResult runOne(bool defended, const fi::FloodOptions* flood) {
  const pbft::DeploymentConfig config = boundedConfig(defended);
  pbft::Deployment deployment(config);
  std::unique_ptr<fi::FloodClient> client;
  if (flood != nullptr) {
    client = std::make_unique<fi::FloodClient>(
        config.pbft.replicaCount() + config.totalClients(), config.pbft,
        &deployment.keychain(), *flood);
    deployment.network().registerNode(client.get());
    client->install();
  }
  return deployment.run();
}

double damage(double rps, double baseline) {
  if (baseline <= 0.0) return 0.0;
  const double raw = 1.0 - rps / baseline;
  return raw < 0.0 ? 0.0 : raw;
}

}  // namespace

int main() {
  struct Case {
    const char* name;
    fi::FloodOptions options;
  };
  std::vector<Case> cases;
  {
    Case spam{"request-spam @16k/s", {}};
    spam.options.kind = fi::FloodKind::kRequestSpam;
    spam.options.interval = sim::sec(1) / 16000;
    cases.push_back(spam);

    Case replay{"replay-storm @8k/s", {}};
    replay.options.kind = fi::FloodKind::kReplayStorm;
    replay.options.interval = sim::sec(1) / 8000;
    replay.options.payloadBytes = 512;
    cases.push_back(replay);

    Case oversized{"oversized @2k/s x4KiB", {}};
    oversized.options.kind = fi::FloodKind::kOversizedPayload;
    oversized.options.interval = sim::sec(1) / 2000;
    oversized.options.payloadBytes = 4096;
    cases.push_back(oversized);

    Case status{"status-amplify @500/s", {}};
    status.options.kind = fi::FloodKind::kStatusAmplify;
    status.options.interval = sim::msec(2);
    status.options.target = 3;
    cases.push_back(status);
  }

  std::printf("=== flood ablation (bounded ingress, 20 correct clients) ===\n");
  const double undefendedBaseline = runOne(false, nullptr).throughputRps;
  const double defendedBaseline = runOne(true, nullptr).throughputRps;
  std::printf("no-flood baseline: undefended %.1f req/s, defended %.1f "
              "req/s\n\n",
              undefendedBaseline, defendedBaseline);
  std::printf("%-22s %12s %12s %9s %9s\n", "attack", "undef rps", "def rps",
              "undef dmg", "def dmg");

  for (const Case& c : cases) {
    const double undefendedRps = runOne(false, &c.options).throughputRps;
    const double defendedRps = runOne(true, &c.options).throughputRps;
    std::printf("%-22s %12.1f %12.1f %9.3f %9.3f\n", c.name, undefendedRps,
                defendedRps, damage(undefendedRps, undefendedBaseline),
                damage(defendedRps, defendedBaseline));
  }
  return 0;
}
