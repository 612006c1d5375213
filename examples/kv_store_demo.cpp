// A replicated key-value store on PBFT — the application developer's view,
// plus an API assessment with AVD (§2: the platform "can be used ... to
// evaluate an Application Programming Interface before deployment").
//
// Part 1 runs a KV workload through a healthy deployment and checks that
// replicas which executed the same requests hold the same store contents.
// Part 2 turns AVD loose on the same deployment to ask: how much damage can
// one faulty client of this API do?
//
// Build & run:  ./build/examples/kv_store_demo
#include <cstdio>
#include <map>
#include <string>

#include "avd/controller.h"
#include "avd/pbft_executor.h"
#include "pbft/deployment.h"

using namespace avd;

int main() {
  // --- Part 1: the replicated KV store under an honest workload -----------
  pbft::DeploymentConfig config;
  config.pbft.f = 1;
  config.service = pbft::ServiceKind::kKv;
  config.correctClients = 8;
  config.warmup = sim::msec(200);
  config.measure = sim::sec(2);
  config.seed = 123;
  // Each client PUTs to its own key space: op i is PUT("k<i%32>", "v<i>").
  config.correctClientBehavior.opGenerator = [](util::RequestId i) {
    std::string key = "k";
    key += std::to_string(i % 32);
    std::string value = "v";
    value += std::to_string(i);
    return pbft::KvService::encodePut(key, value);
  };

  pbft::Deployment deployment(config);
  const pbft::RunResult result = deployment.run();
  std::printf("honest KV workload: %.1f req/s, avg latency %.1f ms\n",
              result.throughputRps, result.avgLatencySec * 1e3);

  // The run stops mid-stream, so replicas may have executed different
  // prefixes of the log: only replicas at the same sequence number must
  // hold the same store.
  std::map<util::SeqNum, std::uint64_t> digestAt;
  bool converged = true;
  for (std::uint32_t r = 0; r < deployment.replicaCount(); ++r) {
    pbft::Replica& replica = deployment.replica(r);
    const std::uint64_t digest = replica.service().stateDigest();
    const auto [it, first] = digestAt.emplace(replica.lastExecuted(), digest);
    if (!first && it->second != digest) converged = false;
  }
  const auto [highest, digest] = *digestAt.rbegin();
  std::uint32_t atHighest = 0;
  for (std::uint32_t r = 0; r < deployment.replicaCount(); ++r) {
    if (deployment.replica(r).lastExecuted() == highest) ++atHighest;
  }
  std::printf("replica state digests %s (%u of %u replicas executed through "
              "seq %llu: 0x%llx)\n",
              converged ? "AGREE" : "DIVERGE", atHighest,
              deployment.replicaCount(),
              static_cast<unsigned long long>(highest),
              static_cast<unsigned long long>(digest));

  // --- Part 2: assess the API with AVD ------------------------------------
  std::printf("\nassessing the KV API against one faulty client...\n");
  core::Hyperspace space;
  space.add(core::Dimension::grayBitmask("mac_mask", 12));
  core::PbftExecutorOptions options;
  options.service = pbft::ServiceKind::kKv;
  options.defaultCorrectClients = 8;
  options.measure = sim::msec(1500);
  core::PbftAttackExecutor executor(std::move(space), options);
  core::Controller controller(executor,
                              core::defaultPlugins(executor.space()),
                              core::ControllerOptions{}, 321);
  controller.runTests(30);

  std::printf("30 tests: max impact %.3f", controller.maxImpact());
  if (const auto best = controller.best()) {
    std::printf(" (mask 0x%llx -> %.1f req/s)",
                static_cast<unsigned long long>(
                    executor.space().valueOf(best->point, "mac_mask", 0)),
                best->outcome.throughputRps);
  }
  std::printf(
      "\nverdict: the ordering layer, not the KV semantics, is the attack\n"
      "surface — one faulty client of this API can starve all others.\n");
  return converged ? 0 : 1;
}
