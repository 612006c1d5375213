// Executor binding AVD scenarios to simulated PBFT deployments.
//
// Dimensions are recognized by name, so the same executor serves every
// experiment in the paper (and the extensions):
//
//   "mac_mask"          grayBitmask — MAC-corruption bitmask for the
//                       malicious clients' generateMAC calls (§6)
//   "correct_clients"   range       — number of correct clients
//   "malicious_clients" choice      — number of malicious clients
//   "replica_behavior"  choice      — synthesized malicious-replica
//                       behaviour (protocol-aware tool class, §5):
//                       0 none, 1 slow primary, 2 slow primary + colluding
//                       client, 3 spurious view changes, 4 silent prepares,
//                       5 equivocating primary, 6 one fast-clock backup,
//                       7 f+1 fast-clock backups
//   "drop_probability"  range       — percent of all traffic dropped
//                       (network-control tool class, §2)
//   "reorder_intensity" range       — percent of messages delayed into a
//                       reorder window (message-reordering tool, §5)
//   "tamper_probability" range      — percent of messages with one random
//                       bit flipped (blind fuzzing, the weakest §4 tool)
//   "churn_target"      choice      — replica to crash–restart cycle
//                       (-1 = churn off, -2 = track the current primary)
//   "churn_start_ms"    range       — virtual time of the first crash
//   "churn_downtime_ms" range       — how long the replica stays down
//   "churn_period_ms"   choice      — crash-to-crash repeat period
//                       (0 = crash once)
//   "flood_kind"        choice      — resource-exhaustion tool class
//                       (0 = off, 1 request spam, 2 replay storm,
//                       3 oversized payloads, 4 status amplification)
//   "flood_rate"        choice      — flood messages per second
//   "flood_bytes"       choice      — operation payload size (oversized /
//                       replay tools)
//   "flood_target"      choice      — victim replica (-1 = broadcast to
//                       all replicas)
//   "twin_pairs"        choice      — twinned identities (0 = twins off;
//                       beyond f the safety oracle becomes reachable)
//   "twin_first"        choice      — first replica twinned (pairs take
//                       consecutive ids)
//   "twin_start_ms"     choice      — virtual time the twins come online
//   "twin_period_ms"    choice      — partition-side flip period (0 =
//                       static sides)
//   "twin_shape"        choice      — side assignment (0 parity, 1 halves)
//
// The impact metric is normalized damage: 1 − throughput / baseline, where
// the baseline is the same deployment with every tool disabled (cached per
// client population).
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "avd/executor.h"
#include "pbft/deployment.h"

namespace avd::core {

struct PbftExecutorOptions {
  /// PBFT protocol parameters. Timeouts default to a 10x scale-down of the
  /// 5 s production default so one test needs only ~2 virtual seconds; the
  /// attack dynamics depend on timeout/retransmission/latency *ratios*.
  pbft::Config pbft;
  sim::LinkModel link{sim::usec(500), sim::usec(100)};
  sim::Time clientRetx = sim::msec(100);
  sim::Time warmup = sim::msec(250);
  sim::Time measure = sim::msec(2000);
  pbft::ServiceKind service = pbft::ServiceKind::kCounter;
  std::uint64_t baseSeed = 1;
  /// Defaults when the hyperspace lacks the corresponding dimension.
  std::uint32_t defaultCorrectClients = 20;
  std::uint32_t defaultMaliciousClients = 1;

  PbftExecutorOptions() {
    pbft.f = 1;
    pbft.requestTimeout = sim::msec(500);
    pbft.viewChangeTimeout = sim::msec(500);
  }
};

/// churn_target value that re-resolves the victim to the current primary at
/// every crash instant (protocol-aware churn).
inline constexpr std::int64_t kChurnFollowPrimary = -2;

class PbftAttackExecutor final : public ScenarioExecutor {
 public:
  PbftAttackExecutor(Hyperspace space, PbftExecutorOptions options = {});

  Outcome execute(const Point& point) override;
  const Hyperspace& space() const noexcept override { return space_; }

  /// Baseline (no-attack) throughput for a client population; cached.
  double baselineFor(std::uint32_t correctClients,
                     std::uint32_t maliciousClients);

  std::uint64_t executedCount() const noexcept { return executed_; }
  const PbftExecutorOptions& options() const noexcept { return options_; }

  /// The deployment a point denotes (exposed for tests and debugging).
  pbft::DeploymentConfig buildConfig(const Point& point) const;

 private:
  pbft::RunResult runConfigured(const pbft::DeploymentConfig& config,
                                const Point* point) const;

  Hyperspace space_;
  PbftExecutorOptions options_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> baselineCache_;
  std::uint64_t executed_ = 0;
};

/// The paper's §6 experiment space: 4096 Gray-coded mask values x 25 client
/// counts (10..250 step 10) x {1,2} malicious clients = 204,800 scenarios.
Hyperspace makePaperMacHyperspace();

/// The Figure 3 subspace: 1024 mask values x client counts 10..100 step 10,
/// one malicious client.
Hyperspace makeFigure3Subspace();

/// Crash-timing exploration space: churn target / first-crash time /
/// downtime / repeat period as hyperspace dimensions, times a client-load
/// axis. The controller hill-climbs WHEN to crash a replica, not just
/// whether (e.g. a backup at a checkpoint boundary, the primary
/// mid-view-change).
Hyperspace makeChurnHyperspace();

/// Resource-exhaustion exploration space: flood tool class, rate, payload
/// size, and victim as hyperspace dimensions, times a client-load axis.
/// Pair it with a bounded-ingress LinkModel (makeFloodExecutorOptions) or
/// the floods vanish into the unbounded event queue.
Hyperspace makeFloodHyperspace();

/// Twins exploration space (the safety-hunting hyperspace): how many
/// identities run twinned (index 0 = off, anchoring the dedup baseline),
/// which replica the pairs start at, when the twins come online, and the
/// partition schedule's flip period and shape. At f=1 a single pair must
/// never trip the oracle; two pairs exceed the fault bound and make
/// conflicting commit certificates reachable.
Hyperspace makeTwinsHyperspace();

/// The paper's timing ratios at simulation scale, shared by the pbft,
/// pbft-churn and pbft-twins systems and the paper benches: 400 ms request
/// and view-change timeouts, 100 ms client retransmission, 5 ms links
/// (0.5 ms jitter) and a 400 ms warm-up. So the measurement window is much
/// longer than a timeout, which is much longer than a retransmission,
/// which is much longer than a round trip: one view change costs about 10%
/// of a window, and only a sustained attack reaches high impact. Only the
/// window differs between its users.
PbftExecutorOptions makePaperExecutorOptions(sim::Time measure);

/// Executor options for the `pbft-flood` system: bounded per-node ingress
/// (64 messages / 32 KiB / 100 us service per message ≈ 10k msgs/s per
/// node) so resource exhaustion is observable. `defended` additionally
/// enables the full Aardvark-style defense profile (admission control +
/// fair scheduling + bounded queues) — the ablation pair.
PbftExecutorOptions makeFloodExecutorOptions(bool defended = false);

}  // namespace avd::core
