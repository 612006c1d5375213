// Allocation budget of one deployment run. Wall-clock rates drift with the
// host, but the number of heap allocations a run makes is the same on every
// run against a given standard library, so it can gate CI. This binary
// replaces the global operator new with a counting one; sanitizer builds
// replace it themselves, so CMake registers the test only without them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "avd/hyperspace.h"
#include "avd/pbft_executor.h"
#include "pbft/deployment.h"

namespace {
std::atomic<std::uint64_t> gAllocations{0};
}  // namespace

void* operator new(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace avd {
namespace {

/// The pbft-mac campaign's no-attack point with 250 correct clients and one
/// (idle) malicious client: `avd_cli campaign --system pbft` options, mac
/// mask index 0, client index 24. Its event rate is perfbench's
/// pbft.events_per_s.
pbft::DeploymentConfig quietPaperDeployment(std::uint64_t seed) {
  core::PbftExecutorOptions options =
      core::makePaperExecutorOptions(sim::msec(3000));
  options.baseSeed = seed;
  const core::PbftAttackExecutor executor(core::makePaperMacHyperspace(),
                                          options);
  return executor.buildConfig(core::Point{0, 24, 0});
}

// The simulator's typed event records, flat replica state and streamed
// digests keep a run near 3 allocations per event; closures on the heap,
// node-based maps and byte-at-a-time encodings cost 10 or more.
constexpr double kMaxAllocationsPerEvent = 4.0;

TEST(AllocationBudget, QuietPaperDeploymentStaysUnderBudget) {
  const pbft::DeploymentConfig config = quietPaperDeployment(100);
  const std::uint64_t before = gAllocations.load();
  std::uint64_t events = 0;
  {
    pbft::Deployment deployment(config);
    events = deployment.run().eventsExecuted;
  }
  const std::uint64_t allocations = gAllocations.load() - before;
  ASSERT_GT(events, 0u);
  const double perEvent =
      static_cast<double>(allocations) / static_cast<double>(events);
  std::printf("%llu allocations for %llu events: %.2f per event\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(events), perEvent);
  EXPECT_EQ(events, 258471u) << "the deployment is not the one measured";
  EXPECT_LE(perEvent, kMaxAllocationsPerEvent);
}

}  // namespace
}  // namespace avd
