// Figure 3 — "A subset of the hyperspace of possible test scenarios for
// PBFT MAC fault injection, exhaustively explored. Dark points represent
// scenarios where the throughput of PBFT drops below 500 requests/sec."
//
// X axis: MAC corruption bitmask index in Gray code (a strided subset of
// the full 12-bit dimension, ~1000 plotted positions like the paper's
// figure); Y axis: number of correct clients. Expected structure, as in
// the paper: clearly defined vertical dark lines (masks that leave >= 2f
// backups unable to EVER authenticate a request crash the deployment at
// every client count) clustered on the horizontal axis, plus horizontal
// structure from stealth stalls that only darken low-client rows.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "avd/pbft_executor.h"
#include "common/gray_code.h"

using namespace avd;

int main() {
  // 512 columns spanning the full 12-bit Gray axis.
  constexpr std::uint64_t kStride = 8;
  const std::vector<std::int64_t> clientRows{20, 40, 60, 80, 100};
  constexpr std::uint32_t kMaskBits = 12;
  const std::uint64_t columns = (1u << kMaskBits) / kStride;
  constexpr double kDarkThresholdRps = 500.0;  // the paper's criterion

  std::printf("=== Figure 3: exhaustive MAC-corruption subspace ===\n");
  std::printf("x: Gray-coded 12-bit mask index 0..4095 (stride %llu), "
              "y: clients; dark '#' = throughput < %.0f req/s\n\n",
              static_cast<unsigned long long>(kStride), kDarkThresholdRps);

  // Same timing-ratio scaling as the Figure 2 bench: only sustained
  // degradation falls below the absolute dark threshold.
  core::PbftExecutorOptions options =
      core::makePaperExecutorOptions(sim::msec(3000));
  options.baseSeed = 3;

  core::Hyperspace space;
  space.add(core::Dimension::grayBitmask("mac_mask", kMaskBits));
  space.add(core::Dimension::choice("correct_clients", clientRows));
  core::PbftAttackExecutor executor(std::move(space), options);

  std::vector<std::vector<char>> grid(
      clientRows.size(), std::vector<char>(columns, '.'));
  std::uint64_t darkCells = 0;

  for (std::size_t row = 0; row < clientRows.size(); ++row) {
    for (std::uint64_t column = 0; column < columns; ++column) {
      const core::Point point{column * kStride, row};
      const core::Outcome outcome = executor.execute(point);
      if (outcome.throughputRps < kDarkThresholdRps) {
        grid[row][column] = '#';
        ++darkCells;
      }
    }
  }

  // Render the map in bands of 128 columns.
  const std::size_t bandWidth = 128;
  for (std::size_t bandStart = 0; bandStart < columns;
       bandStart += bandWidth) {
    const std::size_t bandEnd =
        std::min(bandStart + bandWidth, static_cast<std::size_t>(columns));
    std::printf("mask index [%zu, %zu):\n", bandStart * kStride,
                bandEnd * kStride);
    for (std::size_t row = clientRows.size(); row-- > 0;) {
      std::printf("%4lld clients |", static_cast<long long>(clientRows[row]));
      for (std::size_t column = bandStart; column < bandEnd; ++column) {
        std::putchar(grid[row][column]);
      }
      std::printf("|\n");
    }
    std::printf("\n");
  }

  // Structure summary: a dark column = dark at every client count (the
  // paper's vertical lines).
  std::uint64_t darkColumns = 0;
  std::printf("fully dark mask indices (Gray index -> mask value):\n ");
  for (std::uint64_t column = 0; column < columns; ++column) {
    bool allDark = true;
    for (std::size_t row = 0; row < clientRows.size(); ++row) {
      if (grid[row][column] != '#') allDark = false;
    }
    if (allDark) {
      ++darkColumns;
      if (darkColumns <= 24) {
        std::printf(" %llu->0x%llx",
                    static_cast<unsigned long long>(column * kStride),
                    static_cast<unsigned long long>(
                        util::toGray(column * kStride)));
      }
    }
  }
  std::printf(
      "\n\nsummary: %llu dark cells of %llu; %llu fully-dark vertical lines "
      "of %llu columns\n",
      static_cast<unsigned long long>(darkCells),
      static_cast<unsigned long long>(columns * clientRows.size()),
      static_cast<unsigned long long>(darkColumns),
      static_cast<unsigned long long>(columns));
  return 0;
}
