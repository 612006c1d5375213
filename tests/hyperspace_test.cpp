// Unit and property tests for the hyperspace model, mutation plugins, and
// the exploration strategies' bookkeeping.
#include <gtest/gtest.h>

#include <set>

#include "avd/explorers.h"
#include "avd/hyperspace.h"
#include "avd/plugin.h"
#include "common/gray_code.h"

namespace avd::core {
namespace {

Hyperspace paperSpace() {
  Hyperspace space;
  space.add(Dimension::grayBitmask("mac_mask", 12));
  space.add(Dimension::range("correct_clients", 10, 250, 10));
  space.add(Dimension::choice("malicious_clients", {1, 2}));
  return space;
}

// --- Dimensions ---------------------------------------------------------------

TEST(Dimension, RangeEnumeratesEvenlySpacedValues) {
  const Dimension dim = Dimension::range("clients", 10, 250, 10);
  EXPECT_EQ(dim.cardinality(), 25u);
  EXPECT_EQ(dim.value(0), 10);
  EXPECT_EQ(dim.value(1), 20);
  EXPECT_EQ(dim.value(24), 250);
}

TEST(Dimension, RangeWithUnalignedHiStopsBelow) {
  const Dimension dim = Dimension::range("x", 0, 7, 3);  // 0, 3, 6
  EXPECT_EQ(dim.cardinality(), 3u);
  EXPECT_EQ(dim.value(2), 6);
}

TEST(Dimension, GrayBitmaskDecodesIndices) {
  const Dimension dim = Dimension::grayBitmask("mask", 12);
  EXPECT_EQ(dim.cardinality(), 4096u);
  EXPECT_EQ(dim.bits(), 12u);
  for (std::uint64_t i : {0ull, 1ull, 100ull, 4095ull}) {
    EXPECT_EQ(dim.value(i), static_cast<std::int64_t>(util::toGray(i)));
  }
}

TEST(Dimension, ChoiceReturnsListedValues) {
  const Dimension dim = Dimension::choice("m", {1, 2, 17});
  EXPECT_EQ(dim.cardinality(), 3u);
  EXPECT_EQ(dim.value(2), 17);
}

TEST(Dimension, InvalidSpecsThrow) {
  EXPECT_THROW(Dimension::range("bad", 5, 1), std::invalid_argument);
  EXPECT_THROW(Dimension::range("bad", 0, 5, 0), std::invalid_argument);
  EXPECT_THROW(Dimension::grayBitmask("bad", 0), std::invalid_argument);
  EXPECT_THROW(Dimension::grayBitmask("bad", 64), std::invalid_argument);
  EXPECT_THROW(Dimension::choice("bad", {}), std::invalid_argument);
}

// --- Hyperspace ----------------------------------------------------------------

TEST(HyperspaceModel, PaperSpaceHas204800Scenarios) {
  EXPECT_EQ(paperSpace().totalScenarios(), 204800u);  // 4096 * 25 * 2, §6
}

TEST(HyperspaceModel, ValidChecksEveryCoordinate) {
  const Hyperspace space = paperSpace();
  EXPECT_TRUE(space.valid({0, 0, 0}));
  EXPECT_TRUE(space.valid({4095, 24, 1}));
  EXPECT_FALSE(space.valid({4096, 0, 0}));
  EXPECT_FALSE(space.valid({0, 25, 0}));
  EXPECT_FALSE(space.valid({0, 0, 2}));
  EXPECT_FALSE(space.valid({0, 0}));  // wrong arity
}

TEST(HyperspaceModel, SamplePointIsAlwaysValid) {
  const Hyperspace space = paperSpace();
  util::Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(space.valid(space.samplePoint(rng)));
  }
}

TEST(HyperspaceModel, ValueOfLooksUpByName) {
  const Hyperspace space = paperSpace();
  const Point point{util::fromGray(0xABC), 3, 1};
  EXPECT_EQ(space.valueOf(point, "mac_mask", -1), 0xABC);
  EXPECT_EQ(space.valueOf(point, "correct_clients", -1), 40);
  EXPECT_EQ(space.valueOf(point, "malicious_clients", -1), 2);
  EXPECT_EQ(space.valueOf(point, "no_such_dim", -1), -1);
}

TEST(HyperspaceModel, PointHashDistinguishesPoints) {
  // Distinct points must hash distinctly (up to negligible 64-bit
  // collisions); duplicate sampled points collapse in the point set.
  const Hyperspace space = paperSpace();
  std::set<std::uint64_t> hashes;
  std::set<Point> points;
  util::Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const Point point = space.samplePoint(rng);
    hashes.insert(space.pointHash(point));
    points.insert(point);
  }
  EXPECT_EQ(hashes.size(), points.size());
}

// --- Plugins -------------------------------------------------------------------

TEST(IndexStepPlugin, SmallDistanceStepsToAdjacentIndex) {
  const Hyperspace space = paperSpace();
  const IndexStepPlugin plugin("step", 0);
  util::Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    Point point{2000, 0, 0};
    plugin.mutate(space, point, 0.0, rng);
    const auto delta =
        static_cast<std::int64_t>(point[0]) - 2000;
    EXPECT_EQ(std::abs(delta), 1) << "distance 0 -> unit step";
    // Unit index step on a Gray dimension flips exactly one mask bit.
    EXPECT_EQ(util::hammingDistance(util::toGray(2000),
                                    util::toGray(point[0])),
              1);
  }
}

TEST(IndexStepPlugin, StaysInBoundsAtEdges) {
  const Hyperspace space = paperSpace();
  const IndexStepPlugin plugin("step", 1);
  util::Rng rng(9);
  for (double distance : {0.0, 0.3, 1.0}) {
    for (std::uint64_t start : {0ull, 24ull}) {
      for (int i = 0; i < 100; ++i) {
        Point point{0, start, 0};
        plugin.mutate(space, point, distance, rng);
        EXPECT_LT(point[1], 25u);
      }
    }
  }
}

TEST(IndexStepPlugin, LargeDistanceMovesFurtherOnAverage) {
  const Hyperspace space = paperSpace();
  const IndexStepPlugin plugin("step", 0);
  util::Rng rng(10);
  const auto averageDisplacement = [&](double distance) {
    double total = 0;
    for (int i = 0; i < 500; ++i) {
      Point point{2048, 0, 0};
      plugin.mutate(space, point, distance, rng);
      total += std::abs(static_cast<double>(point[0]) - 2048.0);
    }
    return total / 500;
  };
  EXPECT_GT(averageDisplacement(1.0), averageDisplacement(0.05) * 5);
}

TEST(ResamplePlugin, ExcludesCurrentValueWhenItFires) {
  Hyperspace space;
  space.add(Dimension::choice("m", {1, 2}));
  const ResamplePlugin plugin("resample", 0);
  util::Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    Point point{0};
    plugin.mutate(space, point, 1.0, rng);  // distance 1: always resample
    EXPECT_EQ(point[0], 1u);
  }
}

TEST(BinaryMaskFlipPlugin, FlipsDistanceScaledBitCount) {
  Hyperspace space;
  space.add(Dimension::grayBitmask("mask", 12));
  const BinaryMaskFlipPlugin plugin("flip", 0);
  util::Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    Point point{util::fromGray(0x0F0)};
    plugin.mutate(space, point, 0.0, rng);
    // distance 0 -> exactly one mask-bit flip.
    EXPECT_EQ(util::hammingDistance(util::toGray(point[0]), 0x0F0), 1);
    EXPECT_LT(point[0], 4096u);
  }
}

TEST(DefaultPlugins, OnePluginPerDimensionWithMatchingKinds) {
  const Hyperspace space = paperSpace();
  const std::vector<PluginPtr> plugins = defaultPlugins(space);
  ASSERT_EQ(plugins.size(), 3u);
  EXPECT_EQ(plugins[0]->name(), "step:mac_mask");
  EXPECT_EQ(plugins[1]->name(), "step:correct_clients");
  EXPECT_EQ(plugins[2]->name(), "resample:malicious_clients");
}

// --- Explorers ------------------------------------------------------------------

class CountingExecutor final : public ScenarioExecutor {
 public:
  explicit CountingExecutor(Hyperspace space) : space_(std::move(space)) {}
  Outcome execute(const Point& point) override {
    visited.push_back(point);
    Outcome outcome;
    outcome.impact = 0.1;
    return outcome;
  }
  const Hyperspace& space() const noexcept override { return space_; }
  std::vector<Point> visited;

 private:
  Hyperspace space_;
};

TEST(RandomExplorer, NeverRevisitsInLargeSpace) {
  CountingExecutor executor(paperSpace());
  Controller random = makeRandomExplorer(executor, 13);
  random.runTests(300);
  std::set<std::uint64_t> hashes;
  for (const Point& point : executor.visited) {
    hashes.insert(executor.space().pointHash(point));
  }
  EXPECT_EQ(hashes.size(), 300u);
}

}  // namespace
}  // namespace avd::core
