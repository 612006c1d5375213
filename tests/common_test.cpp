// Unit and property tests for the common utility library.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/gray_code.h"
#include "common/hash.h"
#include "common/levenshtein.h"
#include "common/rng.h"

namespace avd::util {
namespace {

// --- Rng ---------------------------------------------------------------------

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeIsInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u) << "all 7 values should appear in 2000 draws";
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceHonorsEdgeProbabilities) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(23);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / 20000.0, 5.0, 0.3);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.fork(1);
  Rng child2 = parent.fork(1);
  // Forks taken at different parent states differ.
  EXPECT_NE(child.next(), child2.next());
}

// --- Gray code ----------------------------------------------------------------

TEST(GrayCode, RoundTripsAllTwelveBitValues) {
  for (std::uint64_t v = 0; v < 4096; ++v) {
    EXPECT_EQ(fromGray(toGray(v)), v);
  }
}

TEST(GrayCode, IsBijectiveOverTwelveBits) {
  std::set<std::uint64_t> codes;
  for (std::uint64_t v = 0; v < 4096; ++v) codes.insert(toGray(v));
  EXPECT_EQ(codes.size(), 4096u);
  EXPECT_LE(*codes.rbegin(), 4095u) << "codes stay within the same width";
}

TEST(GrayCode, RoundTripsLargeValues) {
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next();
    EXPECT_EQ(fromGray(toGray(v)), v);
  }
}

TEST(GrayCode, HammingDistanceCountsDifferingBits) {
  EXPECT_EQ(hammingDistance(0, 0), 0);
  EXPECT_EQ(hammingDistance(0b1010, 0b0101), 4);
  EXPECT_EQ(hammingDistance(~0ull, 0), 64);
}

/// The property the paper's encoding relies on: adjacent indices differ in
/// exactly one mask bit.
class GrayAdjacency : public ::testing::TestWithParam<int> {};

TEST_P(GrayAdjacency, ConsecutiveCodesDifferInOneBit) {
  const int bits = GetParam();
  const std::uint64_t count = 1ull << bits;
  for (std::uint64_t v = 0; v + 1 < count; ++v) {
    EXPECT_EQ(hammingDistance(toGray(v), toGray(v + 1)), 1)
        << "at index " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, GrayAdjacency,
                         ::testing::Values(1, 4, 8, 10, 12, 16));

// --- Levenshtein ----------------------------------------------------------------

TEST(Levenshtein, KnownDistances) {
  EXPECT_EQ(levenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(levenshtein("flaw", "lawn"), 2u);
  EXPECT_EQ(levenshtein("", "abc"), 3u);
  EXPECT_EQ(levenshtein("abc", ""), 3u);
  EXPECT_EQ(levenshtein("", ""), 0u);
  EXPECT_EQ(levenshtein("same", "same"), 0u);
}

TEST(Levenshtein, WorksOnNonCharElements) {
  const std::vector<int> a{1, 2, 3, 4};
  const std::vector<int> b{2, 3, 4, 5};
  EXPECT_EQ(levenshtein(std::span<const int>(a), std::span<const int>(b)), 2u);
}

/// Metric axioms on random string samples.
class LevenshteinMetric : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LevenshteinMetric, SatisfiesMetricAxioms) {
  Rng rng(GetParam());
  const auto randomString = [&rng] {
    std::string s(rng.below(12), ' ');
    for (char& c : s) c = static_cast<char>('a' + rng.below(4));
    return s;
  };
  for (int i = 0; i < 50; ++i) {
    const std::string a = randomString();
    const std::string b = randomString();
    const std::string c = randomString();
    const auto ab = levenshtein(a, b);
    const auto ba = levenshtein(b, a);
    const auto ac = levenshtein(a, c);
    const auto cb = levenshtein(c, b);
    EXPECT_EQ(ab, ba) << "symmetry";
    EXPECT_EQ(levenshtein(a, a), 0u) << "identity";
    EXPECT_LE(ab, ac + cb) << "triangle inequality";
    if (a != b) {
      EXPECT_GT(ab, 0u) << "positivity";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LevenshteinMetric,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Levenshtein, BoundedByLongerLength) {
  EXPECT_LE(levenshtein("abcdef", "xy"), 6u);
  EXPECT_GE(levenshtein("abcdef", "xy"), 4u);  // >= length difference
}

// --- Bytes ---------------------------------------------------------------------

TEST(Bytes, ScalarRoundTrip) {
  ByteWriter writer;
  writer.u8(0xAB);
  writer.u16(0x1234);
  writer.u32(0xDEADBEEF);
  writer.u64(0x0123456789ABCDEFull);
  writer.i64(-42);

  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u16(), 0x1234);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.i64(), -42);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Bytes, BlobAndStringRoundTrip) {
  ByteWriter writer;
  writer.str("hello");
  writer.str("");
  const Bytes payload{1, 2, 3};
  writer.blob(payload);

  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.str(), "hello");
  EXPECT_EQ(reader.str(), "");
  EXPECT_EQ(reader.blob(), payload);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Bytes, TruncatedReadsReturnNullopt) {
  ByteWriter writer;
  writer.u32(7);
  ByteReader reader(writer.bytes());
  EXPECT_TRUE(reader.u64() == std::nullopt);
  EXPECT_EQ(reader.u32(), 7u);  // the failed read consumed nothing
  EXPECT_TRUE(reader.u8() == std::nullopt);
}

TEST(Bytes, BlobLengthBeyondBufferFails) {
  ByteWriter writer;
  writer.u32(100);  // claims 100 bytes follow
  writer.u8(1);
  ByteReader reader(writer.bytes());
  EXPECT_TRUE(reader.blob() == std::nullopt);
}

// --- Hash ----------------------------------------------------------------------

TEST(Hash, Fnv1aMatchesReferenceVectors) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(Hash, CombineIsOrderSensitive) {
  const std::uint64_t ab = hashCombine(hashCombine(0, 1), 2);
  const std::uint64_t ba = hashCombine(hashCombine(0, 2), 1);
  EXPECT_NE(ab, ba);
}

}  // namespace
}  // namespace avd::util
