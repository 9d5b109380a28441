#include "src/common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/error.hpp"

namespace talon {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.5, 3.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(9);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen, (std::set<int>{3, 4, 5, 6, 7}));
}

TEST(Rng, NormalZeroStddevIsZero) {
  Rng rng(11);
  EXPECT_DOUBLE_EQ(rng.normal(0.0), 0.0);
}

TEST(Rng, NormalRoughMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sumsq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(2.0);
    sum += v;
    sumsq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.1);
  EXPECT_NEAR(sumsq / n, 4.0, 0.3);
}

TEST(Rng, BernoulliEdgeProbabilities) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
  // Out-of-range p is clamped, not UB.
  EXPECT_TRUE(rng.bernoulli(2.0));
  EXPECT_FALSE(rng.bernoulli(-1.0));
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(19);
  for (int trial = 0; trial < 50; ++trial) {
    const auto picks = rng.sample_without_replacement(34, 14);
    ASSERT_EQ(picks.size(), 14u);
    std::set<int> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 14u);
    for (int p : picks) {
      EXPECT_GE(p, 0);
      EXPECT_LT(p, 34);
    }
  }
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Rng rng(21);
  const auto picks = rng.sample_without_replacement(5, 5);
  std::set<int> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique, (std::set<int>{0, 1, 2, 3, 4}));
}

TEST(Rng, SampleWithoutReplacementIsUnbiased) {
  // Every element should appear with probability k/n.
  Rng rng(23);
  std::vector<int> counts(10, 0);
  const int trials = 5000;
  for (int t = 0; t < trials; ++t) {
    for (int p : rng.sample_without_replacement(10, 3)) ++counts[static_cast<std::size_t>(p)];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.3, 0.05);
  }
}

TEST(Rng, SampleRejectsBadArguments) {
  Rng rng(25);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), PreconditionError);
  EXPECT_THROW(rng.sample_without_replacement(-1, 0), PreconditionError);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.fork();
  // Child sequence differs from parent's continued sequence.
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (parent.uniform(0.0, 1.0) == child.uniform(0.0, 1.0)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(33);
  Rng b(33);
  Rng fa = a.fork();
  Rng fb = b.fork();
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(fa.uniform(0.0, 1.0), fb.uniform(0.0, 1.0));
  }
}

TEST(SubstreamSeed, DeterministicAndCoordinateSensitive) {
  EXPECT_EQ(substream_seed(1, 2, 3, 4, 5), substream_seed(1, 2, 3, 4, 5));
  // Every coordinate matters, including trailing defaults.
  EXPECT_NE(substream_seed(1, 2, 3, 4, 5), substream_seed(2, 2, 3, 4, 5));
  EXPECT_NE(substream_seed(1, 2, 3, 4, 5), substream_seed(1, 3, 3, 4, 5));
  EXPECT_NE(substream_seed(1, 2, 3, 4, 5), substream_seed(1, 2, 4, 4, 5));
  EXPECT_NE(substream_seed(1, 2, 3, 4, 5), substream_seed(1, 2, 3, 5, 5));
  EXPECT_NE(substream_seed(1, 2, 3, 4, 5), substream_seed(1, 2, 3, 4, 6));
}

TEST(SubstreamSeed, CoordinatesAreNotInterchangeable) {
  // (s0, s1) = (a, b) and (b, a) are distinct substreams, and defaulted
  // trailing coordinates do not alias shifted ones.
  EXPECT_NE(substream_seed(7, 1, 2), substream_seed(7, 2, 1));
  EXPECT_NE(substream_seed(7, 0, 1), substream_seed(7, 1));
  EXPECT_NE(substream_seed(7, 1), substream_seed(7, 1, 1));
}

TEST(SubstreamSeed, SeparatesNeighbouringCells) {
  // Adjacent replay cells (pose +-1, probe count +-1) must land far apart;
  // a weak mix would correlate their Rng streams.
  Rng a(substream_seed(42, 2, 14, 6));
  Rng b(substream_seed(42, 2, 14, 7));
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

// --- Stream equivalence with std::mt19937_64 -------------------------------
//
// Rng's engine seeds and twists its first block lazily. These tests pin that
// it is std::mt19937_64 bit for bit: raw outputs, every Rng method, copies,
// the state text and restores from std-written text, at draw counts that
// straddle the lazy boundaries -- the first twist chunk, the seed horizon
// (n - m = 156), the end of the first block (312) and of the second (624).

constexpr int kPositions[] = {0, 1, 2, 155, 156, 157, 311, 312, 313, 623, 624, 625, 2000};
constexpr int kSeeds = 1000;
// Draws compared after a copy or restore: past the rest of the first block
// and through the whole second one from any position above.
constexpr int kResumeDraws = 700;

std::uint64_t test_seed(int i) {
  constexpr std::uint64_t kEdges[] = {0, 1, 5489, ~std::uint64_t{0}};
  if (i < 4) return kEdges[i];
  // Alternate small seeds with substream-spread ones, as the simulators use.
  const auto u = static_cast<std::uint64_t>(i);
  return i % 2 == 0 ? u : substream_seed(20261020, u);
}

std::string std_state(const std::mt19937_64& engine) {
  std::ostringstream out;
  out << engine;
  return out.str();
}

// Index of the first of `count` draws at which the two engines differ, or
// -1 if they agree on all of them.
template <class A, class B>
int first_mismatch(A& a, B& b, int count) {
  for (int i = 0; i < count; ++i) {
    if (a() != b()) return i;
  }
  return -1;
}

TEST(RngStream, EngineMatchesStdStreamCopiesStateTextAndRestores) {
  for (int i = 0; i < kSeeds; ++i) {
    const std::uint64_t seed = test_seed(i);
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    int drawn = 0;
    for (const int position : kPositions) {
      ASSERT_EQ(first_mismatch(rng.engine(), reference, position - drawn), -1)
          << "seed " << seed << " before draw " << position;
      drawn = position;
      const std::string text = std_state(reference);
      ASSERT_EQ(rng.save_state(), text) << "seed " << seed << " at draw " << position;

      Rng copy = rng;
      std::mt19937_64 reference_copy = reference;
      ASSERT_EQ(first_mismatch(copy.engine(), reference_copy, kResumeDraws), -1)
          << "copy of seed " << seed << " at draw " << position;

      Rng restored(999);
      restored.restore_state(text);
      reference_copy = reference;
      ASSERT_EQ(first_mismatch(restored.engine(), reference_copy, kResumeDraws), -1)
          << "restore of seed " << seed << " at draw " << position;
      ASSERT_EQ(restored.save_state(), std_state(reference_copy));
    }
  }
}

TEST(RngStream, EveryMethodMatchesStdDistributionsOnStdEngine) {
  for (int i = 0; i < kSeeds; ++i) {
    const std::uint64_t seed = test_seed(i);
    for (const int position : kPositions) {
      Rng rng(seed);
      std::mt19937_64 reference(seed);
      for (int d = 0; d < position; ++d) {
        rng.engine()();
        reference();
      }

      EXPECT_EQ(rng.uniform(-2.0, 3.0),
                std::uniform_real_distribution<double>(-2.0, 3.0)(reference));
      EXPECT_EQ(rng.uniform_int(0, 33), std::uniform_int_distribution<int>(0, 33)(reference));
      EXPECT_EQ(rng.normal(1.5), std::normal_distribution<double>(0.0, 1.5)(reference));
      EXPECT_EQ(rng.bernoulli(0.3), std::bernoulli_distribution(0.3)(reference));

      // Partial Fisher-Yates over {0..33}, 14 picks, on the std engine.
      std::vector<int> pool(34);
      std::iota(pool.begin(), pool.end(), 0);
      for (std::size_t k = 0; k < 14; ++k) {
        const auto j = static_cast<std::size_t>(
            std::uniform_int_distribution<int>(static_cast<int>(k), 33)(reference));
        std::swap(pool[k], pool[j]);
      }
      pool.resize(14);
      EXPECT_EQ(rng.sample_without_replacement(34, 14), pool);

      std::vector<int> shuffled(34);
      std::iota(shuffled.begin(), shuffled.end(), 0);
      std::vector<int> expected = shuffled;
      std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
      std::shuffle(expected.begin(), expected.end(), reference);
      EXPECT_EQ(shuffled, expected);

      Rng child = rng.fork();
      std::mt19937_64 reference_child(std::uniform_int_distribution<std::uint64_t>()(reference));
      EXPECT_EQ(first_mismatch(child.engine(), reference_child, 320), -1);

      ASSERT_EQ(rng.save_state(), std_state(reference))
          << "seed " << seed << " after methods from draw " << position;
      ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed << " from draw " << position;
    }
  }
}

}  // namespace
}  // namespace talon
