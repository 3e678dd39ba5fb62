#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace snnmap::util {
namespace {

TEST(Rng, IsDeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(Rng, ZeroSeedStillProducesEntropy) {
  Rng r(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(r.next());
  EXPECT_GT(seen.size(), 95u);
}

TEST(Rng, UniformIsInHalfOpenUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng r(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysBelowBound) {
  Rng r(13);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowZeroIsZero) {
  Rng r(13);
  EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, BelowOneIsZero) {
  Rng r(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng r(17);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[r.below(10)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 10.0, n / 10.0 * 0.1);
  }
}

TEST(Rng, ChanceEdgeCases) {
  Rng r(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
    EXPECT_FALSE(r.chance(-0.5));
    EXPECT_TRUE(r.chance(1.5));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng r(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(31);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalShiftScale) {
  Rng r(37);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng r(41);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, ExponentialNonPositiveRateIsZero) {
  Rng r(41);
  EXPECT_EQ(r.exponential(0.0), 0.0);
  EXPECT_EQ(r.exponential(-1.0), 0.0);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(53);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng r(59);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  const auto original = v;
  r.shuffle(v);
  EXPECT_NE(v, original);  // probability of identity is ~1/100!
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(61);
  Rng child = parent.fork();
  // The child stream should not equal the parent's continuation.
  int equal = 0;
  for (int i = 0; i < 32; ++i) {
    if (parent.next() == child.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, StreamIsPinned) {
  // The raw xoshiro256** stream is a contract (the PSO golden results rest
  // on it); these are its first values for seed 42.
  Rng r(42);
  EXPECT_EQ(r.next(), 0x15780B2E0C2EC716ULL);
  EXPECT_EQ(r.next(), 0x6104D9866D113A7EULL);
  EXPECT_EQ(r.uniform53(), 0xAE17533239E499A1ULL >> 11);
  EXPECT_EQ(r.uniform(),
            static_cast<double>(0xECB8AD4703B360A1ULL >> 11) * 0x1.0p-53);
}

TEST(Rng, NextIfCommitsOnlyWhenTaken) {
  Rng a(71);
  Rng b(71);
  for (int i = 0; i < 1000; ++i) {
    const bool take = (i * 7) % 3 == 0;
    const std::uint64_t peeked = a.next_if(take);
    if (take) {
      EXPECT_EQ(peeked, b.next());
    } else {
      Rng probe = b;
      EXPECT_EQ(peeked, probe.next());  // the value next() would return
    }
  }
  EXPECT_EQ(a.next(), b.next());  // both streams at the same position
}

TEST(Rng, BelowFromMatchesBelow) {
  for (const std::uint64_t n : {0ULL, 1ULL, 2ULL, 7ULL, 1000ULL, 1ULL << 40,
                                (1ULL << 63) + 12345}) {
    Rng a(83);
    Rng b(83);
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t expect = a.below(n);
      const std::uint64_t got = n == 0 ? b.below_from(0, 0)
                                       : b.below_from(b.next(), n);
      EXPECT_EQ(got, expect) << "n=" << n;
    }
    EXPECT_EQ(a.next(), b.next()) << "n=" << n;  // same draws consumed
  }
}

TEST(Rng, UniformIsUnitOfUniform53) {
  Rng a(91);
  Rng b(91);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t u53 = a.uniform53();
    EXPECT_LT(u53, 1ULL << 53);
    EXPECT_EQ(b.uniform(), Rng::unit(u53));
  }
}

}  // namespace
}  // namespace snnmap::util
