// Tests for the simulation substrate's deterministic RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/rng.hpp"

namespace stordep::sim {
namespace {

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  Rng c(124);
  EXPECT_NE(Rng(123).next(), c.next());
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50'000; ++i) {
    const auto v = rng.uniformInt(10);
    ASSERT_LT(v, 10u);
    ++counts[static_cast<size_t>(v)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 5000, 400);  // ~5 sigma
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng(17);
  const int n = 20'000;
  int rank0 = 0, topDecile = 0;
  for (int i = 0; i < n; ++i) {
    const auto k = rng.zipf(1000, 1.0);
    ASSERT_LT(k, 1000u);
    if (k == 0) ++rank0;
    if (k < 100) ++topDecile;
  }
  // Under Zipf(1.0, 1000): P(0) ~ 1/H(1000) ~ 13%, P(k<100) ~ 62%.
  EXPECT_GT(rank0, n / 20);
  EXPECT_GT(topDecile, n / 2);
}

TEST(Rng, ZipfZeroSkewIsUniform) {
  Rng rng(19);
  const int n = 30'000;
  int low = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.zipf(100, 0.0) < 50) ++low;
  }
  EXPECT_NEAR(low, n / 2, n / 20);
}

TEST(Rng, SplitStreamsDiffer) {
  Rng a(29);
  Rng b = a.split();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

}  // namespace
}  // namespace stordep::sim
