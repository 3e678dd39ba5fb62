#include "snn/poisson.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/stats.hpp"

namespace snnmap::snn {
namespace {

TEST(Poisson, TrainRateMatchesRequest) {
  util::Rng rng(5);
  const auto train = generate_poisson_train(50.0, 100000.0, rng);
  EXPECT_NEAR(mean_rate_hz(train, 100000.0), 50.0, 2.0);
}

TEST(Poisson, TrainIsSortedAndInRange) {
  util::Rng rng(6);
  const auto train = generate_poisson_train(30.0, 5000.0, rng);
  EXPECT_TRUE(is_valid_train(train));
  for (const double t : train) {
    EXPECT_GE(t, 0.0);
    EXPECT_LT(t, 5000.0);
  }
}

TEST(Poisson, ZeroRateOrDurationIsEmpty) {
  util::Rng rng(7);
  EXPECT_TRUE(generate_poisson_train(0.0, 1000.0, rng).empty());
  EXPECT_TRUE(generate_poisson_train(-5.0, 1000.0, rng).empty());
  EXPECT_TRUE(generate_poisson_train(10.0, 0.0, rng).empty());
}

TEST(Poisson, CvIsNearOne) {
  // The defining property of a Poisson process: exponential ISIs, CV ~ 1.
  util::Rng rng(8);
  const auto train = generate_poisson_train(40.0, 200000.0, rng);
  util::Accumulator isi;
  for (std::size_t i = 1; i < train.size(); ++i) {
    isi.add(train[i] - train[i - 1]);
  }
  EXPECT_NEAR(isi.stddev() / isi.mean(), 1.0, 0.05);
}

TEST(Poisson, StepSpikingMatchesRate) {
  util::Rng rng(9);
  int spikes = 0;
  const int steps = 200000;
  for (int i = 0; i < steps; ++i) {
    spikes += poisson_step_spike(20.0, 1.0, rng) ? 1 : 0;
  }
  // 20 Hz -> p = 0.02 per 1 ms step.
  EXPECT_NEAR(spikes / static_cast<double>(steps), 0.02, 0.002);
}

TEST(Poisson, StepZeroRateNeverSpikes) {
  util::Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(poisson_step_spike(0.0, 1.0, rng));
    EXPECT_FALSE(poisson_step_spike(-10.0, 1.0, rng));
  }
}

TEST(Poisson, DeterministicGivenSeed) {
  util::Rng a(42);
  util::Rng b(42);
  EXPECT_EQ(generate_poisson_train(25.0, 2000.0, a),
            generate_poisson_train(25.0, 2000.0, b));
}

}  // namespace
}  // namespace snnmap::snn
