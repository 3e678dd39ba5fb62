#include "snn/spike_train.hpp"

#include <gtest/gtest.h>

namespace snnmap::snn {
namespace {

TEST(SpikeTrain, ValidityChecks) {
  EXPECT_TRUE(is_valid_train({}));
  EXPECT_TRUE(is_valid_train({1.0}));
  EXPECT_TRUE(is_valid_train({1.0, 1.0, 2.0}));
  EXPECT_FALSE(is_valid_train({2.0, 1.0}));
  EXPECT_FALSE(is_valid_train({-1.0, 2.0}));
}

TEST(SpikeTrain, MeanRate) {
  EXPECT_DOUBLE_EQ(mean_rate_hz({0.0, 100.0, 200.0, 300.0, 400.0}, 1000.0),
                   5.0);
  EXPECT_DOUBLE_EQ(mean_rate_hz({}, 1000.0), 0.0);
  EXPECT_DOUBLE_EQ(mean_rate_hz({1.0}, 0.0), 0.0);
}

TEST(SpikeTrain, MergeKeepsOrderAndSize) {
  const SpikeTrain a{1.0, 5.0, 9.0};
  const SpikeTrain b{2.0, 5.0, 8.0};
  const SpikeTrain merged = merge_trains(a, b);
  ASSERT_EQ(merged.size(), 6u);
  EXPECT_TRUE(is_valid_train(merged));
  EXPECT_DOUBLE_EQ(merged.front(), 1.0);
  EXPECT_DOUBLE_EQ(merged.back(), 9.0);
}

TEST(SpikeTrain, MergeWithEmpty) {
  const SpikeTrain a{1.0, 2.0};
  EXPECT_EQ(merge_trains(a, {}), a);
  EXPECT_EQ(merge_trains({}, a), a);
}

}  // namespace
}  // namespace snnmap::snn
