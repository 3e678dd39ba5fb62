#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace snnmap::util {
namespace {

TEST(Accumulator, EmptyDefaults) {
  Accumulator acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_EQ(acc.min(), 0.0);
  EXPECT_EQ(acc.max(), 0.0);
}

TEST(Accumulator, SingleValue) {
  Accumulator acc;
  acc.add(5.0);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_EQ(acc.mean(), 5.0);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_EQ(acc.min(), 5.0);
  EXPECT_EQ(acc.max(), 5.0);
}

TEST(Accumulator, KnownMoments) {
  Accumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 4.571428571, 1e-9);  // unbiased
  EXPECT_EQ(acc.min(), 2.0);
  EXPECT_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
}

TEST(Histogram, BinsValuesCorrectly) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(2.5);   // bin 1
  h.add(9.99);  // bin 4
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, ClampsOutliersIntoEdgeBins) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(100.0);
  h.add(10.0);  // exactly hi -> last bin
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_low(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_high(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_low(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_high(4), 10.0);
}

TEST(Histogram, RenderContainsCounts) {
  Histogram h(0.0, 4.0, 2);
  h.add(1.0);
  h.add(1.5);
  h.add(3.0);
  const std::string render = h.render(10);
  EXPECT_NE(render.find('#'), std::string::npos);
  EXPECT_NE(render.find('2'), std::string::npos);
}

}  // namespace
}  // namespace snnmap::util
