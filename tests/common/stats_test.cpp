#include "common/stats.hpp"

#include <gtest/gtest.h>

namespace hmcc {
namespace {

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(Accumulator, BasicMoments) {
  Accumulator a;
  for (double x : {2.0, 4.0, 6.0, 8.0}) a.add(x);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.sum(), 20.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 8.0);
  EXPECT_NEAR(a.variance(), 20.0 / 3.0, 1e-12);
}

TEST(Accumulator, MergePreservesMoments) {
  Accumulator a;
  Accumulator b;
  Accumulator all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37;
    a.add(x);
    all.add(x);
  }
  for (int i = 50; i < 120; ++i) {
    const double x = i * 0.37;
    b.add(x);
    all.add(x);
  }
  a += b;
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a;
  a.add(3.0);
  Accumulator empty;
  a += empty;
  EXPECT_EQ(a.count(), 1u);
  empty += a;
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

}  // namespace
}  // namespace hmcc
