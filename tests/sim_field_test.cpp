#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "sim/field.hpp"

namespace jrsnd::sim {
namespace {

TEST(Field, BasicProperties) {
  const Field f(5000.0, 4000.0);
  EXPECT_DOUBLE_EQ(f.width(), 5000.0);
  EXPECT_DOUBLE_EQ(f.height(), 4000.0);
  EXPECT_DOUBLE_EQ(f.area(), 2e7);
}

TEST(Field, RejectsNonPositiveDimensions) {
  EXPECT_THROW(Field(0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(Field(10.0, -1.0), std::invalid_argument);
}

TEST(Field, ContainsAndClamp) {
  const Field f(100.0, 50.0);
  EXPECT_TRUE(f.contains({0.0, 0.0}));
  EXPECT_TRUE(f.contains({100.0, 50.0}));
  EXPECT_FALSE(f.contains({100.1, 10.0}));
  EXPECT_FALSE(f.contains({-0.1, 10.0}));
  const Position clamped = f.clamp({150.0, -20.0});
  EXPECT_DOUBLE_EQ(clamped.x, 100.0);
  EXPECT_DOUBLE_EQ(clamped.y, 0.0);
}

TEST(Field, DistanceIsEuclidean) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

TEST(Field, OverlapAreaFormula) {
  // (pi - 3 sqrt(3)/4) a^2 from the paper's Theorem 3.
  const double a = 300.0;
  EXPECT_NEAR(expected_overlap_area(a), (M_PI - 3.0 * std::sqrt(3.0) / 4.0) * a * a, 1e-6);
}

TEST(Field, CommonNeighborFraction) {
  // 1 - 3 sqrt(3)/(4 pi) ~= 0.5865.
  EXPECT_NEAR(common_neighbor_fraction(), 0.5865, 1e-3);
}

}  // namespace
}  // namespace jrsnd::sim
