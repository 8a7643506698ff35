// Tests for the uniform grid index (differential against linear scan).

#include "experiments/grid_index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "index/linear_scan.h"
#include "rng/random.h"
#include "workload/generators.h"

namespace gprq::index {
namespace {

TEST(UniformGrid, ValidatesInput) {
  EXPECT_FALSE(UniformGridIndex::Build({}, 8).ok());
  EXPECT_FALSE(UniformGridIndex::Build({la::Vector{0.0, 0.0}}, 0).ok());
  std::vector<la::Vector> points(2, la::Vector(9));
  EXPECT_FALSE(UniformGridIndex::Build(points, 64).ok());  // 64^9 cells
  EXPECT_FALSE(UniformGridIndex::Build(
                   {la::Vector{0.0, 0.0}, la::Vector{1.0}}, 4)
                   .ok());
}

TEST(UniformGrid, DegenerateExtents) {
  // All points on a vertical line: x-extent is zero.
  std::vector<la::Vector> points = {la::Vector{5.0, 1.0},
                                    la::Vector{5.0, 2.0},
                                    la::Vector{5.0, 3.0}};
  auto grid = UniformGridIndex::Build(points, 4);
  ASSERT_TRUE(grid.ok());
  std::vector<ObjectId> out;
  grid->RangeQuery(geom::Rect(la::Vector{4.0, 0.0}, la::Vector{6.0, 2.5}),
                   &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<ObjectId>{0, 1}));
}

class GridDifferentialTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, bool>> {};

TEST_P(GridDifferentialTest, MatchesLinearScan) {
  const auto [dim, cells, clustered] = GetParam();
  const size_t n = 4000;
  const geom::Rect extent(la::Vector(dim, 0.0), la::Vector(dim, 100.0));
  const auto dataset =
      clustered ? workload::GenerateClustered(n, extent, 9, 6.0, dim + 50)
                : workload::GenerateUniform(n, extent, dim + 50);
  auto grid = UniformGridIndex::Build(dataset.points, cells);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->size(), n);

  LinearScanIndex oracle(dim);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(oracle.Insert(dataset.points[i], i).ok());
  }
  rng::Random random(3);
  for (int trial = 0; trial < 20; ++trial) {
    la::Vector lo(dim), hi(dim);
    for (size_t j = 0; j < dim; ++j) {
      const double a = random.NextDouble(0.0, 100.0);
      const double b = random.NextDouble(0.0, 100.0);
      lo[j] = std::min(a, b);
      hi[j] = std::max(a, b);
    }
    std::vector<ObjectId> got, expected;
    grid->RangeQuery(geom::Rect(lo, hi), &got);
    oracle.RangeQuery(geom::Rect(lo, hi), &expected);
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected) << "window trial " << trial;

    la::Vector center(dim);
    for (size_t j = 0; j < dim; ++j) {
      center[j] = random.NextDouble(0.0, 100.0);
    }
    got.clear();
    expected.clear();
    grid->BallQuery(center, 12.0, &got);
    oracle.BallQuery(center, 12.0, &expected);
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected) << "ball trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, GridDifferentialTest,
                         ::testing::Values(std::make_tuple(2, 32, false),
                                           std::make_tuple(2, 64, true),
                                           std::make_tuple(3, 16, true),
                                           std::make_tuple(5, 8, false)));

TEST(UniformGrid, CellsTouchedTracksQuerySize) {
  const geom::Rect extent(la::Vector{0.0, 0.0}, la::Vector{100.0, 100.0});
  const auto dataset = workload::GenerateUniform(10000, extent, 1);
  auto grid = UniformGridIndex::Build(dataset.points, 50);
  ASSERT_TRUE(grid.ok());
  std::vector<ObjectId> out;
  grid->ResetStats();
  grid->RangeQuery(geom::Rect(la::Vector{10.0, 10.0}, la::Vector{12.0, 12.0}),
                   &out);
  const uint64_t small = grid->cells_touched();
  grid->ResetStats();
  out.clear();
  grid->RangeQuery(geom::Rect(la::Vector{10.0, 10.0}, la::Vector{60.0, 60.0}),
                   &out);
  EXPECT_GT(grid->cells_touched(), small * 10);
}

}  // namespace
}  // namespace gprq::index
