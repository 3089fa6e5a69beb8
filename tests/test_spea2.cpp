#include "ftmc/dse/spea2.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "ftmc/util/rng.hpp"
#include "spea2_reference.hpp"

namespace {

using ftmc::dse::dominates;
using ftmc::dse::ObjectiveVector;
using ftmc::dse::pareto_front;
using ftmc::dse::spea2_fitness;
using ftmc::dse::spea2_select;

TEST(Dominance, Basics) {
  EXPECT_TRUE(dominates({1, 1}, {2, 2}));
  EXPECT_TRUE(dominates({1, 2}, {2, 2}));
  EXPECT_FALSE(dominates({2, 2}, {2, 2}));  // equal: not strict
  EXPECT_FALSE(dominates({1, 3}, {2, 2}));  // incomparable
  EXPECT_FALSE(dominates({2, 2}, {1, 1}));
}

TEST(Dominance, SingleObjective) {
  EXPECT_TRUE(dominates({1}, {2}));
  EXPECT_FALSE(dominates({2}, {1}));
  EXPECT_FALSE(dominates({1}, {1}));
}

TEST(Dominance, DimensionMismatchThrows) {
  EXPECT_THROW(dominates({1, 2}, {1}), std::invalid_argument);
}

TEST(ParetoFront, KnownSet) {
  const std::vector<ObjectiveVector> points{
      {1, 5}, {2, 4}, {3, 3}, {2, 6}, {4, 4}, {5, 1}};
  const auto front = pareto_front(points);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1, 2, 5}));
}

TEST(ParetoFront, DuplicatesAreAllNonDominated) {
  const std::vector<ObjectiveVector> points{{1, 1}, {1, 1}, {2, 2}};
  const auto front = pareto_front(points);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1}));
}

TEST(Spea2Fitness, NonDominatedBelowOne) {
  const std::vector<ObjectiveVector> points{
      {1, 5}, {2, 4}, {3, 3}, {2, 6}, {4, 4}, {5, 1}};
  const auto fitness = spea2_fitness(points);
  const auto front = pareto_front(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const bool on_front =
        std::find(front.begin(), front.end(), i) != front.end();
    if (on_front)
      EXPECT_LT(fitness[i], 1.0) << i;
    else
      EXPECT_GE(fitness[i], 1.0) << i;
  }
}

TEST(Spea2Fitness, MoreDominatedMeansWorse) {
  // c is dominated by both a and b; d only by a.
  const std::vector<ObjectiveVector> points{
      {0, 0},   // a: dominates everyone
      {2, 2},   // b
      {3, 3},   // c: dominated by a and b
      {1, 10},  // d: dominated by a only
  };
  const auto fitness = spea2_fitness(points);
  EXPECT_GT(fitness[2], fitness[3]);
}

TEST(Spea2Select, KeepsTheFrontWhenItFits) {
  const std::vector<ObjectiveVector> points{
      {1, 5}, {2, 4}, {3, 3}, {2, 6}, {4, 4}, {5, 1}};
  auto selected = spea2_select(points, 4);
  std::sort(selected.begin(), selected.end());
  EXPECT_EQ(selected, (std::vector<std::size_t>{0, 1, 2, 5}));
}

TEST(Spea2Select, FillsUpWithBestDominated) {
  const std::vector<ObjectiveVector> points{
      {1, 1}, {2, 2}, {3, 3}, {4, 4}};
  auto selected = spea2_select(points, 3);
  std::sort(selected.begin(), selected.end());
  // Front is {0}; filled with the least-dominated others in order.
  EXPECT_EQ(selected, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Spea2Select, TruncatesCrowdedRegions) {
  // Five non-dominated points, two nearly coincident: truncation should
  // remove one of the crowded pair, keeping the spread.
  const std::vector<ObjectiveVector> points{
      {0.0, 10.0}, {2.0, 6.0}, {2.05, 5.95}, {6.0, 2.0}, {10.0, 0.0}};
  auto selected = spea2_select(points, 4);
  std::sort(selected.begin(), selected.end());
  // Extremes must survive truncation.
  EXPECT_TRUE(std::find(selected.begin(), selected.end(), 0u) !=
              selected.end());
  EXPECT_TRUE(std::find(selected.begin(), selected.end(), 4u) !=
              selected.end());
  // Exactly one of the crowded pair {1, 2} is gone.
  const bool has1 =
      std::find(selected.begin(), selected.end(), 1u) != selected.end();
  const bool has2 =
      std::find(selected.begin(), selected.end(), 2u) != selected.end();
  EXPECT_NE(has1, has2);
}

TEST(Spea2Select, CapacityEdgeCases) {
  const std::vector<ObjectiveVector> points{{1, 1}, {2, 2}};
  EXPECT_TRUE(spea2_select(points, 0).empty());
  EXPECT_TRUE(spea2_select({}, 5).empty());
  EXPECT_EQ(spea2_select(points, 10).size(), 2u);
}

TEST(Spea2Select, SelectionIsSubsetAndRightSize) {
  ftmc::util::Rng rng(99);
  std::vector<ObjectiveVector> points;
  for (int i = 0; i < 40; ++i)
    points.push_back({rng.uniform_real(0, 100), rng.uniform_real(0, 100)});
  const auto selected = spea2_select(points, 15);
  EXPECT_EQ(selected.size(), 15u);
  for (const std::size_t index : selected) EXPECT_LT(index, points.size());
  // No duplicates.
  auto sorted = selected;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

class Spea2Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Spea2Property, FrontMembersPreferredOverDominated) {
  ftmc::util::Rng rng(GetParam());
  std::vector<ObjectiveVector> points;
  for (int i = 0; i < 30; ++i)
    points.push_back({rng.uniform_real(0, 10), rng.uniform_real(0, 10)});
  const auto front = pareto_front(points);
  const std::size_t capacity = std::max<std::size_t>(front.size(), 10);
  const auto selected = spea2_select(points, capacity);
  // Every front member must be selected when capacity allows.
  for (const std::size_t index : front)
    EXPECT_TRUE(std::find(selected.begin(), selected.end(), index) !=
                selected.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, Spea2Property,
                         ::testing::Range<std::uint64_t>(1, 11));

enum class SetKind { kUniform, kGrid, kFront, kFrontWithCopies };

/// A random objective set of one of the shapes SPEA2 meets in the GA:
/// continuous values; values on a 4-level grid (ties in single coordinates
/// and whole duplicates); a fully non-dominated front (integer coordinates
/// with a constant sum, exact in doubles); and such a front where a third
/// of the points repeat earlier ones.
std::vector<ObjectiveVector> random_set(ftmc::util::Rng& rng, std::size_t n,
                                        std::size_t dims, SetKind kind) {
  std::vector<ObjectiveVector> points(n, ObjectiveVector(dims));
  for (std::size_t i = 0; i < n; ++i) {
    ObjectiveVector& point = points[i];
    if (kind == SetKind::kFrontWithCopies && i > 0 && rng.index(3) == 0) {
      point = points[rng.index(i)];
      continue;
    }
    double sum = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
      switch (kind) {
        case SetKind::kUniform:
          point[d] = rng.uniform_real(0, 100);
          break;
        case SetKind::kGrid:
          point[d] = static_cast<double>(rng.index(4));
          break;
        case SetKind::kFront:
        case SetKind::kFrontWithCopies:
          point[d] = d + 1 == dims ? 3000.0 - sum
                                   : static_cast<double>(rng.index(1000));
          sum += point[d];
          break;
      }
    }
  }
  return points;
}

// The O(N^2) fitness against the original full-sort implementation: every
// fitness bit-for-bit equal and every selection index-identical, over 1-3
// objectives, N up to 400 and the set shapes of random_set.
TEST(Spea2Differential, MatchesReferenceBitwise) {
  const std::size_t sizes[] = {1, 2, 3, 4, 7, 16, 33, 64, 150, 400};
  const SetKind kinds[] = {SetKind::kUniform, SetKind::kGrid, SetKind::kFront,
                           SetKind::kFrontWithCopies};
  std::uint64_t seed = 2024;
  for (const std::size_t n : sizes)
    for (std::size_t dims = 1; dims <= 3; ++dims)
      for (const SetKind kind : kinds) {
        ++seed;
        SCOPED_TRACE("seed " + std::to_string(seed) + ", n " +
                     std::to_string(n) + ", dims " + std::to_string(dims));
        ftmc::util::Rng rng(seed);
        const std::vector<ObjectiveVector> points =
            random_set(rng, n, dims, kind);

        const std::vector<double> fitness = spea2_fitness(points);
        const std::vector<double> expected =
            ftmc::dse::reference::spea2_fitness(points);
        ASSERT_EQ(fitness.size(), expected.size());
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(fitness[i]),
                    std::bit_cast<std::uint64_t>(expected[i]))
              << "point " << i;

        // Truncating a wide front costs O(N^3 log N) per removal in both
        // implementations, so large fronts are only trimmed a little.
        std::vector<std::size_t> capacities = {n - 1, n, n + 3};
        if (n <= 64 || kind == SetKind::kUniform || kind == SetKind::kGrid)
          capacities.insert(capacities.end(), {1, n / 3, n / 2});
        for (const std::size_t capacity : capacities)
          ASSERT_EQ(spea2_select(points, capacity),
                    ftmc::dse::reference::spea2_select(points, capacity))
              << "capacity " << capacity;
      }
}

TEST(Spea2Fitness, DimensionMismatchThrows) {
  EXPECT_THROW(spea2_fitness({{1, 2}, {1}}), std::invalid_argument);
}

}  // namespace
