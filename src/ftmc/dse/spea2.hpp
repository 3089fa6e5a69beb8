// SPEA2 (Zitzler, Laumanns, Thiele 2001) — the population selector the paper
// plugs into Opt4J [18][19].
//
// Fitness of individual i over a combined population+archive of size N:
//   strength  S(i) = |{j : i dominates j}|
//   raw       R(i) = sum of S(j) over all j that dominate i
//   density   D(i) = 1 / (sigma_i^k + 2),  k = floor(sqrt(N)),
//             sigma_i^k = distance to i's k-th nearest neighbour in
//             objective space
//   fitness   F(i) = R(i) + D(i)      (lower is better; F < 1 iff
//                                      non-dominated)
// Environmental selection keeps all non-dominated individuals; underfull
// archives are topped up with the best dominated ones, overfull archives are
// truncated by iteratively removing the individual with the smallest
// nearest-neighbour distance (ties broken on subsequent neighbours).
//
// All objectives are minimized; callers negate maximization objectives.
#pragma once

#include <cstddef>
#include <vector>

namespace ftmc::dse {

using ObjectiveVector = std::vector<double>;

/// Pareto dominance (minimization): a <= b in all objectives, < in one.
bool dominates(const ObjectiveVector& a, const ObjectiveVector& b);

/// SPEA2 fitness for every individual of the combined population, in
/// O(N^2) time (tests/spea2_reference.hpp keeps the sorting original).
std::vector<double> spea2_fitness(const std::vector<ObjectiveVector>& points);

/// Indices selected into the next archive of size `capacity`.
std::vector<std::size_t> spea2_select(
    const std::vector<ObjectiveVector>& points, std::size_t capacity);

/// Indices of the non-dominated points (the Pareto front).
std::vector<std::size_t> pareto_front(
    const std::vector<ObjectiveVector>& points);

}  // namespace ftmc::dse
