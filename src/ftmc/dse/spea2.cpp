#include "ftmc/dse/spea2.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace ftmc::dse {

bool dominates(const ObjectiveVector& a, const ObjectiveVector& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("dominates: dimensionality mismatch");
  bool strictly_better = false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k] > b[k]) return false;
    if (a[k] < b[k]) strictly_better = true;
  }
  return strictly_better;
}

namespace {

double distance2(const ObjectiveVector& a, const ObjectiveVector& b) {
  double sum = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double d = a[k] - b[k];
    sum += d * d;
  }
  return sum;
}

/// +1 when a dominates b, -1 when b dominates a, 0 otherwise: both
/// directions of dominates() from one scan.
int dominance(const ObjectiveVector& a, const ObjectiveVector& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("dominates: dimensionality mismatch");
  bool a_better = false;
  bool b_better = false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k] < b[k])
      a_better = true;
    else if (b[k] < a[k])
      b_better = true;
  }
  if (a_better == b_better) return 0;
  return a_better ? 1 : -1;
}

}  // namespace

std::vector<double> spea2_fitness(const std::vector<ObjectiveVector>& points) {
  const std::size_t n = points.size();
  std::vector<double> fitness(n, 0.0);
  if (n == 0) return fitness;

  // Strength and raw fitness from one dominance test per unordered pair.
  // Raw fitness is a sum of integer strengths, so summing them as integers
  // gives the same double in any order.
  std::vector<std::size_t> strength(n, 0);
  std::vector<std::pair<std::size_t, std::size_t>> dominated_by;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const int relation = dominance(points[i], points[j]);
      if (relation > 0) {
        ++strength[i];
        dominated_by.emplace_back(j, i);
      } else if (relation < 0) {
        ++strength[j];
        dominated_by.emplace_back(i, j);
      }
    }
  std::vector<std::size_t> raw(n, 0);
  for (const auto& [dominated, dominator] : dominated_by)
    raw[dominated] += strength[dominator];

  // Density via the k-th nearest neighbour, selected in one reused row
  // (distance2 is symmetric bit for bit, so row i holds the same values a
  // full distance matrix would).
  const auto k = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
  std::vector<double> row;
  row.reserve(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    row.clear();
    for (std::size_t j = 0; j < n; ++j)
      if (j != i) row.push_back(distance2(points[i], points[j]));
    double sigma = 0.0;
    if (!row.empty()) {
      const auto kth = row.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(k, row.size()) - 1);
      std::nth_element(row.begin(), kth, row.end());
      sigma = std::sqrt(*kth);
    }
    fitness[i] = static_cast<double>(raw[i]) + 1.0 / (sigma + 2.0);
  }
  return fitness;
}

std::vector<std::size_t> pareto_front(
    const std::vector<ObjectiveVector>& points) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < points.size() && !dominated; ++j)
      if (j != i && dominates(points[j], points[i])) dominated = true;
    if (!dominated) front.push_back(i);
  }
  return front;
}

std::vector<std::size_t> spea2_select(
    const std::vector<ObjectiveVector>& points, std::size_t capacity) {
  const std::size_t n = points.size();
  if (capacity == 0 || n == 0) return {};
  const std::vector<double> fitness = spea2_fitness(points);

  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < n; ++i)
    if (fitness[i] < 1.0) selected.push_back(i);

  if (selected.size() < capacity) {
    // Fill with the best dominated individuals.
    std::vector<std::size_t> rest;
    for (std::size_t i = 0; i < n; ++i)
      if (fitness[i] >= 1.0) rest.push_back(i);
    std::sort(rest.begin(), rest.end(), [&](std::size_t a, std::size_t b) {
      return fitness[a] < fitness[b];
    });
    for (std::size_t i = 0; i < rest.size() && selected.size() < capacity;
         ++i)
      selected.push_back(rest[i]);
    return selected;
  }

  // Truncation: repeatedly drop the individual with the lexicographically
  // smallest sorted neighbour-distance vector (within the selected set).
  std::vector<bool> alive(n, false);
  for (std::size_t i : selected) alive[i] = true;
  std::size_t alive_count = selected.size();
  while (alive_count > capacity) {
    std::size_t victim = SIZE_MAX;
    std::vector<double> victim_key;
    for (std::size_t i : selected) {
      if (!alive[i]) continue;
      std::vector<double> key;
      key.reserve(alive_count - 1);
      for (std::size_t j : selected)
        if (j != i && alive[j]) key.push_back(distance2(points[i], points[j]));
      std::sort(key.begin(), key.end());
      if (victim == SIZE_MAX ||
          std::lexicographical_compare(key.begin(), key.end(),
                                       victim_key.begin(),
                                       victim_key.end())) {
        victim = i;
        victim_key = std::move(key);
      }
    }
    alive[victim] = false;
    --alive_count;
  }

  std::vector<std::size_t> result;
  result.reserve(capacity);
  for (std::size_t i : selected)
    if (alive[i]) result.push_back(i);
  return result;
}

}  // namespace ftmc::dse
