// Test-only reference SPEA2: the straightforward original implementation
// (n x n dominance matrix, every neighbour row fully sorted).  The
// production spea2_fitness must match it bit for bit, and spea2_select
// index for index; tests/test_spea2.cpp checks both on random sets.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ftmc/dse/spea2.hpp"

namespace ftmc::dse::reference {

inline double distance2(const ObjectiveVector& a, const ObjectiveVector& b) {
  double sum = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double d = a[k] - b[k];
    sum += d * d;
  }
  return sum;
}

inline std::vector<double> spea2_fitness(
    const std::vector<ObjectiveVector>& points) {
  const std::size_t n = points.size();
  std::vector<double> fitness(n, 0.0);
  if (n == 0) return fitness;

  std::vector<std::size_t> strength(n, 0);
  std::vector<std::vector<bool>> dom(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j && dominates(points[i], points[j])) {
        dom[i][j] = true;
        ++strength[i];
      }
  for (std::size_t i = 0; i < n; ++i) {
    double raw = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      if (dom[j][i]) raw += static_cast<double>(strength[j]);
    fitness[i] = raw;
  }

  const auto k = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row;
    for (std::size_t j = 0; j < n; ++j)
      if (j != i) row.push_back(distance2(points[i], points[j]));
    std::sort(row.begin(), row.end());
    double sigma = 0.0;
    if (!row.empty()) sigma = std::sqrt(row[std::min(k, row.size()) - 1]);
    fitness[i] += 1.0 / (sigma + 2.0);
  }
  return fitness;
}

/// spea2_select over the reference fitness (the truncation is the
/// production one, verbatim).
inline std::vector<std::size_t> spea2_select(
    const std::vector<ObjectiveVector>& points, std::size_t capacity) {
  const std::size_t n = points.size();
  if (capacity == 0 || n == 0) return {};
  const std::vector<double> fitness = reference::spea2_fitness(points);

  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < n; ++i)
    if (fitness[i] < 1.0) selected.push_back(i);

  if (selected.size() < capacity) {
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

}  // namespace ftmc::dse::reference
