#include "ftmc/core/evaluation_cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "ftmc/obs/metrics.hpp"

namespace ftmc::core {

namespace {

/// Registry mirror of CacheStats: the per-shard counters stay the source
/// of truth for GaResult::cache (an exact per-instance tally), while the
/// process-wide registry aggregates across every cache instance for
/// --metrics-json / dashboards.
struct CacheCounters {
  obs::Counter hits{"cache.eval.hits"};
  obs::Counter misses{"cache.eval.misses"};
  obs::Counter insertions{"cache.eval.insertions"};
  obs::Counter evictions{"cache.eval.evictions"};
  obs::Counter byte_evictions{"cache.eval.byte_evictions"};
};

CacheCounters& cache_counters() {
  static CacheCounters counters;
  return counters;
}

}  // namespace

EvaluationCache::EvaluationCache(std::size_t capacity, std::size_t shards,
                                 std::size_t capacity_bytes) {
  if (capacity == 0)
    throw std::invalid_argument("EvaluationCache: zero capacity");
  if (shards == 0) throw std::invalid_argument("EvaluationCache: zero shards");
  const std::size_t shard_count = std::bit_ceil(shards);
  capacity_ = std::max(capacity, shard_count);  // >= 1 entry per shard
  capacity_bytes_ = capacity_bytes;
  shard_capacity_ = capacity_ / shard_count;
  shard_byte_capacity_ = capacity_bytes_ / shard_count;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

std::size_t EvaluationCache::entry_footprint(
    std::span<const std::uint8_t> candidate,
    const Evaluation& evaluation) noexcept {
  return sizeof(Entry) + candidate.size() +
         evaluation.graph_wcrt.size() * sizeof(model::Time);
}

void EvaluationCache::evict_one(Shard& shard, bool byte_bound) {
  // Bounded shard: drop an arbitrary resident entry.  The DSE working set
  // is dominated by the recent archive, and a wrong eviction only costs
  // one recomputation.
  const auto victim = shard.table.begin();
  shard.bytes -= entry_footprint(victim->second.candidate,
                                 victim->second.evaluation);
  shard.table.erase(victim);
  ++shard.evictions;
  cache_counters().evictions.add(1);
  if (byte_bound) {
    ++shard.byte_evictions;
    cache_counters().byte_evictions.add(1);
  }
}

std::optional<Evaluation> EvaluationCache::find(
    std::uint64_t key, std::span<const std::uint8_t> candidate) {
  Shard& shard = shard_of(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.table.find(key);
  if (it == shard.table.end() ||
      !std::equal(it->second.candidate.begin(), it->second.candidate.end(),
                  candidate.begin(), candidate.end())) {
    // Absent, or a 64-bit collision between distinct candidates: both are
    // misses — the caller recomputes, correctness is never at stake.
    ++shard.misses;
    cache_counters().misses.add(1);
    return std::nullopt;
  }
  ++shard.hits;
  cache_counters().hits.add(1);
  return it->second.evaluation;
}

void EvaluationCache::insert(std::uint64_t key,
                             std::span<const std::uint8_t> candidate,
                             const Evaluation& evaluation) {
  const std::size_t footprint = entry_footprint(candidate, evaluation);
  // Built outside the lock; the range constructor sizes the buffer exactly,
  // so the footprint is what the entry holds.
  Entry entry{{candidate.begin(), candidate.end()}, evaluation};
  Shard& shard = shard_of(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.table.find(key);
  if (it != shard.table.end()) {
    shard.bytes -= entry_footprint(it->second.candidate,
                                   it->second.evaluation);
    it->second = std::move(entry);
    shard.bytes += footprint;
    return;
  }
  if (shard.table.size() >= shard_capacity_) evict_one(shard, false);
  if (shard_byte_capacity_ > 0)
    // Make room under the byte bound before inserting, so the new entry is
    // never its own victim (an oversized single entry is still admitted).
    while (!shard.table.empty() &&
           shard.bytes + footprint > shard_byte_capacity_)
      evict_one(shard, true);
  shard.table.emplace(key, std::move(entry));
  shard.bytes += footprint;
  ++shard.insertions;
  cache_counters().insertions.add(1);
}

CacheStats EvaluationCache::stats() const {
  CacheStats stats;
  for (const auto& shard : shards_) {
    // One lock hold per shard covers its counters AND its table, so each
    // shard contributes an internally consistent snapshot (no torn reads
    // between, say, `insertions` and `entries` while a writer is mid-insert
    // on that shard).
    std::lock_guard lock(shard->mutex);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.insertions += shard->insertions;
    stats.evictions += shard->evictions;
    stats.byte_evictions += shard->byte_evictions;
    stats.entries += shard->table.size();
    stats.bytes += shard->bytes;
  }
  return stats;
}

void EvaluationCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    shard->table.clear();
    shard->bytes = 0;
  }
}

}  // namespace ftmc::core
