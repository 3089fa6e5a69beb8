// Differential lockdown of the evaluation memoization layer (ISSUE 1): a
// cached Evaluator must be observationally identical to an uncached one on
// every field of every Evaluation — the cache may only change how fast an
// answer arrives, never the answer.  Also covers the cache's accounting
// (hits/misses/evictions), the options fingerprint that keeps differently
// configured evaluators from aliasing in a shared cache, collision safety,
// and concurrent use from a thread pool.
#include "ftmc/core/evaluation_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "ftmc/benchmarks/synth.hpp"
#include "ftmc/core/evaluator.hpp"
#include "ftmc/core/serialize.hpp"
#include "ftmc/dse/decoder.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/util/thread_pool.hpp"

namespace {

using namespace ftmc;
using core::encode_candidate;

/// Deterministic, repaired random candidates for one synth benchmark.
std::vector<core::Candidate> seeded_candidates(
    const benchmarks::Benchmark& benchmark, std::size_t count,
    std::uint64_t seed) {
  const dse::Decoder decoder(benchmark.arch, benchmark.apps);
  util::Rng rng(seed);
  std::vector<core::Candidate> candidates;
  candidates.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    dse::Chromosome chromosome = dse::random_chromosome(decoder.shape(), rng);
    candidates.push_back(decoder.decode(chromosome, rng));
  }
  return candidates;
}

void expect_identical(const core::Evaluation& a, const core::Evaluation& b) {
  EXPECT_EQ(a.mapping_valid, b.mapping_valid);
  EXPECT_EQ(a.reliability_ok, b.reliability_ok);
  EXPECT_EQ(a.normal_schedulable, b.normal_schedulable);
  EXPECT_EQ(a.critical_schedulable, b.critical_schedulable);
  EXPECT_EQ(a.power, b.power);  // bitwise, not approximate
  EXPECT_EQ(a.service, b.service);
  EXPECT_EQ(a.scenario_count, b.scenario_count);
  EXPECT_EQ(a.graph_wcrt, b.graph_wcrt);
}

// 2 benchmarks x 100 seeded random candidates: cached evaluation must match
// the uncached reference on every field, and re-evaluating the same stream
// must be answered from the cache alone.
TEST(EvaluationCacheDifferential, CachedMatchesUncachedOnRandomCandidates) {
  for (int index : {1, 2}) {
    const benchmarks::Benchmark benchmark =
        benchmarks::synth_benchmark(index);
    const std::vector<core::Candidate> candidates =
        seeded_candidates(benchmark, 100, 1000 + index);

    const sched::HolisticAnalysis backend;
    const core::Evaluator reference(benchmark.arch, benchmark.apps, backend);

    core::EvaluationCache cache;
    core::Evaluator::Options options;
    options.cache = &cache;
    const core::Evaluator cached(benchmark.arch, benchmark.apps, backend,
                                 options);

    for (const core::Candidate& candidate : candidates) {
      SCOPED_TRACE(benchmark.name);
      expect_identical(cached.evaluate(candidate),
                       reference.evaluate(candidate));
    }

    // Second sweep: every lookup must hit and still agree.
    const core::CacheStats after_first = cache.stats();
    EXPECT_EQ(after_first.lookups(), candidates.size());
    for (const core::Candidate& candidate : candidates)
      expect_identical(cached.evaluate(candidate),
                       reference.evaluate(candidate));
    const core::CacheStats after_second = cache.stats();
    EXPECT_EQ(after_second.hits, after_first.hits + candidates.size());
    EXPECT_EQ(after_second.misses, after_first.misses);
    EXPECT_GT(after_second.hit_rate(), 0.49);
  }
}

TEST(EvaluationCache, RepeatEvaluationIsAHit) {
  const benchmarks::Benchmark benchmark = benchmarks::synth_benchmark(1);
  const auto candidates = seeded_candidates(benchmark, 1, 7);
  const sched::HolisticAnalysis backend;
  core::EvaluationCache cache;
  core::Evaluator::Options options;
  options.cache = &cache;
  const core::Evaluator evaluator(benchmark.arch, benchmark.apps, backend,
                                  options);

  bool hit = true;
  const core::Evaluation first = evaluator.evaluate(candidates[0], &hit);
  EXPECT_FALSE(hit);
  const core::Evaluation second = evaluator.evaluate(candidates[0], &hit);
  EXPECT_TRUE(hit);
  expect_identical(first, second);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// A capacity-bounded cache must evict rather than grow, and eviction must
// never change results — only future hit rates.
TEST(EvaluationCache, TinyCapacityEvictsWithoutChangingResults) {
  const benchmarks::Benchmark benchmark = benchmarks::synth_benchmark(1);
  const auto candidates = seeded_candidates(benchmark, 60, 11);
  const sched::HolisticAnalysis backend;
  const core::Evaluator reference(benchmark.arch, benchmark.apps, backend);

  core::EvaluationCache cache(/*capacity=*/8, /*shards=*/1);
  core::Evaluator::Options options;
  options.cache = &cache;
  const core::Evaluator cached(benchmark.arch, benchmark.apps, backend,
                               options);

  for (int sweep = 0; sweep < 2; ++sweep)
    for (const core::Candidate& candidate : candidates)
      expect_identical(cached.evaluate(candidate),
                       reference.evaluate(candidate));

  const core::CacheStats stats = cache.stats();
  EXPECT_LE(stats.entries, 8u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.lookups(), 2 * candidates.size());
}

// Evaluators with different analysis options share one cache without
// aliasing: the options fingerprint is part of the key, so the Naive-mode
// evaluator must not be served the Proposed-mode result (or vice versa).
TEST(EvaluationCache, OptionsFingerprintPreventsCrossModeAliasing) {
  const benchmarks::Benchmark benchmark = benchmarks::synth_benchmark(1);
  const auto candidates = seeded_candidates(benchmark, 20, 23);
  const sched::HolisticAnalysis backend;
  core::EvaluationCache cache;

  core::Evaluator::Options proposed_options;
  proposed_options.cache = &cache;
  core::Evaluator::Options naive_options = proposed_options;
  naive_options.mode = core::McAnalysis::Mode::kNaive;

  const core::Evaluator proposed(benchmark.arch, benchmark.apps, backend,
                                 proposed_options);
  const core::Evaluator naive(benchmark.arch, benchmark.apps, backend,
                              naive_options);
  const core::Evaluator proposed_reference(benchmark.arch, benchmark.apps,
                                           backend);
  core::Evaluator::Options naive_reference_options;
  naive_reference_options.mode = core::McAnalysis::Mode::kNaive;
  const core::Evaluator naive_reference(benchmark.arch, benchmark.apps,
                                        backend, naive_reference_options);

  for (const core::Candidate& candidate : candidates) {
    expect_identical(proposed.evaluate(candidate),
                     proposed_reference.evaluate(candidate));
    expect_identical(naive.evaluate(candidate),
                     naive_reference.evaluate(candidate));
  }
  // Both evaluators saw fresh keys: no cross-mode hit may have occurred.
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2 * candidates.size());
}

// Exact-equality verification: a find() with the right key but a different
// candidate (a simulated hash collision) degrades to a miss.
TEST(EvaluationCache, KeyCollisionDegradesToMiss) {
  const benchmarks::Benchmark benchmark = benchmarks::synth_benchmark(1);
  const auto candidates = seeded_candidates(benchmark, 2, 31);
  ASSERT_FALSE(candidates[0] == candidates[1]);
  const sched::HolisticAnalysis backend;
  const core::Evaluator evaluator(benchmark.arch, benchmark.apps, backend);

  core::EvaluationCache cache;
  const std::uint64_t key = 0xdeadbeefULL;
  cache.insert(key, encode_candidate(candidates[0]),
               evaluator.evaluate(candidates[0]));
  EXPECT_TRUE(cache.find(key, encode_candidate(candidates[0])).has_value());
  EXPECT_FALSE(cache.find(key, encode_candidate(candidates[1])).has_value());
}

TEST(EvaluationCache, ClearResetsEntriesAndServesFreshMisses) {
  const benchmarks::Benchmark benchmark = benchmarks::synth_benchmark(1);
  const auto candidates = seeded_candidates(benchmark, 4, 41);
  const sched::HolisticAnalysis backend;
  core::EvaluationCache cache;
  core::Evaluator::Options options;
  options.cache = &cache;
  const core::Evaluator evaluator(benchmark.arch, benchmark.apps, backend,
                                  options);
  for (const auto& candidate : candidates) evaluator.evaluate(candidate);
  EXPECT_EQ(cache.stats().entries, candidates.size());
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  bool hit = true;
  evaluator.evaluate(candidates[0], &hit);
  EXPECT_FALSE(hit);
}

// Many threads sharing one cache over a shuffled duplicate-rich stream:
// every result must still equal the uncached reference.
TEST(EvaluationCache, ConcurrentSharedCacheStaysConsistent) {
  const benchmarks::Benchmark benchmark = benchmarks::synth_benchmark(1);
  const auto unique = seeded_candidates(benchmark, 12, 53);
  std::vector<std::size_t> stream;
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t i = 0; i < unique.size(); ++i)
      stream.push_back((i * 7 + r) % unique.size());

  const sched::HolisticAnalysis backend;
  const core::Evaluator reference(benchmark.arch, benchmark.apps, backend);
  std::vector<core::Evaluation> expected;
  expected.reserve(unique.size());
  for (const auto& candidate : unique)
    expected.push_back(reference.evaluate(candidate));

  core::EvaluationCache cache;
  core::Evaluator::Options options;
  options.cache = &cache;
  const core::Evaluator cached(benchmark.arch, benchmark.apps, backend,
                               options);
  std::vector<core::Evaluation> results(stream.size());
  util::ThreadPool pool(4);
  pool.parallel_for(stream.size(), [&](std::size_t i) {
    results[i] = cached.evaluate(unique[stream[i]]);
  });
  for (std::size_t i = 0; i < stream.size(); ++i)
    expect_identical(results[i], expected[stream[i]]);
  EXPECT_EQ(cache.stats().lookups(), stream.size());
  EXPECT_GE(cache.stats().hits, stream.size() - 2 * unique.size());
}

// The byte tally in CacheStats must be exactly the sum of entry_footprint
// over the resident entries — it is what the byte bound evicts against.
TEST(EvaluationCache, BytesMatchEntryFootprints) {
  const benchmarks::Benchmark benchmark = benchmarks::synth_benchmark(1);
  const auto candidates = seeded_candidates(benchmark, 10, 67);
  const sched::HolisticAnalysis backend;
  const core::Evaluator evaluator(benchmark.arch, benchmark.apps, backend);

  core::EvaluationCache cache;
  std::size_t expected_bytes = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const core::Evaluation evaluation = evaluator.evaluate(candidates[i]);
    cache.insert(i, encode_candidate(candidates[i]), evaluation);
    expected_bytes += core::EvaluationCache::entry_footprint(
        encode_candidate(candidates[i]), evaluation);
  }
  EXPECT_EQ(cache.stats().bytes, expected_bytes);
  EXPECT_EQ(cache.stats().entries, candidates.size());

  // Overwriting a key swaps footprints instead of double-counting.
  const core::Evaluation other = evaluator.evaluate(candidates[1]);
  cache.insert(0, encode_candidate(candidates[1]), other);
  expected_bytes -= core::EvaluationCache::entry_footprint(
      encode_candidate(candidates[0]), evaluator.evaluate(candidates[0]));
  expected_bytes += core::EvaluationCache::entry_footprint(
      encode_candidate(candidates[1]), other);
  EXPECT_EQ(cache.stats().bytes, expected_bytes);
  EXPECT_EQ(cache.stats().entries, candidates.size());

  cache.clear();
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// A byte-bounded cache must stay under capacity_bytes(), attribute those
// evictions to byte_evictions, and never change evaluation results.
TEST(EvaluationCache, ByteCapacityEvictsAndStaysBounded) {
  const benchmarks::Benchmark benchmark = benchmarks::synth_benchmark(1);
  const auto candidates = seeded_candidates(benchmark, 40, 71);
  const sched::HolisticAnalysis backend;
  const core::Evaluator reference(benchmark.arch, benchmark.apps, backend);

  // Room for roughly three entries, far below the 1<<16 entry bound, so
  // every eviction in this test is forced by bytes alone.
  const std::size_t budget =
      3 * core::EvaluationCache::entry_footprint(
              encode_candidate(candidates[0]),
              reference.evaluate(candidates[0])) +
      16;
  core::EvaluationCache cache(/*capacity=*/1 << 16, /*shards=*/1,
                              /*capacity_bytes=*/budget);
  EXPECT_EQ(cache.capacity_bytes(), budget);
  core::Evaluator::Options options;
  options.cache = &cache;
  const core::Evaluator cached(benchmark.arch, benchmark.apps, backend,
                               options);

  for (int sweep = 0; sweep < 2; ++sweep)
    for (const core::Candidate& candidate : candidates)
      expect_identical(cached.evaluate(candidate),
                       reference.evaluate(candidate));

  const core::CacheStats stats = cache.stats();
  EXPECT_LE(stats.bytes, budget);
  EXPECT_GT(stats.byte_evictions, 0u);
  EXPECT_EQ(stats.byte_evictions, stats.evictions);  // bytes tripped first
  EXPECT_EQ(stats.entries, stats.insertions - stats.evictions);
}

// Snapshot consistency under concurrency: while workers hammer a bounded
// shared cache, every stats() snapshot must satisfy the per-shard invariant
// entries == insertions - evictions (each shard is read in one critical
// section, so a torn insert/evict must never show through).
TEST(EvaluationCache, StatsSnapshotsStayConsistentUnderLoad) {
  const benchmarks::Benchmark benchmark = benchmarks::synth_benchmark(1);
  const auto unique = seeded_candidates(benchmark, 24, 73);
  const sched::HolisticAnalysis backend;
  const core::Evaluator reference(benchmark.arch, benchmark.apps, backend);
  std::vector<core::Evaluation> evaluations;
  evaluations.reserve(unique.size());
  for (const auto& candidate : unique)
    evaluations.push_back(reference.evaluate(candidate));

  const std::size_t budget = 4 * core::EvaluationCache::entry_footprint(
                                     encode_candidate(unique[0]),
                                     evaluations[0]);
  core::EvaluationCache cache(/*capacity=*/8, /*shards=*/4,
                              /*capacity_bytes=*/budget);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> bad_snapshots{0};
  std::thread sampler([&] {
    while (!done.load()) {
      const core::CacheStats snapshot = cache.stats();
      if (snapshot.entries != snapshot.insertions - snapshot.evictions ||
          snapshot.byte_evictions > snapshot.evictions)
        bad_snapshots.fetch_add(1);
    }
  });

  util::ThreadPool pool(4);
  pool.parallel_for(4000, [&](std::size_t i) {
    const std::size_t index = (i * 13) % unique.size();
    const std::uint64_t key = core::candidate_hash(unique[index]);
    const std::vector<std::uint8_t> bytes = encode_candidate(unique[index]);
    if (!cache.find(key, bytes).has_value())
      cache.insert(key, bytes, evaluations[index]);
  });
  done.store(true);
  sampler.join();

  EXPECT_EQ(bad_snapshots.load(), 0u);
  const core::CacheStats final_stats = cache.stats();
  EXPECT_EQ(final_stats.entries,
            final_stats.insertions - final_stats.evictions);
  EXPECT_GT(final_stats.evictions, 0u);
}

TEST(CandidateHash, StableAndContentSensitive) {
  const benchmarks::Benchmark benchmark = benchmarks::synth_benchmark(1);
  const auto candidates = seeded_candidates(benchmark, 2, 61);
  const core::Candidate& candidate = candidates[0];

  EXPECT_EQ(core::candidate_hash(candidate), core::candidate_hash(candidate));
  EXPECT_NE(core::candidate_hash(candidate),
            core::candidate_hash(candidates[1]));
  EXPECT_NE(core::candidate_hash(candidate, 1),
            core::candidate_hash(candidate, 2));

  core::Candidate flipped_allocation = candidate;
  flipped_allocation.allocation[0] = !flipped_allocation.allocation[0];
  EXPECT_NE(core::candidate_hash(candidate),
            core::candidate_hash(flipped_allocation));

  core::Candidate moved_task = candidate;
  moved_task.base_mapping[0] =
      model::ProcessorId{static_cast<std::uint32_t>(
          (moved_task.base_mapping[0].value + 1) %
          benchmark.arch.processor_count())};
  EXPECT_NE(core::candidate_hash(candidate),
            core::candidate_hash(moved_task));
}

}  // namespace
