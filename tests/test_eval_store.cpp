// Tests for the persistent memory-mapped evaluation store (eval_store.hpp):
// round-trip and reopen persistence, index rebuilds, torn-tail crash
// recovery (including a real fork + SIGKILL), cross-process sharing, and
// the L1 (EvaluationCache) / L2 (EvalStore) flow through the Evaluator and
// the GA.
#include "ftmc/core/eval_store.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "ftmc/core/evaluation_cache.hpp"
#include "ftmc/core/serialize.hpp"
#include "ftmc/dse/ga.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/util/file_io.hpp"
#include "helpers.hpp"

namespace {

using namespace ftmc;
using core::Candidate;
using core::EvalStore;
using core::EvalStoreOptions;
using core::Evaluation;
using core::StoreError;

/// Fresh (pre-cleaned) store directory under gtest's temp dir: leftover
/// files from a previous run must not leak into this one.
std::string fresh_store_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ftmc_store_" + name;
  std::remove((dir + "/evals.log").c_str());
  std::remove((dir + "/evals.idx").c_str());
  ::rmdir(dir.c_str());
  return dir;
}

Candidate make_candidate(std::uint64_t variant) {
  const model::Architecture arch = fixtures::test_arch(3);
  const model::ApplicationSet apps = fixtures::small_mixed_apps();
  Candidate candidate = fixtures::plain_candidate(arch, apps);
  for (std::size_t i = 0; i < candidate.base_mapping.size(); ++i)
    candidate.base_mapping[i] = model::ProcessorId{static_cast<std::uint32_t>(
        (i + variant) % arch.processor_count())};
  candidate.drop[0] = (variant % 2) != 0;
  return candidate;
}

/// What the Evaluator hands the store: the candidate's canonical bytes.
std::vector<std::uint8_t> candidate_bytes(std::uint64_t variant) {
  return core::encode_candidate(make_candidate(variant));
}

Evaluation make_evaluation(std::uint64_t variant) {
  Evaluation evaluation;
  evaluation.mapping_valid = true;
  evaluation.reliability_ok = (variant % 2) == 0;
  evaluation.normal_schedulable = true;
  evaluation.critical_schedulable = (variant % 3) != 0;
  evaluation.power = 100.0 + 0.5 * static_cast<double>(variant);
  evaluation.service = 1.0 / static_cast<double>(variant + 1);
  evaluation.scenario_count = 10 + variant;
  evaluation.scenario_solves = 20 + variant;
  evaluation.graph_wcrt = {static_cast<model::Time>(100 + variant),
                           static_cast<model::Time>(200 + variant)};
  return evaluation;
}

void expect_same_evaluation(const Evaluation& a, const Evaluation& b) {
  EXPECT_EQ(a.mapping_valid, b.mapping_valid);
  EXPECT_EQ(a.reliability_ok, b.reliability_ok);
  EXPECT_EQ(a.normal_schedulable, b.normal_schedulable);
  EXPECT_EQ(a.critical_schedulable, b.critical_schedulable);
  EXPECT_EQ(a.power, b.power);
  EXPECT_EQ(a.service, b.service);
  EXPECT_EQ(a.scenario_count, b.scenario_count);
  EXPECT_EQ(a.scenario_solves, b.scenario_solves);
  EXPECT_EQ(a.graph_wcrt, b.graph_wcrt);
}

std::uint64_t file_size(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return static_cast<std::uint64_t>(st.st_size);
}

// --- Round-trip and persistence ---------------------------------------------

TEST(EvalStore, RoundTripWithinOneOpen) {
  const std::string dir = fresh_store_dir("roundtrip");
  EvalStore store(dir);
  for (std::uint64_t i = 0; i < 8; ++i)
    store.put(1000 + i, candidate_bytes(i), make_evaluation(i));
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto found = store.find(1000 + i, candidate_bytes(i));
    ASSERT_TRUE(found.has_value()) << i;
    expect_same_evaluation(*found, make_evaluation(i));
  }
  const auto stats = store.stats();
  EXPECT_EQ(stats.appends, 8u);
  EXPECT_EQ(stats.records, 8u);
  EXPECT_EQ(stats.hits, 8u);
}

TEST(EvalStore, SurvivesReopen) {
  const std::string dir = fresh_store_dir("reopen");
  {
    EvalStore store(dir);
    for (std::uint64_t i = 0; i < 5; ++i)
      store.put(i, candidate_bytes(i), make_evaluation(i));
  }  // destructor flushes (fsync + index rewrite)
  EvalStore reopened(dir);
  EXPECT_EQ(reopened.stats().records, 5u);
  EXPECT_GT(reopened.stats().bytes_mapped, 0u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto found = reopened.find(i, candidate_bytes(i));
    ASSERT_TRUE(found.has_value()) << i;
    expect_same_evaluation(*found, make_evaluation(i));
  }
}

TEST(EvalStore, HashCollisionDegradesToMiss) {
  const std::string dir = fresh_store_dir("collision");
  EvalStore store(dir);
  store.put(7, candidate_bytes(0), make_evaluation(0));
  // Same key, different candidate bytes: must be a miss, never the wrong
  // evaluation.
  EXPECT_FALSE(store.find(7, candidate_bytes(1)).has_value());
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_TRUE(store.find(7, candidate_bytes(0)).has_value());
}

TEST(EvalStore, DuplicatePutIsSkipped) {
  const std::string dir = fresh_store_dir("dup");
  EvalStore store(dir);
  store.put(3, candidate_bytes(0), make_evaluation(0));
  store.put(3, candidate_bytes(0), make_evaluation(0));
  EXPECT_EQ(store.stats().appends, 1u);
  EXPECT_EQ(store.stats().records, 1u);
}

TEST(EvalStore, ReadOnlyRejectsPut) {
  const std::string dir = fresh_store_dir("readonly");
  { EvalStore store(dir); store.put(1, candidate_bytes(1), make_evaluation(1)); }
  EvalStoreOptions options;
  options.read_only = true;
  EvalStore store(dir, options);
  EXPECT_TRUE(store.find(1, candidate_bytes(1)).has_value());
  EXPECT_THROW(store.put(2, candidate_bytes(2), make_evaluation(2)),
               StoreError);
}

// --- Index lifecycle --------------------------------------------------------

std::uint64_t inode_of(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return static_cast<std::uint64_t>(st.st_ino);
}

// The index is rewritten (atomically: a new file renamed over the old one)
// only when this process added records.
TEST(EvalStore, LookupOnlyOpenLeavesTheIndexFile) {
  const std::string dir = fresh_store_dir("lookup_only");
  const std::string index = dir + "/evals.idx";
  const std::string pin = dir + "/pinned.idx";
  {
    EvalStore store(dir);
    for (std::uint64_t i = 0; i < 4; ++i)
      store.put(i, candidate_bytes(i), make_evaluation(i));
  }
  // A second link keeps the written inode allocated, so a rewrite can never
  // land on a recycled inode number.
  std::remove(pin.c_str());
  ASSERT_EQ(::link(index.c_str(), pin.c_str()), 0);
  const std::uint64_t written = inode_of(index);
  {
    EvalStore store(dir);
    EXPECT_TRUE(store.find(2, candidate_bytes(2)).has_value());
    store.flush();
  }
  EXPECT_EQ(inode_of(index), written);
  {
    EvalStore store(dir);
    store.put(9, candidate_bytes(9), make_evaluation(9));
  }
  EXPECT_NE(inode_of(index), written);
  std::remove(pin.c_str());
  EvalStore reopened(dir);
  EXPECT_EQ(reopened.stats().records, 5u);
  EXPECT_EQ(reopened.stats().index_rebuilds, 0u);
}

TEST(EvalStore, RebuildsIndexFromLogWhenMissing) {
  const std::string dir = fresh_store_dir("rebuild");
  {
    EvalStore store(dir);
    for (std::uint64_t i = 0; i < 6; ++i)
      store.put(i, candidate_bytes(i), make_evaluation(i));
  }
  ASSERT_EQ(std::remove((dir + "/evals.idx").c_str()), 0);
  EvalStore store(dir);
  EXPECT_GE(store.stats().index_rebuilds, 1u);
  EXPECT_EQ(store.stats().records, 6u);
  for (std::uint64_t i = 0; i < 6; ++i)
    EXPECT_TRUE(store.find(i, candidate_bytes(i)).has_value()) << i;
  // The rebuilt index was persisted: a third open needs no rebuild.
  EXPECT_TRUE(util::file_exists(dir + "/evals.idx"));
}

TEST(EvalStore, RejectsCorruptIndexMagicByRebuilding) {
  const std::string dir = fresh_store_dir("idxmagic");
  {
    EvalStore store(dir);
    store.put(9, candidate_bytes(9), make_evaluation(9));
  }
  // Stomp the index magic; the index is a pure cache of the log, so the
  // store must fall back to a rebuild instead of failing the open.
  std::FILE* f = std::fopen((dir + "/evals.idx").c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fputs("BADMAGIC", f);
  std::fclose(f);
  EvalStore store(dir);
  EXPECT_GE(store.stats().index_rebuilds, 1u);
  EXPECT_TRUE(store.find(9, candidate_bytes(9)).has_value());
}

// --- Corruption and crash safety --------------------------------------------

TEST(EvalStore, BadLogMagicIsAStoreError) {
  const std::string dir = fresh_store_dir("logmagic");
  { EvalStore store(dir); store.put(1, candidate_bytes(1), make_evaluation(1)); }
  std::FILE* f = std::fopen((dir + "/evals.log").c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fputs("NOTSTORE", f);
  std::fclose(f);
  EXPECT_THROW(EvalStore store(dir), StoreError);
}

TEST(EvalStore, TornTailTruncatedLoudlyByDefault) {
  const std::string dir = fresh_store_dir("torn");
  {
    EvalStore store(dir);
    for (std::uint64_t i = 0; i < 4; ++i)
      store.put(i, candidate_bytes(i), make_evaluation(i));
  }
  // Append half a record header: a crash mid-append tears exactly like this.
  const std::string log = dir + "/evals.log";
  std::FILE* f = std::fopen(log.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const std::uint8_t garbage[10] = {0xDE, 0xAD, 0xBE, 0xEF, 0xDE,
                                    0xAD, 0xBE, 0xEF, 0xDE, 0xAD};
  std::fwrite(garbage, 1, sizeof(garbage), f);
  std::fclose(f);
  const std::uint64_t torn_size = file_size(log);

  // The index still covers the pre-tear log, so force a full tail scan.
  ASSERT_EQ(std::remove((dir + "/evals.idx").c_str()), 0);

  EvalStore store(dir);
  EXPECT_EQ(store.stats().torn_bytes_discarded, sizeof(garbage));
  EXPECT_EQ(store.stats().records, 4u);
  EXPECT_LT(file_size(log), torn_size);  // tail truncated on disk
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_TRUE(store.find(i, candidate_bytes(i)).has_value()) << i;
}

TEST(EvalStore, StrictOpenRejectsTornTailWithStoreError) {
  const std::string dir = fresh_store_dir("strict");
  {
    EvalStore store(dir);
    store.put(1, candidate_bytes(1), make_evaluation(1));
  }
  std::FILE* f = std::fopen((dir + "/evals.log").c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("torn!", f);
  std::fclose(f);
  ASSERT_EQ(std::remove((dir + "/evals.idx").c_str()), 0);

  EvalStoreOptions options;
  options.strict_open = true;
  try {
    EvalStore store(dir, options);
    FAIL() << "strict_open accepted a torn log tail";
  } catch (const StoreError& error) {
    EXPECT_NE(std::string(error.what()).find("torn"), std::string::npos)
        << error.what();
  }
}

TEST(EvalStore, KillNineMidRunRecoversEveryFullRecord) {
  const std::string dir = fresh_store_dir("kill9");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: append records, then die without flush(), destructors, or an
    // index write — exactly what kill -9 during a campaign looks like.
    EvalStore store(dir);
    for (std::uint64_t i = 0; i < 7; ++i)
      store.put(i, candidate_bytes(i), make_evaluation(i));
    ::raise(SIGKILL);
    ::_exit(127);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // No index was ever written; reopen must recover all 7 from the log.
  EvalStore store(dir);
  EXPECT_EQ(store.stats().records, 7u);
  EXPECT_EQ(store.stats().torn_bytes_discarded, 0u);
  for (std::uint64_t i = 0; i < 7; ++i) {
    const auto found = store.find(i, candidate_bytes(i));
    ASSERT_TRUE(found.has_value()) << i;
    expect_same_evaluation(*found, make_evaluation(i));
  }
}

TEST(EvalStore, SecondProcessReadsWhatTheFirstWrote) {
  const std::string dir = fresh_store_dir("twoproc");
  EvalStore writer(dir);
  for (std::uint64_t i = 0; i < 5; ++i)
    writer.put(i, candidate_bytes(i), make_evaluation(i));
  writer.flush();

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: independent read-only open against the live store.
    int failures = 0;
    try {
      EvalStoreOptions options;
      options.read_only = true;
      EvalStore reader(dir, options);
      for (std::uint64_t i = 0; i < 5; ++i) {
        const auto found = reader.find(i, candidate_bytes(i));
        if (!found.has_value() || found->power != make_evaluation(i).power)
          ++failures;
      }
    } catch (...) {
      failures = 100;
    }
    ::_exit(failures);
  }
  // Parent keeps appending while the child reads.
  for (std::uint64_t i = 5; i < 10; ++i)
    writer.put(i, candidate_bytes(i), make_evaluation(i));
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(writer.stats().records, 10u);
}

// --- Evaluator L1/L2 flow ---------------------------------------------------

TEST(EvalStore, EvaluatorServesFromStoreAcrossInstances) {
  const std::string dir = fresh_store_dir("evaluator");
  const model::Architecture arch = fixtures::test_arch(3);
  const model::ApplicationSet apps = fixtures::small_mixed_apps();
  const sched::HolisticAnalysis backend;
  const Candidate candidate = fixtures::plain_candidate(arch, apps);

  Evaluation fresh;
  {
    EvalStore store(dir);
    core::Evaluator::Options options;
    options.store = &store;
    const core::Evaluator evaluator(arch, apps, backend, options);
    bool cache_hit = true;
    fresh = evaluator.evaluate(candidate, &cache_hit);
    EXPECT_FALSE(cache_hit);
    EXPECT_EQ(store.stats().appends, 1u);
  }

  // A brand-new process-equivalent: new store handle, new evaluator, no L1.
  EvalStore store(dir);
  core::Evaluator::Options options;
  options.store = &store;
  const core::Evaluator evaluator(arch, apps, backend, options);
  bool cache_hit = false;
  const Evaluation persisted = evaluator.evaluate(candidate, &cache_hit);
  EXPECT_TRUE(cache_hit);
  EXPECT_EQ(store.stats().hits, 1u);
  expect_same_evaluation(fresh, persisted);
  expect_same_evaluation(persisted, evaluator.evaluate_uncached(candidate));
}

TEST(EvalStore, StoreHitWarmsTheL1) {
  const std::string dir = fresh_store_dir("warml1");
  const model::Architecture arch = fixtures::test_arch(3);
  const model::ApplicationSet apps = fixtures::small_mixed_apps();
  const sched::HolisticAnalysis backend;
  const Candidate candidate = fixtures::plain_candidate(arch, apps);

  {
    EvalStore store(dir);
    core::Evaluator::Options options;
    options.store = &store;
    const core::Evaluator evaluator(arch, apps, backend, options);
    (void)evaluator.evaluate(candidate);
  }

  EvalStore store(dir);
  core::EvaluationCache cache;
  core::Evaluator::Options options;
  options.cache = &cache;
  options.store = &store;
  const core::Evaluator evaluator(arch, apps, backend, options);
  (void)evaluator.evaluate(candidate);  // L1 miss -> L2 hit, warms L1
  (void)evaluator.evaluate(candidate);  // L1 hit, store untouched
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

// Both layers verify the canonical candidate bytes, so two candidates that
// differ in a single field and are forced onto one key must miss in the L1
// and in the L2 (before and after a reopen, i.e. on the pread and the mmap
// read path) — never answer with the other candidate's evaluation.
TEST(EvalStore, SingleFieldDifferenceUnderOneKeyMissesInBothLayers) {
  const model::Architecture arch = fixtures::test_arch(3);
  const model::ApplicationSet apps = fixtures::small_mixed_apps();
  Candidate base = fixtures::plain_candidate(arch, apps);
  base.plan[0].technique = hardening::Technique::kActiveReplication;
  base.plan[0].replica_pes = {model::ProcessorId{0}, model::ProcessorId{1}};
  base.plan[0].voter_pe = model::ProcessorId{2};
  base.plan[1].technique = hardening::Technique::kReexecution;
  base.plan[1].reexecutions = 1;

  const std::vector<std::pair<std::string, void (*)(Candidate&)>> edits = {
      {"allocation bit", [](Candidate& c) { c.allocation[1] = false; }},
      {"drop bit", [](Candidate& c) { c.drop[0] = true; }},
      {"technique",
       [](Candidate& c) {
         c.plan[0].technique = hardening::Technique::kPassiveReplication;
       }},
      {"reexecutions", [](Candidate& c) { c.plan[1].reexecutions = 2; }},
      {"replica PE",
       [](Candidate& c) { c.plan[0].replica_pes[1] = model::ProcessorId{2}; }},
      {"voter PE",
       [](Candidate& c) { c.plan[0].voter_pe = model::ProcessorId{1}; }},
      {"base-mapping entry",
       [](Candidate& c) {
         c.base_mapping[0] = model::ProcessorId{
             (c.base_mapping[0].value + 1) % 3};
       }},
  };
  const std::uint64_t key = 0x5eed;
  const std::vector<std::uint8_t> stored = core::encode_candidate(base);
  const Evaluation evaluation = make_evaluation(4);
  for (const auto& [field, edit] : edits) {
    SCOPED_TRACE(field);
    Candidate other = base;
    edit(other);
    ASSERT_FALSE(other == base);
    const std::vector<std::uint8_t> probe = core::encode_candidate(other);

    core::EvaluationCache cache;
    cache.insert(key, stored, evaluation);
    EXPECT_FALSE(cache.find(key, probe).has_value());
    EXPECT_TRUE(cache.find(key, stored).has_value());

    const std::string dir = fresh_store_dir("field_collision");
    {
      EvalStore store(dir);
      store.put(key, stored, evaluation);
      EXPECT_FALSE(store.find(key, probe).has_value());
    }
    EvalStore reopened(dir);
    EXPECT_FALSE(reopened.find(key, probe).has_value());
    const auto found = reopened.find(key, stored);
    ASSERT_TRUE(found.has_value());
    expect_same_evaluation(*found, evaluation);
  }
}

TEST(EvalStore, WarmStoreReplaysGaCampaignWithoutFreshEvaluations) {
  const std::string dir = fresh_store_dir("ga");
  const model::Architecture arch = fixtures::test_arch(2);
  const model::ApplicationSet apps = fixtures::small_mixed_apps();
  const sched::HolisticAnalysis backend;
  dse::GeneticOptimizer optimizer(arch, apps, backend);

  dse::GaOptions options;
  options.population = 8;
  options.offspring = 8;
  options.generations = 4;
  options.seed = 7;
  options.threads = 2;

  std::uint64_t cold_appends = 0;
  dse::GaResult cold;
  {
    EvalStore store(dir);
    options.evaluator.store = &store;
    cold = optimizer.run(options);
    cold_appends = store.stats().appends;
    EXPECT_GT(cold_appends, 0u);
    EXPECT_EQ(store.stats().hits, 0u);
  }
  {
    // Same campaign against the warm store: every evaluation is served
    // from disk, nothing new is appended, and the trajectory is identical.
    EvalStore store(dir);
    options.evaluator.store = &store;
    const dse::GaResult warm = optimizer.run(options);
    EXPECT_EQ(store.stats().appends, 0u);
    EXPECT_GT(store.stats().hits, 0u);
    EXPECT_EQ(warm.evaluations, cold.evaluations);
    EXPECT_EQ(warm.best_feasible_power, cold.best_feasible_power);
    ASSERT_EQ(warm.pareto.size(), cold.pareto.size());
    for (std::size_t i = 0; i < warm.pareto.size(); ++i)
      EXPECT_EQ(warm.pareto[i].objectives, cold.pareto[i].objectives);
  }
}

TEST(EvalStore, StoreDirectoryShardsBySystemDigest) {
  EXPECT_EQ(core::store_directory("/tmp/cache", 0x0123456789abcdefULL),
            "/tmp/cache/sys-0123456789abcdef");
  EXPECT_EQ(core::store_directory("rel", 0), "rel/sys-0000000000000000");
}

}  // namespace
