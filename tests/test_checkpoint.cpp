// Tests for the `ftmc.ckpt.v1` checkpoint format, the GA's crash-safe
// resume guarantee, and the multi-seed Campaign driver (checkpoint.hpp /
// campaign.hpp).
//
// The headline guarantee under test: kill the GA at ANY generation
// boundary, resume from the snapshot, and the final archive and the
// trajectory fields of the per-generation telemetry are bitwise identical
// to the uninterrupted run.  Timing/cache-hit telemetry is explicitly
// excluded (resume restarts with a cold cache).
#include "ftmc/dse/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ftmc/core/evaluator.hpp"
#include "ftmc/dse/campaign.hpp"
#include "ftmc/dse/executor.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/util/file_io.hpp"
#include "ftmc/util/thread_pool.hpp"
#include "helpers.hpp"

namespace {

using namespace ftmc;
using dse::Campaign;
using dse::CampaignOptions;
using dse::Checkpoint;
using dse::CheckpointError;
using dse::GaOptions;
using dse::GaResult;
using dse::GenerationStats;
using dse::GeneticOptimizer;
using dse::TrajectoryOptions;

GaOptions tiny_options() {
  GaOptions options;
  options.population = 10;
  options.offspring = 10;
  options.generations = 6;
  options.seed = 123;
  options.threads = 2;
  return options;
}

struct GaRig {
  model::Architecture arch = fixtures::test_arch(2);
  model::ApplicationSet apps = fixtures::small_mixed_apps();
  sched::HolisticAnalysis backend;
  GeneticOptimizer optimizer{arch, apps, backend};
};

/// Unique scratch path under gtest's per-run temp dir.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "ftmc_ckpt_" + name;
}

void remove_rotation(const std::string& path, std::size_t keep = 8) {
  std::remove(path.c_str());
  for (std::size_t i = 1; i < keep; ++i)
    std::remove((path + "." + std::to_string(i)).c_str());
}

void expect_same_double(double a, double b) {
  if (std::isnan(a)) {
    EXPECT_TRUE(std::isnan(b));
  } else {
    EXPECT_EQ(a, b);
  }
}

/// The resume guarantee, spelled out: identical archive (genotype,
/// phenotype, objectives), identical Pareto front, identical run totals,
/// and identical trajectory fields of every history entry.  Cache and
/// timing telemetry are excluded by design.
void expect_same_trajectory(const GaResult& a, const GaResult& b) {
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.last_generation, b.last_generation);
  expect_same_double(a.best_feasible_power, b.best_feasible_power);
  ASSERT_EQ(a.archive.size(), b.archive.size());
  for (std::size_t i = 0; i < a.archive.size(); ++i) {
    EXPECT_EQ(a.archive[i].objectives, b.archive[i].objectives);
    EXPECT_EQ(a.archive[i].chromosome, b.archive[i].chromosome);
    EXPECT_EQ(a.archive[i].candidate, b.archive[i].candidate);
  }
  ASSERT_EQ(a.pareto.size(), b.pareto.size());
  for (std::size_t i = 0; i < a.pareto.size(); ++i)
    EXPECT_EQ(a.pareto[i].objectives, b.pareto[i].objectives);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].generation, b.history[i].generation);
    EXPECT_EQ(a.history[i].feasible_in_archive,
              b.history[i].feasible_in_archive);
    EXPECT_EQ(a.history[i].evaluations, b.history[i].evaluations);
    expect_same_double(a.history[i].best_feasible_power,
                       b.history[i].best_feasible_power);
  }
}

// --- Snapshot round-trip ----------------------------------------------------

TEST(CheckpointFormat, EncodeDecodeRoundTripOver20Seeds) {
  GaRig rig;
  const std::string path = temp_path("roundtrip");
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto options = tiny_options();
    options.population = 6;
    options.offspring = 6;
    options.generations = 1;
    options.seed = seed;
    options.checkpoint_path = path;
    options.checkpoint_keep = 1;
    (void)rig.optimizer.run(options);

    const Checkpoint loaded = dse::load_checkpoint(path);
    const std::vector<std::uint8_t> bytes = dse::encode_checkpoint(loaded);
    // Canonical encoding: decode(encode(decode(x))) produces the same
    // bytes, so the format has no hidden nondeterminism.
    const Checkpoint again = dse::decode_checkpoint(bytes);
    EXPECT_EQ(dse::encode_checkpoint(again), bytes) << "seed " << seed;

    EXPECT_EQ(loaded.options, TrajectoryOptions::of(options));
    EXPECT_EQ(loaded.generation, options.generations);
    EXPECT_NE(loaded.finished, 0);
    EXPECT_GT(loaded.evaluations, 0u);
    EXPECT_EQ(loaded.master, again.master);
    EXPECT_EQ(loaded.archive.size(), again.archive.size());
    EXPECT_EQ(loaded.history.size(), again.history.size());
  }
  remove_rotation(path);
}

// --- Resume == uninterrupted, killed at every boundary ----------------------

TEST(CheckpointResume, KillAtEveryBoundaryResumesBitwiseIdentical) {
  GaRig rig;
  auto options = tiny_options();
  options.generations = 10;
  const GaResult uninterrupted = rig.optimizer.run(options);

  const std::string path = temp_path("kill");
  for (std::size_t boundary = 0; boundary < options.generations;
       ++boundary) {
    remove_rotation(path);
    auto killed = options;
    killed.checkpoint_path = path;
    killed.checkpoint_keep = 1;
    bool past_boundary = false;
    killed.on_generation = [&](const GenerationStats& stats) {
      past_boundary = stats.generation >= boundary;
    };
    killed.stop_requested = [&]() { return past_boundary; };
    const GaResult partial = rig.optimizer.run(killed);
    EXPECT_TRUE(partial.interrupted);
    EXPECT_EQ(partial.last_generation, boundary);

    const Checkpoint snapshot = dse::load_checkpoint(path);
    EXPECT_EQ(snapshot.generation, boundary);
    EXPECT_EQ(snapshot.finished, 0);

    auto resumed_options = options;
    resumed_options.resume = &snapshot;
    const GaResult resumed = rig.optimizer.run(resumed_options);
    EXPECT_FALSE(resumed.interrupted);
    expect_same_trajectory(uninterrupted, resumed);
  }
  remove_rotation(path);
}

TEST(CheckpointResume, ReplaysRestoredTelemetryThenContinues) {
  GaRig rig;
  auto options = tiny_options();
  const std::string path = temp_path("replay");
  remove_rotation(path);

  auto killed = options;
  killed.checkpoint_path = path;
  bool past_boundary = false;
  killed.on_generation = [&](const GenerationStats& stats) {
    past_boundary = stats.generation >= 2;
  };
  killed.stop_requested = [&]() { return past_boundary; };
  (void)rig.optimizer.run(killed);

  const Checkpoint snapshot = dse::load_checkpoint(path);
  auto resumed_options = options;
  resumed_options.resume = &snapshot;
  std::vector<std::size_t> seen;
  resumed_options.on_generation = [&](const GenerationStats& stats) {
    seen.push_back(stats.generation);
  };
  (void)rig.optimizer.run(resumed_options);
  // Generations 0..2 are replayed from the snapshot's history, 3..6 run
  // live: one contiguous telemetry stream covering the whole run.
  ASSERT_EQ(seen.size(), options.generations + 1);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  remove_rotation(path);
}

TEST(CheckpointResume, FinishedSnapshotReconstructsWithoutEvaluation) {
  GaRig rig;
  auto options = tiny_options();
  options.checkpoint_path = temp_path("finished");
  remove_rotation(options.checkpoint_path);
  const GaResult full = rig.optimizer.run(options);

  const Checkpoint snapshot = dse::load_checkpoint(options.checkpoint_path);
  EXPECT_NE(snapshot.finished, 0);
  auto resumed_options = options;
  resumed_options.checkpoint_path.clear();
  resumed_options.resume = &snapshot;
  const GaResult resumed = rig.optimizer.run(resumed_options);
  // No evaluation happens: the totals are the restored ones, bit-for-bit.
  expect_same_trajectory(full, resumed);
  remove_rotation(options.checkpoint_path);
}

// --- Rejection paths --------------------------------------------------------

/// A minimal but well-formed snapshot for byte-level tampering tests.
std::vector<std::uint8_t> valid_bytes() {
  Checkpoint snapshot;
  snapshot.options = TrajectoryOptions::of(tiny_options());
  snapshot.generation = 3;
  snapshot.evaluations = 70;
  snapshot.best_feasible_power = 12.5;
  snapshot.master = util::Rng(7).state();
  GenerationStats stats;
  stats.generation = 3;
  stats.evaluations = 10;
  snapshot.history.push_back(stats);
  return dse::encode_checkpoint(snapshot);
}

void expect_rejects(std::vector<std::uint8_t> bytes,
                    const std::string& needle) {
  try {
    (void)dse::decode_checkpoint(bytes);
    FAIL() << "expected CheckpointError containing '" << needle << "'";
  } catch (const CheckpointError& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << error.what();
  }
}

TEST(CheckpointFormat, RejectsBadMagic) {
  auto bytes = valid_bytes();
  bytes[0] = 'X';
  expect_rejects(std::move(bytes), "magic");
}

TEST(CheckpointFormat, RejectsUnknownVersion) {
  auto bytes = valid_bytes();
  bytes[8] = static_cast<std::uint8_t>(
      dse::kCheckpointVersion + 1);  // little-endian version field at offset 8
  expect_rejects(std::move(bytes), "version");
}

TEST(CheckpointFormat, RejectsTruncation) {
  const auto bytes = valid_bytes();
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{31}, bytes.size() / 2,
        bytes.size() - 1}) {
    auto cut = bytes;
    cut.resize(keep);
    EXPECT_THROW((void)dse::decode_checkpoint(cut), CheckpointError)
        << "kept " << keep << " bytes";
  }
}

TEST(CheckpointFormat, RejectsPayloadCorruption) {
  auto bytes = valid_bytes();
  bytes[40] ^= 0xFF;  // inside the payload -> digest mismatch
  expect_rejects(std::move(bytes), "checksum");
}

TEST(CheckpointFormat, IgnoresTrailingBytes) {
  // Forward compatibility: newer writers may append extensions after the
  // digested payload; a v1 reader must not choke on them.
  auto bytes = valid_bytes();
  const Checkpoint base = dse::decode_checkpoint(bytes);
  bytes.insert(bytes.end(), {1, 2, 3, 4});
  const Checkpoint extended = dse::decode_checkpoint(bytes);
  EXPECT_EQ(base.generation, extended.generation);
  EXPECT_EQ(base.master, extended.master);
}

TEST(CheckpointFormat, LoadOfMissingFileIsCheckpointError) {
  EXPECT_THROW((void)dse::load_checkpoint(temp_path("does_not_exist")),
               CheckpointError);
}

TEST(CheckpointResume, OptionsMismatchNamesTheField) {
  GaRig rig;
  auto options = tiny_options();
  options.checkpoint_path = temp_path("mismatch");
  remove_rotation(options.checkpoint_path);
  (void)rig.optimizer.run(options);
  const Checkpoint snapshot = dse::load_checkpoint(options.checkpoint_path);

  auto divergent = options;
  divergent.seed = options.seed + 1;
  divergent.resume = &snapshot;
  try {
    (void)rig.optimizer.run(divergent);
    FAIL() << "expected CheckpointError naming 'seed'";
  } catch (const CheckpointError& error) {
    EXPECT_NE(std::string(error.what()).find("'seed'"), std::string::npos)
        << error.what();
  }

  // Trajectory-neutral knobs must NOT block a resume.
  auto retuned = options;
  retuned.threads = 1;
  retuned.checkpoint_path.clear();
  retuned.resume = &snapshot;
  EXPECT_NO_THROW((void)rig.optimizer.run(retuned));
  remove_rotation(options.checkpoint_path);
}

TEST(CheckpointFormat, TrajectoryMismatchReportsFirstDifferingField) {
  const TrajectoryOptions a = TrajectoryOptions::of(tiny_options());
  TrajectoryOptions b = a;
  EXPECT_EQ(a.mismatch(b), "");
  b.crossover_rate = a.crossover_rate + 0.125;
  EXPECT_EQ(a.mismatch(b), "variation.crossover_rate");
  EXPECT_NE(a.digest(), b.digest());
}

// --- Options validation -----------------------------------------------------

TEST(GaOptionsValidate, RejectsContradictoryKnobs) {
  GaRig rig;
  auto options = tiny_options();
  options.cache_capacity = 0;
  EXPECT_THROW(rig.optimizer.run(options), std::invalid_argument);

  options = tiny_options();
  options.checkpoint_path = temp_path("validate");
  options.checkpoint_every = 0;
  EXPECT_THROW(rig.optimizer.run(options), std::invalid_argument);
  options.checkpoint_every = 1;
  options.checkpoint_keep = 0;
  EXPECT_THROW(rig.optimizer.run(options), std::invalid_argument);
}

// --- Rotation ---------------------------------------------------------------

TEST(CheckpointPersistence, KeepLastKRotation) {
  GaRig rig;
  auto options = tiny_options();
  options.generations = 4;
  options.checkpoint_path = temp_path("rotate");
  options.checkpoint_keep = 3;
  remove_rotation(options.checkpoint_path);
  (void)rig.optimizer.run(options);

  // Newest at the base path, older generations shifted down; every slot
  // still decodes cleanly.
  std::uint64_t previous = dse::load_checkpoint(options.checkpoint_path)
                               .generation;
  EXPECT_EQ(previous, options.generations);
  for (std::size_t slot = 1; slot < options.checkpoint_keep; ++slot) {
    const std::string path =
        options.checkpoint_path + "." + std::to_string(slot);
    ASSERT_TRUE(util::file_exists(path));
    const Checkpoint older = dse::load_checkpoint(path);
    EXPECT_EQ(older.generation, previous - 1);
    previous = older.generation;
  }
  EXPECT_FALSE(util::file_exists(options.checkpoint_path + "." +
                                 std::to_string(options.checkpoint_keep)));
  remove_rotation(options.checkpoint_path);
}

// --- RngState ---------------------------------------------------------------

TEST(RngState, RestoreResumesExactSequence) {
  util::Rng rng(99);
  for (int i = 0; i < 17; ++i) (void)rng.index(1000);
  (void)rng.normal(0.0, 1.0);  // leave a cached Box-Muller half-pair
  const util::RngState state = rng.state();

  std::vector<double> expected;
  for (int i = 0; i < 32; ++i) expected.push_back(rng.normal(0.0, 1.0));

  util::Rng other(1);  // different seed, fully overwritten by restore
  other.restore(state);
  for (int i = 0; i < 32; ++i)
    EXPECT_EQ(other.normal(0.0, 1.0), expected[i]) << "draw " << i;
}

TEST(RngState, AllZeroStateIsRejected) {
  util::Rng rng(1);
  EXPECT_THROW(rng.restore(util::RngState{}), std::invalid_argument);
}

// --- Campaign ---------------------------------------------------------------

CampaignOptions campaign_options() {
  CampaignOptions options;
  options.ga = tiny_options();
  options.ga.generations = 4;
  options.seeds = {11, 22, 33};
  options.retry_backoff_seconds = 0.0;
  return options;
}

void expect_same_front(const std::vector<dse::Individual>& a,
                       const std::vector<dse::Individual>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].objectives, b[i].objectives);
    EXPECT_EQ(a[i].chromosome, b[i].chromosome);
  }
}

TEST(Campaign, SeedShardMergeIsDeterministic) {
  GaRig rig;
  const Campaign campaign(rig.arch, rig.apps, rig.backend);
  const auto options = campaign_options();
  const auto first = campaign.run(options);
  const auto second = campaign.run(options);

  ASSERT_EQ(first.shards.size(), options.seeds.size());
  for (std::size_t i = 0; i < first.shards.size(); ++i)
    EXPECT_EQ(first.shards[i].seed, options.seeds[i]);
  EXPECT_FALSE(first.interrupted);
  EXPECT_FALSE(first.budget_exhausted);
  EXPECT_FALSE(first.front.empty());
  expect_same_front(first.front, second.front);
  EXPECT_EQ(first.evaluations, second.evaluations);

  // The merged front is feasible and mutually non-dominated.
  for (const auto& a : first.front) {
    EXPECT_TRUE(a.evaluation.feasible());
    for (const auto& b : first.front)
      if (&a != &b) {
        EXPECT_FALSE(dse::dominates(a.objectives, b.objectives));
      }
  }
}

TEST(Campaign, RetryResumesFromCheckpointDeterministically) {
  GaRig rig;
  const Campaign campaign(rig.arch, rig.apps, rig.backend);

  auto clean = campaign_options();
  clean.seeds = {11};
  const auto reference = campaign.run(clean);

  // An evaluator-side failure surfaces as an exception from the shard's
  // run; one injected throw at the generation-2 boundary of the first
  // attempt must be absorbed by a retry that resumes the same trajectory.
  auto faulty = clean;
  faulty.checkpoint_path = temp_path("retry");
  remove_rotation(faulty.checkpoint_path);
  bool thrown = false;
  faulty.on_generation = [&](std::size_t, const GenerationStats& stats) {
    if (!thrown && stats.generation == 2) {
      thrown = true;
      throw std::runtime_error("injected transient evaluator failure");
    }
  };
  const auto recovered = campaign.run(faulty);
  ASSERT_EQ(recovered.shards.size(), 1u);
  EXPECT_EQ(recovered.shards[0].retries, 1u);
  expect_same_front(reference.front, recovered.front);
  EXPECT_EQ(reference.evaluations, recovered.evaluations);
  remove_rotation(faulty.checkpoint_path);

  // Without checkpointing the retry restarts from scratch — still the
  // same deterministic trajectory, still one recovered failure.
  auto no_ckpt = clean;
  thrown = false;
  no_ckpt.on_generation = faulty.on_generation;
  const auto restarted = campaign.run(no_ckpt);
  ASSERT_EQ(restarted.shards.size(), 1u);
  EXPECT_EQ(restarted.shards[0].retries, 1u);
  expect_same_front(reference.front, restarted.front);
}

TEST(Campaign, ExhaustedRetriesPropagateTheFailure) {
  GaRig rig;
  const Campaign campaign(rig.arch, rig.apps, rig.backend);
  auto options = campaign_options();
  options.seeds = {11};
  options.max_retries = 1;
  options.on_generation = [](std::size_t, const GenerationStats&) {
    throw std::runtime_error("persistent failure");
  };
  EXPECT_THROW((void)campaign.run(options), std::runtime_error);
}

TEST(Campaign, ConfigurationErrorsAreNeverRetried) {
  GaRig rig;
  const Campaign campaign(rig.arch, rig.apps, rig.backend);
  auto options = campaign_options();
  options.ga.population = 0;  // invalid_argument from validate()
  options.max_retries = 5;
  EXPECT_THROW((void)campaign.run(options), std::invalid_argument);
}

TEST(Campaign, EvaluationBudgetStopsAtBoundary) {
  GaRig rig;
  const Campaign campaign(rig.arch, rig.apps, rig.backend);
  auto options = campaign_options();
  options.max_evaluations = 1;  // hit right after the first batch
  const auto result = campaign.run(options);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_FALSE(result.interrupted);
  ASSERT_EQ(result.shards.size(), 1u);
  EXPECT_TRUE(result.shards[0].result.interrupted);
  EXPECT_EQ(result.shards[0].result.last_generation, 0u);
}

TEST(Campaign, ResumeContinuesInterruptedShards) {
  GaRig rig;
  const Campaign campaign(rig.arch, rig.apps, rig.backend);

  auto uninterrupted = campaign_options();
  const auto reference = campaign.run(uninterrupted);

  auto first_leg = campaign_options();
  first_leg.checkpoint_path = temp_path("campaign_resume");
  const std::size_t shard_count = first_leg.seeds.size();
  for (std::size_t i = 0; i < shard_count; ++i)
    remove_rotation(
        dse::shard_checkpoint_path(first_leg.checkpoint_path, i,
                                   shard_count));
  // Interrupt partway through: generation boundaries across all shards.
  std::size_t boundaries = 0;
  first_leg.on_generation = [&](std::size_t, const GenerationStats&) {
    ++boundaries;
  };
  first_leg.stop_requested = [&]() { return boundaries > 6; };
  const auto partial = campaign.run(first_leg);
  EXPECT_TRUE(partial.interrupted);
  EXPECT_LT(partial.shards.size(), shard_count);

  auto second_leg = first_leg;
  second_leg.on_generation = nullptr;
  second_leg.stop_requested = nullptr;
  second_leg.resume = true;
  const auto resumed = campaign.run(second_leg);
  EXPECT_FALSE(resumed.interrupted);
  ASSERT_EQ(resumed.shards.size(), shard_count);
  EXPECT_TRUE(resumed.shards[0].resumed);
  expect_same_front(reference.front, resumed.front);
  EXPECT_EQ(reference.evaluations, resumed.evaluations);
  for (std::size_t i = 0; i < shard_count; ++i)
    remove_rotation(
        dse::shard_checkpoint_path(first_leg.checkpoint_path, i,
                                   shard_count));
}

// The budget is checked before an island starts or resumes, as it is at
// generation boundaries: once island 0 spends it, islands 1 and 2 never
// start their first epoch.
TEST(Campaign, IslandBudgetStopsBeforeTheNextIslandStarts) {
  GaRig rig;
  const Campaign campaign(rig.arch, rig.apps, rig.backend);
  auto options = campaign_options();
  options.migration_every = 2;
  options.max_evaluations = 1;  // hit right after island 0's first batch
  const auto result = campaign.run(options);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_FALSE(result.interrupted);
  ASSERT_EQ(result.shards.size(), 1u);
  EXPECT_EQ(result.shards[0].seed, options.seeds[0]);
  EXPECT_EQ(result.evaluations, options.ga.population);
  EXPECT_EQ(result.migration_epochs, 0u);
}

/// In-process evaluation that fails its `fail_batch`-th batch with
/// ExecutorError, the transport failure a lost worker produces.
class FailingBatchExecutor final : public dse::Executor {
 public:
  FailingBatchExecutor(const GaRig& rig, std::size_t fail_batch)
      : evaluator_(rig.arch, rig.apps, rig.backend),
        pool_(1),
        inner_(evaluator_, pool_),
        fail_batch_(fail_batch) {}

  const char* name() const noexcept override { return "failing-batch"; }
  void evaluate(const std::vector<dse::EvalRequest>& requests,
                std::vector<dse::EvalOutcome>& outcomes) override {
    if (++batches_ == fail_batch_)
      throw dse::ExecutorError("injected worker loss");
    inner_.evaluate(requests, outcomes);
  }

 private:
  core::Evaluator evaluator_;
  util::ThreadPool pool_;
  dse::InProcessExecutor inner_;
  std::size_t fail_batch_;
  std::size_t batches_ = 0;
};

// A retried island resumes from its checkpoint and replays the restored
// history through the GA; the campaign forwards each generation once.
TEST(Campaign, RetryForwardsEveryGenerationOnce) {
  GaRig rig;
  const Campaign campaign(rig.arch, rig.apps, rig.backend);

  auto clean = campaign_options();
  clean.seeds = {11};
  const auto reference = campaign.run(clean);

  auto faulty = clean;
  faulty.checkpoint_path = temp_path("retry_telemetry");
  remove_rotation(faulty.checkpoint_path);
  // The first executor fails its third batch (generation 2's offspring),
  // after the generation-1 snapshot is on disk; the retry's executor does
  // not fail.
  std::size_t executors = 0;
  faulty.executor_factory = [&](std::size_t) {
    return std::unique_ptr<dse::Executor>(
        std::make_unique<FailingBatchExecutor>(rig, ++executors == 1 ? 3 : 0));
  };
  std::vector<std::size_t> forwarded;
  faulty.on_generation = [&](std::size_t, const GenerationStats& stats) {
    forwarded.push_back(stats.generation);
  };
  const auto recovered = campaign.run(faulty);

  ASSERT_EQ(recovered.shards.size(), 1u);
  EXPECT_EQ(recovered.shards[0].retries, 1u);
  EXPECT_EQ(executors, 2u);
  std::vector<std::size_t> expected;
  for (std::size_t g = 0; g <= clean.ga.generations; ++g)
    expected.push_back(g);
  EXPECT_EQ(forwarded, expected);
  expect_same_front(reference.front, recovered.front);
  EXPECT_EQ(reference.evaluations, recovered.evaluations);
  remove_rotation(faulty.checkpoint_path);
}

TEST(Campaign, ShardCheckpointPaths) {
  EXPECT_EQ(dse::shard_checkpoint_path("", 0, 3), "");
  EXPECT_EQ(dse::shard_checkpoint_path("run.ckpt", 0, 1), "run.ckpt");
  EXPECT_EQ(dse::shard_checkpoint_path("run.ckpt", 0, 3), "run.ckpt.s0");
  EXPECT_EQ(dse::shard_checkpoint_path("run.ckpt", 2, 3), "run.ckpt.s2");
}

}  // namespace
