// Multi-seed DSE campaigns: the production driver around GeneticOptimizer.
//
// A campaign runs one exploration problem under several GA seeds as an
// island model: every seed is an island, islands run epochs of
// `migration_every` generations, meet at a barrier, and exchange their best
// feasible non-dominated candidates along a ring before resuming from
// in-memory snapshots.  Without a cadence (`migration_every = 0`) the run is
// a single epoch with no barrier, so the islands are independent shards,
// each run to the end in seed order.  The campaign retries transient
// evaluator failures with bounded exponential backoff, enforces wall-clock
// and evaluation budgets (no island starts or resumes once one fired), and
// merges the per-seed feasible fronts into one non-dominated set.
//
// Each island's evaluations can be delegated through `executor_factory`
// (see executor.hpp; the factory is re-invoked on retry so a lost worker is
// replaced by a fresh one).  Islands with their own executors run their
// epochs concurrently, one thread per island; in-process islands already
// saturate the machine through the evaluator's thread pool and run one
// after another.
//
// Determinism: every island is an ordinary GA run and migration happens at
// fixed generation barriers on sorted candidate lists, so a fixed (seeds,
// migration_every, migration_size) triple pins the merged front regardless
// of which executor evaluated each batch or whether any worker died and
// was respawned mid-epoch.  A retried island reloads its latest checkpoint
// (or its epoch snapshot, or restarts from scratch when neither exists),
// which by the resume guarantee of checkpoint.hpp reproduces the exact
// trajectory the failed attempt was on.  Configuration errors
// (std::invalid_argument) and checkpoint defects (CheckpointError) are
// never retried — they fail the campaign immediately.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ftmc/dse/ga.hpp"

namespace ftmc::dse {

class Executor;

struct CampaignOptions {
  /// Per-island GA configuration; `ga.seed` is overridden by each entry of
  /// `seeds` and `ga.checkpoint_path`/`ga.resume` by the campaign's own
  /// checkpoint management below.
  GaOptions ga;
  /// One island per seed.  Empty = a single island with ga.seed.
  std::vector<std::uint64_t> seeds;

  /// Epoch length in generations: islands meet at a ring-migration barrier
  /// after every `migration_every` generations.  0 = one epoch of
  /// `ga.generations`, i.e. independent shards that never migrate.
  std::size_t migration_every = 0;
  /// Candidates each island donates to its ring successor per barrier
  /// (its best feasible non-dominated individuals, deduplicated against
  /// the recipient's archive by objective vector).
  std::size_t migration_size = 4;
  /// Evaluation executor per island (nullptr = in-process).  Called once
  /// per GA attempt and epoch, so a retry after a worker loss constructs a
  /// fresh executor — typically a respawned worker.  When set, islands run
  /// their epochs concurrently, one thread per island, and the factory is
  /// called from those threads.  An island whose epoch-duration EWMA
  /// exceeds three times the fleet mean is counted in
  /// `dse.campaign.stragglers` (diagnostic only; the barrier still waits).
  std::function<std::unique_ptr<Executor>(std::size_t)> executor_factory;

  /// Retries per island on evaluator failure (any std::exception except
  /// configuration and checkpoint errors).
  std::size_t max_retries = 2;
  /// First retry delay; doubles per retry, capped at five seconds.
  double retry_backoff_seconds = 0.1;

  /// Wall-clock budget over the whole campaign (0 = unlimited).  Checked at
  /// generation boundaries: the in-flight generation always completes and,
  /// with checkpointing on, a resumable snapshot is written.
  double max_seconds = 0.0;
  /// Evaluation budget over the whole campaign (0 = unlimited), same
  /// boundary semantics.
  std::size_t max_evaluations = 0;

  /// Base snapshot path (empty = no checkpointing).  A single-seed campaign
  /// uses it verbatim; island i of a multi-seed campaign uses `<path>.s<i>`.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 1;
  std::size_t checkpoint_keep = 3;
  /// Load existing island snapshots and continue them; missing files start
  /// fresh, defective or mismatched ones fail loudly (CheckpointError).
  bool resume = false;

  /// Cooperative interrupt, polled at generation boundaries and before an
  /// island starts or resumes (composes with the budgets).  Not called
  /// again once it returned true.
  std::function<bool()> stop_requested;
  /// Telemetry fan-in: island index + that island's per-generation stats,
  /// each generation forwarded once per run in ascending order.  With
  /// `resume`, the restored history is replayed first, from generation 0;
  /// a retry or an epoch resume does not repeat generations already
  /// forwarded.  Calls are serialized across island threads.
  std::function<void(std::size_t, const GenerationStats&)> on_generation;
};

/// Per-island checkpoint path under the campaign's base path.
std::string shard_checkpoint_path(const std::string& base, std::size_t shard,
                                  std::size_t shard_count);

struct ShardResult {
  std::uint64_t seed = 0;
  GaResult result;
  std::size_t retries = 0;  ///< evaluator failures recovered from
  bool resumed = false;     ///< started from an existing snapshot
};

struct CampaignResult {
  std::vector<ShardResult> shards;
  /// Non-dominated union of the shards' feasible fronts, one representative
  /// per objective vector (first shard in seed order wins ties).
  std::vector<Individual> front;
  std::size_t evaluations = 0;
  /// True when stop_requested fired; islands not yet started are absent
  /// from `shards` and an interrupted island carries interrupted=true.
  bool interrupted = false;
  /// True when a wall-clock or evaluation budget ended the campaign early.
  bool budget_exhausted = false;
  /// Migration telemetry (both zero without a migration cadence).
  std::size_t migration_epochs = 0;
  std::size_t migrants = 0;
};

/// Merges per-shard fronts into one non-dominated, deduplicated front.
std::vector<Individual> merge_fronts(const std::vector<ShardResult>& shards);

class Campaign {
 public:
  /// References must outlive the campaign.
  Campaign(const model::Architecture& arch, const model::ApplicationSet& apps,
           const sched::SchedulingAnalysis& backend);

  CampaignResult run(const CampaignOptions& options) const;

 private:
  const model::Architecture* arch_;
  const model::ApplicationSet* apps_;
  const sched::SchedulingAnalysis* backend_;
};

}  // namespace ftmc::dse
