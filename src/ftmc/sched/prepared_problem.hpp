// Prepared holistic analysis kernel: build the problem once, solve N times.
//
// Algorithm 1 analyzes one candidate (mapping + priorities) against many
// exec-bounds vectors — one per transition scenario.  Everything except the
// bounds is scenario-invariant: the flattened node set (tasks + bus message
// nodes), the precedence edges, the per-PE interferer lists, the transitive
// same-graph relation matrix, and the analysis horizon.  PreparedProblem
// captures all of that once; solve_many() then runs the best-case and
// worst-case fixed points for a batch of bounds vectors against a
// thread-local arena with no per-scenario allocation (the arena grows on
// first use and is reused across scenarios and candidates).
//
// Beyond amortizing construction, the kernel is faster than the original
// monolithic HolisticAnalysis::analyze in three ways:
//   - the relation matrix is a packed 64-bit bitset row matrix instead of
//     vector<vector<bool>> (one load + mask per membership test, rows hot in
//     cache during the interference inner loop);
//   - the best-case bound is a single topological pass (it is an exact DAG
//     longest path, so sweeping to stability is redundant);
//   - the worst-case global fixed point, after the first round, only
//     re-evaluates nodes whose inputs changed (change-driven worklist)
//     instead of every node every sweep.  The original full sweep survives
//     as solve_reference_sweep(), the oracle of the differential tests.
//
// There is one worklist driver, and it solves lanes: solve_many() lays N
// scenarios out as structure-of-arrays lanes (state indexed
// [lane * total + node], so each lane's evaluation walks memory like a
// scalar solver) and runs them through one joint round loop; solve() is a
// one-lane call of it.  Visiting the same (round, node) across all lanes
// back to back is what lets one lane's evaluation stand in for the next
// one's when their inputs coincide (cross-lane sharing), and lanes whose
// parameters coincide after the canonical cutoff fold are solved once
// (post-fold dedup).  Lanes are otherwise independent, so any lane count is
// bit-identical to solving the scenarios one by one.
//
// The result is bit-identical to the reference sweep and to the original
// monolithic path (tests/test_prepared_problem.cpp and the fuzz harness
// tests/test_kernel_fuzz.cpp).  That identity is by trajectory, not by
// fixed-point theory: the offset-aware worst-case operator is NOT monotone
// in a node's arrival (shifting a busy window right can drop whole
// interfering jobs), so different evaluation orders can ratchet the
// guarded-max state to different fixed points.  The worklist therefore
// visits dirty nodes in the reference sweep's flat order and skips exactly
// the evaluations that are provably no-ops there — same inputs as the
// previous visit implies the same computed window, which the guarded max
// already absorbed.  Nodes whose computed window stays below the ratcheted
// state ("sticky") keep the reference sweep unstable until its round budget
// exhausts; the worklist tracks them and reproduces that divergence verdict
// without burning the rounds.
#pragma once

#include <cstdint>
#include <vector>

#include "ftmc/sched/holistic.hpp"

namespace ftmc::sched {

class PreparedProblem final : public PreparedAnalysis {
 public:
  /// Scenarios per solve_many() call that callers should aim for: wide
  /// enough for cross-lane sharing and dedup to find partners, narrow
  /// enough that a lane's state stays cache-resident.
  static constexpr std::size_t kLaneWidth = 8;

  /// Builds the bounds-independent problem structure.  All references are
  /// borrowed: arch and apps (and the backing mapping) must outlive this
  /// object; `priorities` is copied.  Throws std::invalid_argument on a
  /// mapping/priorities shape mismatch, exactly like the monolithic entry.
  PreparedProblem(const model::Architecture& arch,
                  const model::ApplicationSet& apps,
                  const model::Mapping& mapping,
                  std::span<const std::uint32_t> priorities,
                  const HolisticAnalysis::Options& options);

  /// Application tasks (result windows cover exactly these).
  std::size_t task_count() const noexcept { return n_; }
  /// Tasks plus bus message nodes (internal fixed-point width).
  std::size_t node_count() const noexcept { return total_; }

  /// One bounds vector: a one-lane solve_many().  Thread-safe: `this` is
  /// immutable after construction and the lane state is thread-local.
  AnalysisResult solve(std::span<const ExecBounds> bounds) const override;

  std::size_t preferred_batch() const override { return kLaneWidth; }

  /// The lane driver: solves every scenario as a lane of one joint round
  /// loop (see the header notes); any count, bitwise identical to solve()
  /// per scenario.  Allocation-free once this thread's arena has grown to
  /// the batch size.
  void solve_many(std::span<const std::span<const ExecBounds>> scenarios,
                  std::span<AnalysisResult> results) const override;
  using PreparedAnalysis::solve_many;

  /// Reference oracle: the original full sweep over every node in flat
  /// order until a sweep changes nothing.  Same operator, same load and
  /// best-case derivation as the lane driver; only the iteration scheme
  /// differs.  For differential tests and benches, not production.
  AnalysisResult solve_reference_sweep(
      std::span<const ExecBounds> bounds) const;

 private:
  struct InEdge {
    std::size_t src;
    model::Time delay;
  };

  /// Solve state of `lanes` scenarios, structure-of-arrays, indexed
  /// [lane * total + node].  Vectors grow on demand and keep their
  /// capacity, so one arena per thread serves every problem it touches.
  struct Lanes {
    // Per (node, lane) problem inputs and fixed-point state.
    std::vector<model::Time> c_min, c_max, release_cutoff;
    std::vector<model::Time> min_start, min_finish, max_arrival, max_finish;
    // Nodes whose inputs changed since their last visit, and nodes whose
    // last computed window differs from the ratcheted state (these keep the
    // reference sweep unstable; see the header notes).
    std::vector<std::uint8_t> dirty, sticky;
    // Per-lane driver state.
    std::vector<std::uint8_t> lane_active, lane_round_stable, lane_diverged;
    /// Lane proven to never certify a round within the budget (all-sticky
    /// with no dirty work left): retired onto the same diverged fill the
    /// exhausted-budget path produces.
    std::vector<std::uint8_t> lane_exhausted;
    std::vector<std::size_t> dirty_count, sticky_count;
    /// Per-node counts of set dirty/sticky bits across lanes: a joint-scan
    /// position with both counts zero is skipped for all lanes in one test.
    std::vector<std::uint32_t> node_dirty, node_sticky;
    /// Post-fold lane dedup: earlier lane with a bitwise-equal parameter
    /// set (solved once, its solution copied at finalization), and each
    /// lane's parameter-set signature gating the full compare.
    std::vector<std::uint32_t> dup_of;
    std::vector<std::uint64_t> lane_sig;
  };

  bool related(std::size_t i, std::size_t u) const noexcept {
    return (related_bits_[i * words_ + (u >> 6)] >> (u & 63)) & 1u;
  }

  /// Outcome of one worst-case node evaluation.  `raw_changed` mirrors the
  /// reference sweep's stability test (computed != stored before the guarded
  /// max); `stored_changed` reports whether the guarded max actually moved
  /// the stored window, i.e. whether readers of this node see new inputs;
  /// `sticky` means re-evaluating with unchanged inputs would report
  /// raw_changed again (computed window below the ratcheted state);
  /// `diverged` reports a bound past the horizon (the driver ORs it into
  /// the lane's verdict).
  struct UpdateOutcome {
    bool raw_changed = false;
    bool stored_changed = false;
    bool sticky = false;
    bool diverged = false;
  };

  /// Thread-local arena used by every solve on this thread.
  static Lanes& thread_lanes();

  /// Sizes `b` for the scenarios, loads and validates their bounds, runs
  /// the best-case pass, folds the cutoffs and seeds the worst-case state —
  /// the one derivation both iteration schemes start from.
  void load_lanes(std::span<const std::span<const ExecBounds>> scenarios,
                  Lanes& b) const;
  /// The worst-case operator on node i of the lane starting at `off`.
  UpdateOutcome update_node(std::size_t i, Lanes& b, std::size_t off) const;
  /// Packages one finished lane into the public result form.
  void materialize(const Lanes& b, std::size_t lane, bool diverged,
                   AnalysisResult& result) const;

  HolisticAnalysis::Options options_;
  std::size_t n_ = 0;      ///< application tasks
  std::size_t total_ = 0;  ///< tasks + message nodes
  std::size_t words_ = 0;  ///< 64-bit words per relation row

  // Bounds-independent node parameters.
  std::vector<const model::Processor*> pe_ref_;  ///< per task, for scaling
  std::vector<model::Time> period_;
  std::vector<std::uint32_t> graph_of_;
  model::Time horizon_ = 0;

  // Message nodes (bus contention): node n_+q exists for message q.
  std::vector<std::size_t> message_src_;
  std::vector<model::Time> message_transfer_;

  // Graph structure.
  std::vector<std::vector<InEdge>> in_edges_;
  std::vector<std::vector<std::size_t>> interferers_;
  std::vector<std::uint64_t> related_bits_;
  /// Input set of each node's worst-case equation as explicit node lists
  /// (CSR: input_offsets_[i] .. input_offsets_[i+1] into input_nodes_, i
  /// itself excluded): precedence predecessors and interferers.  Drives the
  /// cross-lane sharing test, which compares two lanes' input values.
  std::vector<std::uint32_t> input_nodes_;
  std::vector<std::uint32_t> input_offsets_;
  /// Nodes in dependency-respecting order (precedence edges only).
  std::vector<std::size_t> topo_order_;
  /// dependents_[u]: nodes whose worst-case equation reads u's window —
  /// precedence successors plus lower-priority same-PE tasks.
  std::vector<std::vector<std::size_t>> dependents_;
};

}  // namespace ftmc::sched
