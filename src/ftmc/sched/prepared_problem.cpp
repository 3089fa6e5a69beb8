#include "ftmc/sched/prepared_problem.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "ftmc/hardening/reliability.hpp"  // scaled_time
#include "ftmc/obs/metrics.hpp"
#include "ftmc/util/hash.hpp"

namespace ftmc::sched {

namespace {

/// ceil(a / b) for non-negative a, positive b.
constexpr model::Time ceil_div(model::Time a, model::Time b) noexcept {
  return (a + b - 1) / b;
}

/// Folds a release cutoff onto the last release time at or below it.  The
/// operator probes the cutoff only through "k*period + min_start > cutoff",
/// and no release lies strictly between the fold result and the raw value,
/// so every probe answers identically — the fold is behavior-preserving.
/// It maps all cutoffs within one inter-release gap onto one value, which
/// is what lets the lane driver's sharing tests recognize scenarios with
/// different trigger windows as equivalent inputs.  Cutoffs before the
/// first release (nothing ever runs) all fold to -1.
constexpr model::Time canonical_cutoff(model::Time cutoff,
                                       model::Time min_start,
                                       model::Time period,
                                       model::Time horizon) noexcept {
  if (cutoff < min_start) return model::Time{-1};
  const model::Time folded =
      min_start + (cutoff - min_start) / period * period;
  // Every probe "k*period + min_start" the operator makes stays within a
  // small multiple of the horizon (window magnitudes are capped by the
  // horizon ratchet), so whenever the horizon sits far below the sentinel
  // range, every cutoff up there answers all probes false — one behavior
  // class.  Collapse it onto kUnschedulable so scenarios that differ only
  // in unreachable cutoffs also compare bitwise equal.
  if (horizon < kUnschedulable / 16 && folded >= kUnschedulable / 2)
    return kUnschedulable;
  return folded;
}

/// Kernel counters, tallied in plain locals during a solve and flushed once
/// at the end — the fixed point itself never reads them, so instrumented
/// and uninstrumented runs are bitwise identical.
struct KernelCounters {
  obs::Counter solves{"sched.solves"};
  obs::Counter diverged{"sched.solve_divergences"};
  obs::Counter worklist_evals{"sched.worklist.node_evals"};
  obs::Counter worklist_skips{"sched.worklist.skipped_evals"};
  obs::Counter sticky_hits{"sched.worklist.sticky_hits"};
  obs::Counter sweep_evals{"sched.sweep.node_evals"};
  // Lane driver: invocations, total lanes, lanes retired by the post-fold
  // dedup (solved by copying a sibling lane), and evaluations answered by
  // copying another lane's outcome at the same (round, node) instead of a
  // recompute.
  obs::Counter batch_solves{"sched.batch.solves"};
  obs::Counter batch_lanes{"sched.batch.lanes"};
  obs::Counter batch_dups{"sched.batch.dup_lanes"};
  obs::Counter batch_shared{"sched.batch.shared_evals"};
};

KernelCounters& kernel_counters() {
  static KernelCounters counters;
  return counters;
}

}  // namespace

PreparedProblem::PreparedProblem(const model::Architecture& arch,
                                 const model::ApplicationSet& apps,
                                 const model::Mapping& mapping,
                                 std::span<const std::uint32_t> priorities,
                                 const HolisticAnalysis::Options& options)
    : options_(options) {
  n_ = apps.task_count();
  if (priorities.size() != n_)
    throw std::invalid_argument("HolisticAnalysis: priorities size mismatch");
  if (!mapping.within(arch.processor_count()))
    throw std::invalid_argument("HolisticAnalysis: mapping out of range");

  // Remote channels: plain added latency by default, or explicit message
  // nodes scheduled on a shared-bus pseudo-PE when contention is modeled.
  struct Message {
    std::size_t src, dst;
    model::Time transfer;
  };
  std::vector<Message> messages;
  std::vector<std::vector<InEdge>> in_edges(n_);
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
    const model::TaskGraph& graph = apps.graph(model::GraphId{g});
    for (const model::Channel& channel : graph.channels()) {
      const std::size_t src = apps.flat_index({g, channel.src});
      const std::size_t dst = apps.flat_index({g, channel.dst});
      const bool remote =
          mapping.processor_of_flat(src) != mapping.processor_of_flat(dst);
      if (remote && options_.bus_contention &&
          arch.transfer_time(channel.size_bytes) > 0) {
        messages.push_back(
            {src, dst, arch.transfer_time(channel.size_bytes)});
      } else {
        const model::Time delay =
            remote ? arch.transfer_time(channel.size_bytes) : 0;
        in_edges[dst].push_back(InEdge{src, delay});
      }
    }
  }

  total_ = n_ + messages.size();
  const std::uint32_t bus_pe =
      static_cast<std::uint32_t>(arch.processor_count());

  pe_ref_.resize(n_);
  period_.resize(total_);
  graph_of_.resize(total_);
  in_edges.resize(total_);
  std::vector<std::uint32_t> pe_of(total_);
  std::vector<std::uint64_t> rank(total_);

  for (std::size_t i = 0; i < n_; ++i) {
    const model::TaskRef ref = apps.task_ref(i);
    pe_ref_[i] = &arch.processor(mapping.processor_of_flat(i));
    period_[i] = apps.graph(ref.graph_id()).period();
    graph_of_[i] = ref.graph;
    pe_of[i] = mapping.processor_of_flat(i).value;
    rank[i] = priorities[i];
  }
  message_src_.resize(messages.size());
  message_transfer_.resize(messages.size());
  for (std::size_t q = 0; q < messages.size(); ++q) {
    const std::size_t node = n_ + q;
    const Message& message = messages[q];
    message_src_[q] = message.src;
    message_transfer_[q] = message.transfer;
    period_[node] = period_[message.src];
    graph_of_[node] = graph_of_[message.src];
    pe_of[node] = bus_pe;
    // Messages inherit the producer's priority; the edge index keeps bus
    // ranks unique (only bus nodes are ever compared with each other).
    rank[node] = (static_cast<std::uint64_t>(priorities[message.src]) << 16) |
                 q;
    in_edges[node].push_back(InEdge{message.src, 0});
    in_edges[message.dst].push_back(InEdge{node, 0});
  }
  in_edges_ = std::move(in_edges);

  interferers_.resize(total_);
  for (std::size_t i = 0; i < total_; ++i)
    for (std::size_t u = 0; u < total_; ++u)
      if (u != i && pe_of[u] == pe_of[i] && rank[u] < rank[i])
        interferers_[i].push_back(u);

  // Successor lists drive the relation DFS, the topological sort, and the
  // worklist dependency edges.
  std::vector<std::vector<std::size_t>> succs(total_);
  for (std::size_t i = 0; i < total_; ++i)
    for (const InEdge& edge : in_edges_[i]) succs[edge.src].push_back(i);

  // Transitive reachability over the precedence edges (u ~ i iff u reaches
  // i or i reaches u), packed as one bitset row per node.  Edges only exist
  // within a graph, so this is the same-graph relation the interference
  // refinement needs; it also covers message nodes under bus contention.
  words_ = (total_ + 63) / 64;
  related_bits_.assign(total_ * words_, 0);
  auto set_related = [&](std::size_t a, std::size_t b) {
    related_bits_[a * words_ + (b >> 6)] |= std::uint64_t{1} << (b & 63);
  };
  std::vector<std::size_t> stack;
  std::vector<std::uint8_t> seen(total_, 0);
  for (std::size_t s = 0; s < total_; ++s) {
    std::fill(seen.begin(), seen.end(), 0);
    stack.assign(1, s);
    seen[s] = 1;
    while (!stack.empty()) {
      const std::size_t v = stack.back();
      stack.pop_back();
      for (const std::size_t w : succs[v]) {
        if (seen[w]) continue;
        seen[w] = 1;
        set_related(s, w);
        set_related(w, s);
        stack.push_back(w);
      }
    }
  }

  // Kahn topological order over the precedence DAG (task graphs are
  // validated acyclic at construction; message nodes split existing edges,
  // so the flattened graph stays a DAG — the throw is a safety net).
  std::vector<std::size_t> indegree(total_, 0);
  for (std::size_t i = 0; i < total_; ++i) indegree[i] = in_edges_[i].size();
  topo_order_.reserve(total_);
  for (std::size_t i = 0; i < total_; ++i)
    if (indegree[i] == 0) topo_order_.push_back(i);
  for (std::size_t head = 0; head < topo_order_.size(); ++head) {
    const std::size_t v = topo_order_[head];
    for (const std::size_t w : succs[v])
      if (--indegree[w] == 0) topo_order_.push_back(w);
  }
  if (topo_order_.size() != total_)
    throw std::invalid_argument("HolisticAnalysis: precedence cycle");

  // Input set of each node's worst-case equation as explicit lists (self
  // excluded, duplicates deduped) for the cross-lane sharing test.
  input_offsets_.assign(total_ + 1, 0);
  input_nodes_.clear();
  for (std::size_t i = 0; i < total_; ++i) {
    const std::size_t begin = input_nodes_.size();
    for (const InEdge& edge : in_edges_[i])
      input_nodes_.push_back(static_cast<std::uint32_t>(edge.src));
    for (const std::size_t u : interferers_[i])
      input_nodes_.push_back(static_cast<std::uint32_t>(u));
    std::sort(input_nodes_.begin() + begin, input_nodes_.end());
    input_nodes_.erase(
        std::unique(input_nodes_.begin() + begin, input_nodes_.end()),
        input_nodes_.end());
    input_offsets_[i + 1] = static_cast<std::uint32_t>(input_nodes_.size());
  }

  // Worklist dependency edges: node i's worst-case equation reads the
  // windows of its precedence predecessors (arrival) and of every
  // higher-priority same-PE node (interference) — so a change to node u
  // must re-queue u's successors and the nodes u interferes with.
  dependents_.resize(total_);
  for (std::size_t i = 0; i < total_; ++i)
    for (const InEdge& edge : in_edges_[i]) dependents_[edge.src].push_back(i);
  for (std::size_t i = 0; i < total_; ++i)
    for (const std::size_t u : interferers_[i]) dependents_[u].push_back(i);
  for (std::vector<std::size_t>& deps : dependents_) {
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  }

  horizon_ = options_.horizon_hyperperiods * apps.hyperperiod();
}

void PreparedProblem::load_lanes(
    std::span<const std::span<const ExecBounds>> scenarios, Lanes& b) const {
  const std::size_t lanes = scenarios.size();
  const std::size_t cells = total_ * lanes;
  b.c_min.resize(cells);
  b.c_max.resize(cells);
  b.release_cutoff.resize(cells);
  b.min_start.resize(cells);
  b.min_finish.resize(cells);
  b.max_arrival.resize(cells);
  b.max_finish.resize(cells);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::span<const ExecBounds> bounds = scenarios[lane];
    if (bounds.size() != n_)
      throw std::invalid_argument("HolisticAnalysis: bounds size mismatch");
    const std::size_t off = lane * total_;
    for (std::size_t i = 0; i < n_; ++i) {
      if (bounds[i].bcet < 0 || bounds[i].wcet < bounds[i].bcet)
        throw std::invalid_argument("HolisticAnalysis: invalid ExecBounds");
      b.c_min[off + i] = hardening::scaled_time(*pe_ref_[i], bounds[i].bcet);
      b.c_max[off + i] = hardening::scaled_time(*pe_ref_[i], bounds[i].wcet);
      // Cutoffs at or beyond kUnschedulable are indistinguishable from "no
      // cutoff": release times the operator can actually probe are bounded
      // by start + window + period, far below the sentinel band.  Folding
      // them onto one value lets the sharing and dedup tests treat
      // kNoCutoff and a diverged trigger window as the same parameter.
      b.release_cutoff[off + i] =
          std::min(bounds[i].release_cutoff, kUnschedulable);
    }
    for (std::size_t q = 0; q < message_src_.size(); ++q) {
      const std::size_t node = off + n_ + q;
      const std::size_t src = off + message_src_[q];
      // A message exists exactly when its producer runs; zero-size producer
      // bounds (dropped / inactive tasks) silence the message too.
      b.c_min[node] = b.c_min[src] == 0 ? 0 : message_transfer_[q];
      b.c_max[node] = b.c_max[src] == 0 ? 0 : message_transfer_[q];
      b.release_cutoff[node] = b.release_cutoff[src];
    }

    // Best case: interference-free longest path, exact in one topological
    // pass (the original swept to stability, but the DAG fixed point is
    // unique and a topo pass reaches it directly).
    for (const std::size_t i : topo_order_) {
      model::Time ready = 0;
      for (const InEdge& edge : in_edges_[i])
        ready = std::max(ready, b.min_finish[off + edge.src] + edge.delay);
      b.min_start[off + i] = ready;
      b.min_finish[off + i] = ready + b.c_min[off + i];
    }
    for (std::size_t i = 0; i < total_; ++i) {
      // Release grids are fixed once the best-case pass has pinned
      // min_start, so cutoffs can be folded onto their canonical
      // (last-release) values — behavior-preserving, see canonical_cutoff.
      b.release_cutoff[off + i] = canonical_cutoff(
          b.release_cutoff[off + i], b.min_start[off + i], period_[i],
          horizon_);
      // Worst-case iteration starts from the best-case solution, exactly
      // like the reference sweep.
      b.max_arrival[off + i] = b.min_start[off + i];
      b.max_finish[off + i] = b.min_finish[off + i];
    }
  }
}

// One worst-case re-evaluation of node i — the exact operator of the
// original monolithic kernel (see holistic.hpp for the formulation):
//
// Offset-aware: all graphs release in phase, so every job of every task
// lives in an absolute window [k*T_u + minStart_u, k*T_u + maxFinish_u]
// relative to the common release.  A job (u, k) can steal CPU inside
// [S, S + w) only if it may be unfinished at S and may arrive before the
// window closes; same-graph precedence excludes the k = 0 job of transitive
// predecessors and successors.  If the single-instance response exceeds the
// task's own period, the offset argument for self-interference breaks and
// the task falls back to the classical jitter-based busy window, which is
// unconditionally safe.  Note the operator is NOT monotone in the node's
// arrival (a later window start can exclude whole interfering jobs), so the
// global fixed point depends on evaluation order; the lane driver and the
// reference sweep both use the flat evaluation order.
PreparedProblem::UpdateOutcome PreparedProblem::update_node(
    std::size_t i, Lanes& b, std::size_t off) const {
  const bool offset_aware = options_.precedence_aware;
  const model::Time horizon = horizon_;
  UpdateOutcome outcome;

  // This lane's cells are contiguous from `off`.
  const auto c_max = [&](std::size_t u) { return b.c_max[off + u]; };
  const auto release_cutoff = [&](std::size_t u) {
    return b.release_cutoff[off + u];
  };
  const auto min_start = [&](std::size_t u) { return b.min_start[off + u]; };
  const auto max_arrival = [&](std::size_t u) {
    return b.max_arrival[off + u];
  };
  const auto max_finish = [&](std::size_t u) { return b.max_finish[off + u]; };

  // Release jitter of a task: the width of its ready-time band.
  const auto jitter = [&](std::size_t u) {
    return max_arrival(u) - min_start(u);
  };

  // --- Classical jitter-based bound (fallback / offset_aware == false) ---
  const auto jitter_interference = [&](model::Time w) {
    model::Time total = 0;
    for (const std::size_t u : interferers_[i]) {
      if (c_max(u) == 0) continue;
      total += ceil_div(w + jitter(u), period_[u]) * c_max(u);
    }
    return total;
  };

  const auto solve_jitter_window = [&](model::Time base) {
    model::Time w = base;
    for (std::size_t iter = 0; iter < options_.max_inner_iterations; ++iter) {
      const model::Time next = base + jitter_interference(w);
      if (next == w) return w;
      w = next;
      if (w > horizon) return horizon + 1;
    }
    return horizon + 1;
  };

  const auto jitter_fallback = [&](model::Time arrival) {
    const model::Time busy = solve_jitter_window(c_max(i));
    const model::Time own_jobs =
        busy > horizon
            ? 1
            : ceil_div(busy + (arrival - min_start(i)), period_[i]);
    model::Time best = 0;
    for (model::Time q = 0; q < own_jobs; ++q) {
      const model::Time w = solve_jitter_window((q + 1) * c_max(i));
      if (w > horizon) return horizon + 1;
      best = std::max(best, w + arrival - q * period_[i]);
    }
    return best;
  };

  // --- Offset-aware bound: interference on i inside [start, start + w). ---
  const auto offset_interference = [&](model::Time start, model::Time w) {
    model::Time total = 0;
    for (const std::size_t u : interferers_[i]) {
      if (c_max(u) == 0) continue;
      const bool same_graph_related =
          graph_of_[u] == graph_of_[i] && related(i, u);
      const model::Time t_u = period_[u];
      // Jobs whose activity window can overlap [start, start + w).
      const model::Time k_end =
          (start + w - min_start(u) + t_u - 1) / t_u;
      for (model::Time k = 0; k < k_end; ++k) {
        if (same_graph_related && k == 0) continue;
        // Dropped applications release no further instances once the
        // critical-state transition is complete.
        if (k * t_u + min_start(u) > release_cutoff(u)) continue;
        if (k * t_u + max_finish(u) <= start) continue;
        if (k * t_u + min_start(u) >= start + w) break;
        total += c_max(u);
      }
    }
    return total;
  };

  const auto solve_offset_window = [&](model::Time start) {
    model::Time w = c_max(i);
    for (std::size_t iter = 0; iter < options_.max_inner_iterations; ++iter) {
      const model::Time next = c_max(i) + offset_interference(start, w);
      if (next == w) return w;
      w = next;
      if (w > horizon) return horizon + 1;
    }
    return horizon + 1;
  };

  const auto offset_finish = [&](model::Time arrival) {
    // For preemptive fixed priorities the completion of a job is monotone
    // in its arrival (a later arrival can only see less available CPU), so
    // the latest ready time is the worst-case window start.
    const model::Time w = solve_offset_window(arrival);
    if (w > horizon) return horizon + 1;
    return arrival + w;
  };

  model::Time arrival = 0;
  for (const InEdge& edge : in_edges_[i])
    arrival = std::max(arrival, max_finish(edge.src) + edge.delay);
  if (arrival > horizon) {
    outcome.diverged = true;
    arrival = horizon + 1;
  }

  model::Time finish;
  if (c_max(i) == 0) {
    // Zero-length (dropped / inactive) tasks complete upon readiness.
    finish = arrival;
  } else if (arrival > horizon) {
    finish = horizon + 1;
  } else {
    finish = offset_aware ? offset_finish(arrival) : jitter_fallback(arrival);
    // Self re-arrival: beyond one period the offset argument for the
    // analyzed job no longer holds; use the jitter-based bound.
    if (offset_aware && finish > period_[i])
      finish = std::max(finish, jitter_fallback(arrival));
    if (finish > horizon) {
      outcome.diverged = true;
      finish = horizon + 1;
    }
  }

  outcome.raw_changed =
      arrival != max_arrival(i) || finish != max_finish(i);
  if (outcome.raw_changed) {
    // Non-decreasing updates only (guarded max), as in the reference sweep.
    const model::Time new_arrival = std::max(max_arrival(i), arrival);
    const model::Time new_finish = std::max(max_finish(i), finish);
    outcome.stored_changed = new_arrival != max_arrival(i) ||
                             new_finish != max_finish(i);
    b.max_arrival[off + i] = new_arrival;
    b.max_finish[off + i] = new_finish;
    // Computed window still below the ratcheted state: with unchanged
    // inputs this node will report raw_changed on every future visit.
    outcome.sticky = arrival != new_arrival || finish != new_finish;
  }
  return outcome;
}

AnalysisResult PreparedProblem::solve(
    std::span<const ExecBounds> bounds) const {
  const std::span<const ExecBounds> one[] = {bounds};
  AnalysisResult result;
  solve_many(one, std::span<AnalysisResult>(&result, 1));
  return result;
}

void PreparedProblem::solve_many(
    std::span<const std::span<const ExecBounds>> scenarios,
    std::span<AnalysisResult> results) const {
  if (scenarios.size() != results.size())
    throw std::invalid_argument("solve_many: scenario/result size mismatch");
  const std::size_t lanes = scenarios.size();
  if (lanes == 0) return;
  Lanes& b = thread_lanes();
  load_lanes(scenarios, b);

  std::uint64_t evals = 0, skips = 0, sticky_hits = 0, shared = 0;

  // ---- Driver state ------------------------------------------------------
  // Lane-major cells: each lane's state is contiguous, so one lane's
  // evaluation walks memory like a scalar solver (the dominant access
  // pattern).  Cross-lane compares touch two contiguous regions instead.
  const std::size_t cells = total_ * lanes;
  b.dirty.assign(cells, 1);
  b.sticky.assign(cells, 0);
  b.lane_active.assign(lanes, 1);
  b.lane_round_stable.assign(lanes, 1);
  b.lane_diverged.assign(lanes, 0);
  b.lane_exhausted.assign(lanes, 0);
  b.dirty_count.assign(lanes, total_);
  b.sticky_count.assign(lanes, 0);
  b.node_dirty.assign(total_, static_cast<std::uint32_t>(lanes));
  b.node_sticky.assign(total_, 0);
  std::size_t active_count = lanes;

  // ---- Post-fold lane dedup ----------------------------------------------
  // The canonical fold collapses scenarios that differed only in
  // behavior-equivalent cutoffs onto bitwise-equal parameter sets, and the
  // solve is a pure function of (c_min, c_max, release_cutoff): equal
  // parameters mean an identical solution.  Solve the first lane of each
  // class and copy its finished solution into the others at finalization.
  // Signatures gate the quadratic scan so distinct lanes cost one hash.
  constexpr std::uint32_t kNoDup = std::numeric_limits<std::uint32_t>::max();
  b.dup_of.assign(lanes, kNoDup);
  std::uint64_t dup_lanes = 0;
  if (lanes > 1) {
    b.lane_sig.assign(lanes, 0);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::size_t off = lane * total_;
      b.lane_sig[lane] = util::fnv1a_stream(
          total_, [&](util::Fnv1aHasher& hasher, std::size_t i) {
            hasher.feed(b.c_min[off + i]);
            hasher.feed(b.c_max[off + i]);
            hasher.feed(b.release_cutoff[off + i]);
          });
    }
    for (std::size_t lane = 1; lane < lanes; ++lane) {
      const std::size_t off = lane * total_;
      for (std::size_t prev = 0; prev < lane; ++prev) {
        if (!b.lane_active[prev] || b.lane_sig[prev] != b.lane_sig[lane])
          continue;
        const std::size_t poff = prev * total_;
        bool same = true;
        for (std::size_t i = 0; i < total_ && same; ++i)
          same = b.c_min[off + i] == b.c_min[poff + i] &&
                 b.c_max[off + i] == b.c_max[poff + i] &&
                 b.release_cutoff[off + i] == b.release_cutoff[poff + i];
        if (!same) continue;
        b.dup_of[lane] = static_cast<std::uint32_t>(prev);
        b.lane_active[lane] = 0;
        b.dirty_count[lane] = 0;
        --active_count;
        ++dup_lanes;
        break;
      }
    }
    // Retired lanes' never-visited dirty bits must not be counted, or the
    // per-node totals would never reach the all-clear fast path.
    if (dup_lanes > 0)
      b.node_dirty.assign(total_, static_cast<std::uint32_t>(active_count));
  }

  // ---- Joint round loop ---------------------------------------------------
  // Change-driven rounds in the reference sweep's flat order: a round
  // re-evaluates only the nodes whose inputs (the stored windows of their
  // precedence predecessors and interferers) changed since their last
  // visit.  Skipped evaluations are exactly the ones that are no-ops in the
  // reference sweep — unchanged inputs reproduce the previous computed
  // window, which the guarded max already absorbed — so the stored-state
  // trajectory, round for round, is identical to sweeping every node.
  // Within a round the ascending scan preserves the sweep's Gauss-Seidel
  // visibility: when node u's stored window changes, readers with a higher
  // flat index are picked up later in the same round, lower ones next
  // round, exactly as the full sweep would see them.
  //
  // All lanes advance through the same round index; a lane whose round
  // certifies stability retires.  Keep iterating even after a divergence:
  // values clamp at horizon + 1, so the rounds still stabilize, and tasks
  // not involved in the overload (e.g. high-priority critical graphs above
  // diverging dropped ones) retain trustworthy fixed-point bounds.
  for (std::size_t outer = 0;
       outer < options_.max_outer_iterations && active_count > 0; ++outer) {
    for (std::size_t lane = 0; lane < lanes; ++lane)
      if (b.lane_active[lane]) b.lane_round_stable[lane] = 1;
    for (std::size_t i = 0; i < total_; ++i) {
      // Cross-lane sharing: the last lane that produced an outcome at this
      // (round, node).  During one position only node i's own cells mutate,
      // so a later lane whose input values all equal the reference lane's
      // (pre-evaluation values for i itself) would compute the exact same
      // thing — copy the outcome instead.
      constexpr std::size_t kNoRef = std::numeric_limits<std::size_t>::max();
      std::size_t ref_lane = kNoRef;
      model::Time ref_pre_arrival = 0, ref_pre_finish = 0;
      UpdateOutcome ref_outcome;
      // All-clear fast path: when no lane has a dirty or sticky bit here,
      // every active lane would take the skip branch with no side effect
      // beyond the `skips` tally — take it for all of them in one test.
      const bool position_live =
          b.node_dirty[i] != 0 || b.node_sticky[i] != 0;
      if (!position_live) skips += active_count;
      for (std::size_t lane = 0; position_live && lane < lanes; ++lane) {
        if (!b.lane_active[lane]) continue;
        const std::size_t x = lane * total_ + i;
        if (!b.dirty[x]) {
          ++skips;
          if (b.sticky[x]) {
            ++sticky_hits;
            b.lane_round_stable[lane] = 0;
          }
          continue;
        }
        b.dirty[x] = 0;
        --b.dirty_count[lane];
        --b.node_dirty[i];
        const model::Time pre_arrival = b.max_arrival[x];
        const model::Time pre_finish = b.max_finish[x];
        UpdateOutcome outcome;
        bool copied = false;
        if (ref_lane != kNoRef) {
          const std::size_t r = ref_lane * total_ + i;
          bool same = b.c_max[x] == b.c_max[r] &&
                      b.release_cutoff[x] == b.release_cutoff[r] &&
                      b.min_start[x] == b.min_start[r] &&
                      pre_arrival == ref_pre_arrival &&
                      pre_finish == ref_pre_finish;
          for (std::uint32_t e = input_offsets_[i];
               same && e < input_offsets_[i + 1]; ++e) {
            const std::size_t u = input_nodes_[e];
            const std::size_t ux = lane * total_ + u;
            const std::size_t ur = ref_lane * total_ + u;
            // Stored windows first: they diverge between lanes far more
            // often than the load-time parameters, so mismatches exit here.
            same = b.max_finish[ux] == b.max_finish[ur] &&
                   b.max_arrival[ux] == b.max_arrival[ur] &&
                   b.c_max[ux] == b.c_max[ur] &&
                   b.release_cutoff[ux] == b.release_cutoff[ur] &&
                   b.min_start[ux] == b.min_start[ur];
          }
          if (same) {
            outcome = ref_outcome;
            if (outcome.stored_changed) {
              b.max_arrival[x] = b.max_arrival[r];
              b.max_finish[x] = b.max_finish[r];
            }
            copied = true;
            ++shared;
          }
        }
        if (!copied) {
          ++evals;
          outcome = update_node(i, b, lane * total_);
        }
        ref_lane = lane;
        ref_pre_arrival = pre_arrival;
        ref_pre_finish = pre_finish;
        ref_outcome = outcome;
        if (outcome.diverged) b.lane_diverged[lane] = 1;
        if (outcome.raw_changed) b.lane_round_stable[lane] = 0;
        if (outcome.sticky != (b.sticky[x] != 0)) {
          b.sticky[x] = outcome.sticky ? 1 : 0;
          outcome.sticky ? ++b.sticky_count[lane] : --b.sticky_count[lane];
          outcome.sticky ? ++b.node_sticky[i] : --b.node_sticky[i];
        }
        if (outcome.stored_changed) {
          for (const std::size_t dep : dependents_[i]) {
            const std::size_t y = lane * total_ + dep;
            if (!b.dirty[y]) {
              b.dirty[y] = 1;
              ++b.dirty_count[lane];
              ++b.node_dirty[dep];
            }
          }
        }
      }
    }
    // Round verdicts per lane.  A retired lane's leftover dirty/sticky bits
    // are released from the per-node totals (they would never be visited
    // again) so the all-clear fast path keeps firing for the lanes still
    // running.
    auto release_lane_bits = [&](std::size_t lane) {
      const std::size_t off = lane * total_;
      for (std::size_t i = 0; i < total_; ++i) {
        if (b.dirty[off + i]) {
          b.dirty[off + i] = 0;
          --b.node_dirty[i];
        }
        if (b.sticky[off + i]) {
          b.sticky[off + i] = 0;
          --b.node_sticky[i];
        }
      }
    };
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (!b.lane_active[lane]) continue;
      if (b.lane_round_stable[lane] != 0) {
        b.lane_active[lane] = 0;
        --active_count;
        release_lane_bits(lane);
        continue;
      }
      if (b.dirty_count[lane] != 0) continue;
      // No dirty work left.  "Sticky" nodes (computed window below the
      // ratcheted stored state) are the one case where the reference sweep
      // re-reports instability without changing any value: with sticky
      // nodes left, every remaining reference round is a no-op that is not
      // stable, so the sweep burns its whole round budget and diverges —
      // take that verdict now.  Without, the next round is the cheap
      // all-skip confirmation — certifying iff it still fits the budget.
      b.lane_active[lane] = 0;
      --active_count;
      release_lane_bits(lane);
      if (b.sticky_count[lane] != 0 ||
          outer + 1 >= options_.max_outer_iterations)
        b.lane_exhausted[lane] = 1;
    }
  }

  // ---- Per-lane finalization ---------------------------------------------
  std::uint64_t diverged_lanes = 0;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    if (b.dup_of[lane] != kNoDup) {
      // The class primary has a lower index, so its state (including any
      // divergence fill) is already final — copy it wholesale.
      const std::size_t p = b.dup_of[lane];
      const std::size_t off = lane * total_, poff = p * total_;
      for (std::size_t i = 0; i < total_; ++i) {
        b.max_arrival[off + i] = b.max_arrival[poff + i];
        b.max_finish[off + i] = b.max_finish[poff + i];
      }
      b.lane_diverged[lane] = b.lane_diverged[p];
      b.lane_active[lane] = 0;
      b.lane_exhausted[lane] = 0;
    }
    bool diverged = b.lane_diverged[lane] != 0;
    if (b.lane_active[lane] || b.lane_exhausted[lane]) {
      // Round budget exhausted (or provably would be) without certifying a
      // fixed point: no value is trustworthy.
      diverged = true;
      for (std::size_t i = 0; i < total_; ++i)
        b.max_finish[lane * total_ + i] = horizon_ + 1;
    }
    b.lane_diverged[lane] = diverged ? 1 : 0;
    if (diverged) ++diverged_lanes;
    materialize(b, lane, diverged, results[lane]);
  }

  KernelCounters& counters = kernel_counters();
  counters.solves.add(lanes);
  counters.diverged.add(diverged_lanes);
  counters.worklist_evals.add(evals);
  counters.worklist_skips.add(skips);
  counters.sticky_hits.add(sticky_hits);
  counters.batch_solves.add(1);
  counters.batch_lanes.add(lanes);
  counters.batch_dups.add(dup_lanes);
  counters.batch_shared.add(shared);
}

AnalysisResult PreparedProblem::solve_reference_sweep(
    std::span<const ExecBounds> bounds) const {
  // The original full sweep over all nodes in flat order until a sweep
  // changes nothing (or the budget runs out), on a private one-lane state.
  Lanes b;
  const std::span<const ExecBounds> one[] = {bounds};
  load_lanes(one, b);
  std::uint64_t evals = 0;
  bool diverged = false;
  bool stable = false;
  for (std::size_t outer = 0;
       outer < options_.max_outer_iterations && !stable; ++outer) {
    stable = true;
    for (std::size_t i = 0; i < total_; ++i) {
      ++evals;
      const UpdateOutcome outcome = update_node(i, b, 0);
      if (outcome.diverged) diverged = true;
      if (outcome.raw_changed) stable = false;
    }
  }
  if (!stable) {
    diverged = true;
    std::fill(b.max_finish.begin(), b.max_finish.end(), horizon_ + 1);
  }
  KernelCounters& counters = kernel_counters();
  counters.sweep_evals.add(evals);
  counters.solves.add(1);
  if (diverged) counters.diverged.add(1);
  AnalysisResult result;
  materialize(b, 0, diverged, result);
  return result;
}

void PreparedProblem::materialize(const Lanes& b, std::size_t lane,
                                  bool diverged,
                                  AnalysisResult& result) const {
  result.windows.assign(n_, TaskWindow{});
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t x = lane * total_ + i;
    TaskWindow& window = result.windows[i];
    window.min_start = b.min_start[x];
    window.min_finish = b.min_finish[x];
    window.max_start = b.max_arrival[x];
    window.max_finish = b.max_finish[x];
    window.schedulable = b.max_finish[x] <= horizon_;
    if (!window.schedulable) window.max_finish = kUnschedulable;
  }
  result.schedulable = !diverged;
}

PreparedProblem::Lanes& PreparedProblem::thread_lanes() {
  thread_local Lanes lanes;
  return lanes;
}

}  // namespace ftmc::sched
