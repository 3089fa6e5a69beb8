// The benchmark's workloads.  Each fills a Report from one seeded run:
// untraced runs report the end-to-end metrics, traced runs the per-layer
// metrics of layer_metrics().
#pragma once

#include "common.hpp"

namespace perfbench {

/// Worker threads of the GA workloads (and of the in-process checks and
/// replays): one.  On a shared host a run on every vCPU measures how many
/// cores the host grants at the moment (up to a third of the single-thread
/// speed per thread), not the program.
std::size_t workload_threads();

/// Threads of the untimed output checks: nproc, capped at 4.
std::size_t check_threads();

/// dse-eval-dtlarge and dse-select-synth1: in-process GA runs.
void run_dse(const Args& args, Report& report);

/// serve-worker-dtlarge: an in-process `serve::Server` under open-loop load.
void run_serve(const Args& args, Report& report);

}  // namespace perfbench
