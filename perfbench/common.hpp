// Shared plumbing of the ftmc benchmark program: command-line arguments,
// timing and percentile helpers, the per-run report (end-to-end metrics,
// layer metrics, output-check failures) and scratch directories.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ftmc/util/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch root inside the checkout (temp dirs, stores, checkpoints).
  std::string work_dir = ".bench_build/work";
  std::string git_sha = "unknown";
};

/// util::percentile, but 0 for an empty sample.
inline double quantile(const std::vector<double>& samples, double q) {
  return samples.empty() ? 0.0 : ftmc::util::percentile(samples, q);
}
inline double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

/// The highest percentile of {50, 90, 95, 99, 99.9} that has at least ten
/// samples beyond it in a run of `planned` samples, so a tail figure never
/// rests on a handful of points and names the same percentile in every run
/// that takes at least `planned` samples.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;
};
Tail tail_of(const std::vector<double>& samples, std::size_t planned);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Everything a run reports.  `metrics` are the JSON metrics of the final
/// line; `lines` are the human-readable table printed above it.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  /// Per-layer metrics of a traced run, by layer_metrics() name.
  std::map<std::string, double> layers;
  std::vector<std::string> lines;

  /// Records a failed operation or output check (makes the run incorrect).
  void fail(const std::string& message);
  void metric(const std::string& name, double value, const std::string& unit);
  /// A human-readable line only (not part of the JSON result).
  void note(const std::string& name, double value, const std::string& unit,
            const std::string& comment = "");
  bool correct() const { return failures.empty(); }
};

/// A fresh directory under the scratch root, removed on destruction.
class ScratchDir {
 public:
  ScratchDir(const std::string& root, const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Per-layer metric names, in the order BENCHMARK.json lists them.  Every
/// traced run prints all of them; a layer a workload never enters reads 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

}  // namespace perfbench
