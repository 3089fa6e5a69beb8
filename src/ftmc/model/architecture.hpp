// MPSoC architecture model: A := (P, nw).
//
// A set of (heterogeneous) processors connected by an on-chip fabric.  Fabric
// faults are assumed transparent (protected at link level, Section 2.1), so
// the fabric is characterized only by its bandwidth.  Each processor carries
// leakage/dynamic power and a constant transient-fault rate per time unit.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ftmc/model/ids.hpp"
#include "ftmc/model/time.hpp"

namespace ftmc::model {

/// One processing element of the MPSoC.
struct Processor {
  std::string name;
  /// Processor type tag (heterogeneity: tasks may run at different speeds on
  /// different types; a speed factor scales task execution times).
  std::uint32_t type = 0;
  /// Leakage power drawn whenever the processor is allocated [mW].
  double static_power = 0.0;
  /// Dynamic power at 100% utilization [mW]; scaled by average utilization.
  double dynamic_power = 0.0;
  /// Constant transient-fault rate per microsecond (lambda_p).
  double fault_rate = 0.0;
  /// Execution-time multiplier for this PE relative to nominal WCET/BCET
  /// annotations (1.0 = nominal; heterogeneous PEs deviate).
  double speed_factor = 1.0;
};

/// The platform: processors plus a shared communication fabric.
class Architecture {
 public:
  /// @param processors  at least one PE; names must be unique and non-empty.
  /// @param bandwidth_bytes_per_us  fabric bandwidth (bw_nw); > 0.
  Architecture(std::vector<Processor> processors,
               double bandwidth_bytes_per_us);

  std::size_t processor_count() const noexcept { return processors_.size(); }
  const Processor& processor(ProcessorId id) const {
    if (id.value >= processors_.size())
      throw std::out_of_range("Architecture::processor: bad id");
    return processors_[id.value];
  }
  const std::vector<Processor>& processors() const noexcept {
    return processors_;
  }

  double bandwidth() const noexcept { return bandwidth_; }

  /// Fabric latency for transferring `bytes` between two distinct PEs;
  /// zero for intra-PE communication (handled by callers).  Throws
  /// std::overflow_error when the latency does not fit in Time.
  Time transfer_time(std::uint64_t bytes) const;

 private:
  std::vector<Processor> processors_;
  double bandwidth_;
};

/// Builder for fluent platform construction in examples and benchmarks.
class ArchitectureBuilder {
 public:
  ArchitectureBuilder& add_processor(Processor processor);
  /// Adds `count` identical PEs suffixed _0.._{count-1}.
  ArchitectureBuilder& add_processors(const Processor& prototype,
                                      std::size_t count);
  ArchitectureBuilder& bandwidth(double bytes_per_us);
  Architecture build() const;

 private:
  std::vector<Processor> processors_;
  double bandwidth_ = 1000.0;  // 1 GB/s default
};

}  // namespace ftmc::model
