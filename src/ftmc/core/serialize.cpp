#include "ftmc/core/serialize.hpp"

namespace ftmc::core {

// Field order and widths are frozen: ftmc.ckpt.v1 snapshots and evaluation
// store logs written by older builds decode against this exact layout.

void write_candidate(util::ByteWriter& out, const Candidate& candidate) {
  out.bits(candidate.allocation);
  out.bits(candidate.drop);
  out.size(candidate.plan.size());
  for (const hardening::TaskHardening& task : candidate.plan) {
    out.u8(static_cast<std::uint8_t>(task.technique));
    out.i64(task.reexecutions);
    out.size(task.replica_pes.size());
    for (model::ProcessorId pe : task.replica_pes) out.u32(pe.value);
    out.u32(task.voter_pe.value);
  }
  out.size(candidate.base_mapping.size());
  for (model::ProcessorId pe : candidate.base_mapping) out.u32(pe.value);
}

std::vector<std::uint8_t> encode_candidate(const Candidate& candidate) {
  util::ByteWriter out;
  write_candidate(out, candidate);
  return out.take();
}

Candidate read_candidate(util::ByteReader& in) {
  Candidate candidate;
  candidate.allocation = in.bits();
  candidate.drop = in.bits();
  const std::size_t plan = in.length(1 + 8 + 8 + 4);
  candidate.plan.resize(plan);
  for (hardening::TaskHardening& task : candidate.plan) {
    task.technique = static_cast<hardening::Technique>(in.u8());
    task.reexecutions = static_cast<int>(in.i64());
    const std::size_t replicas = in.length(4);
    task.replica_pes.resize(replicas);
    for (model::ProcessorId& pe : task.replica_pes)
      pe = model::ProcessorId{in.u32()};
    task.voter_pe = model::ProcessorId{in.u32()};
  }
  const std::size_t mapping = in.length(4);
  candidate.base_mapping.resize(mapping);
  for (model::ProcessorId& pe : candidate.base_mapping)
    pe = model::ProcessorId{in.u32()};
  return candidate;
}

void write_evaluation(util::ByteWriter& out, const Evaluation& evaluation) {
  out.u8(evaluation.mapping_valid ? 1 : 0);
  out.u8(evaluation.reliability_ok ? 1 : 0);
  out.u8(evaluation.normal_schedulable ? 1 : 0);
  out.u8(evaluation.critical_schedulable ? 1 : 0);
  out.f64(evaluation.power);
  out.f64(evaluation.service);
  out.size(evaluation.scenario_count);
  out.size(evaluation.scenario_solves);
  out.size(evaluation.graph_wcrt.size());
  for (model::Time wcrt : evaluation.graph_wcrt) out.i64(wcrt);
}

Evaluation read_evaluation(util::ByteReader& in) {
  Evaluation evaluation;
  evaluation.mapping_valid = in.u8() != 0;
  evaluation.reliability_ok = in.u8() != 0;
  evaluation.normal_schedulable = in.u8() != 0;
  evaluation.critical_schedulable = in.u8() != 0;
  evaluation.power = in.f64();
  evaluation.service = in.f64();
  evaluation.scenario_count = static_cast<std::size_t>(in.u64());
  evaluation.scenario_solves = static_cast<std::size_t>(in.u64());
  const std::size_t wcrt = in.length(8);
  evaluation.graph_wcrt.resize(wcrt);
  for (model::Time& value : evaluation.graph_wcrt) value = in.i64();
  return evaluation;
}

}  // namespace ftmc::core
