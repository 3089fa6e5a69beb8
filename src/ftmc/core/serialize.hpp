// Byte codecs for the core value types that cross process boundaries.
//
// Candidate and Evaluation are persisted by two independent formats — the
// ftmc.ckpt.v1 campaign snapshot (ftmc/dse/checkpoint.cpp) and the persistent
// evaluation store (ftmc/core/eval_store.cpp) — which must stay bitwise
// compatible with each other and with their existing on-disk artifacts.
// Keeping the field layout in exactly one place makes that a structural
// property instead of a convention.  The encoding is the little-endian field
// stream of util/byte_stream.hpp; doubles round-trip as IEEE-754 bit
// patterns, so a decoded Evaluation is bit-identical to the encoded one.
#pragma once

#include "ftmc/core/evaluator.hpp"
#include "ftmc/util/byte_stream.hpp"

namespace ftmc::core {

void write_candidate(util::ByteWriter& out, const Candidate& candidate);
Candidate read_candidate(util::ByteReader& in);

/// write_candidate's bytes alone: the canonical form EvaluationCache
/// entries hold and EvalStore records carry (equal bytes iff equal
/// candidates, since every sequence is length-prefixed).
std::vector<std::uint8_t> encode_candidate(const Candidate& candidate);

void write_evaluation(util::ByteWriter& out, const Evaluation& evaluation);
Evaluation read_evaluation(util::ByteReader& in);

}  // namespace ftmc::core
