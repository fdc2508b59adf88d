//===- Oracles.h - Independent reference results -----------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reference results the benchmark checks every output against. None of
/// them goes through the DSL compiler, its schedules or its evaluators:
/// Smith-Waterman and forward come from the hand-written baselines, and
/// Viterbi is a direct log-space transcription of its definition here.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLES_H
#define PERFBENCH_ORACLES_H

#include "bio/Hmm.h"
#include "bio/Sequence.h"

namespace perfbench {

/// Relative tolerance for log-space results: the program and the oracles
/// add the same logarithms in different orders.
constexpr double LogSpaceTolerance = 1e-9;

/// Smith-Waterman score under BLOSUM62 with linear gap penalty 4.
double smithWatermanOracle(const parrec::bio::Sequence &Query,
                           const parrec::bio::Sequence &Subject);

/// Forward log-likelihood at the end state (baselines::forwardCore).
double forwardOracle(const parrec::bio::Hmm &Model,
                     const parrec::bio::Sequence &Seq);

/// Log-space Viterbi value at the recursion's root point (last state,
/// whole sequence), written from the recurrence's definition:
/// V(s, 0) = [s is start]; V(s, i) = e_s(x[i-1]) * max over transitions
/// t into s of p(t) * V(from(t), i - 1), with the end state emitting 1.
double viterbiOracle(const parrec::bio::Hmm &Model,
                     const parrec::bio::Sequence &Seq);

/// True when \p Got matches \p Expected: exactly for integer scores,
/// within LogSpaceTolerance (relative) for log-space values; two -inf
/// values match.
bool matches(double Got, double Expected, bool Exact);

/// Feeds a deliberately corrupted expected value through matches() and
/// returns true when the corruption is caught, so a comparator that
/// accepts everything cannot make a run look correct.
bool oracleSelfCheck(double Got, bool Exact);

} // namespace perfbench

#endif // PERFBENCH_ORACLES_H
