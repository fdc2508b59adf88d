//===- Workloads.h - The benchmark's workloads -------------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry points of the four workloads (README.md says why each exists).
/// Each generates its inputs from the seed, sets up cold several times,
/// then either measures end to end for the configured seconds or, when
/// tracing, times calls into each layer's public functions from outside.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Report.h"

#include <cstdint>

namespace perfbench {

/// Smith-Waterman under BLOSUM62 with linear gap penalty 4; sw_db,
/// sw_long and serve_mixed all run this program.
inline constexpr const char *SmithWatermanSource =
    "int sw(matrix[protein] m, seq[protein] a, index[a] i,\n"
    "       seq[protein] b, index[b] j) =\n"
    "  if i == 0 then 0\n"
    "  else if j == 0 then 0\n"
    "  else 0 max (sw(i-1, j-1) + m[a[i-1], b[j-1]])\n"
    "       max (sw(i-1, j) - 4) max (sw(i, j-1) - 4)\n";

/// The RNG seed of one workload's inputs: the run's seed mixed with a
/// per-workload salt, so workloads draw unrelated inputs from one seed.
inline uint64_t mixSeed(uint64_t Seed, uint64_t Salt) {
  return (Seed + 1) * 0x9E3779B97F4A7C15ull ^ Salt;
}

/// sw_db, profile_forward and sw_long: one database search (or one long
/// alignment) through CompiledRecurrence with the native JIT.
Outcome runBatchWorkload(const RunConfig &Config);

/// serve_mixed: an open loop of seeded Poisson arrivals through
/// serve::Router.
Outcome runServeWorkload(const RunConfig &Config);

/// True for a workload name runBatchWorkload accepts.
bool isBatchWorkload(const std::string &Name);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
