//===- Plan.h - Immutable executable plans ------------------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The product of planning: everything derived from a recursion and a
/// concrete domain box *before* any cell is evaluated — the schedule
/// (Section 4.5–4.7), the sliding-window decision (Section 4.8) and the
/// CLooG-style loop nest (Section 4.3) with the box's parameter values —
/// captured in an immutable ExecutablePlan, which compiler::buildPlan
/// builds. Plans are keyed by PlanKey and memoised in a PlanCache so
/// repeated runs over same-shaped problems skip schedule synthesis and
/// loop generation entirely.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_EXEC_PLAN_H
#define PARREC_EXEC_PLAN_H

#include "exec/Table.h"
#include "poly/LoopGen.h"
#include "solver/Recurrence.h"

#include <memory>
#include <vector>

namespace parrec {
namespace codegen {
struct BytecodeProgram;
class JitKernel;
} // namespace codegen

namespace exec {

/// Identity of a plan: the domain box plus everything in the run request
/// that influences planning. Thread counts and cost models deliberately do
/// not appear — they only affect execution, never the plan.
struct PlanKey {
  std::vector<int64_t> Lower;
  std::vector<int64_t> Upper;
  /// Coefficients of an explicitly requested schedule (forced or
  /// preselected by conditional parallelisation); empty means "synthesise
  /// the minimal schedule for the box".
  std::vector<int64_t> RequestedSchedule;
  bool UseSlidingWindow = true;
  bool KeepTable = false;
  /// Whether the plan carries a native jitted kernel. A jitted and an
  /// uninstalled plan for the same box must not share a cache slot:
  /// a VM-first run would otherwise pin a kernel-less plan that every
  /// later --evaluator=jit run keeps hitting.
  bool Jit = false;

  friend bool operator==(const PlanKey &A, const PlanKey &B) = default;

  /// Stable FNV-1a style hash over all fields. serve::Router places
  /// requests on shards by it, so its values must not drift.
  uint64_t hash() const;

  static PlanKey make(const solver::DomainBox &Box, bool UseSlidingWindow,
                      bool KeepTable, const solver::Schedule *Requested,
                      bool Jit = false);
};

struct PlanKeyHash {
  size_t operator()(const PlanKey &K) const {
    return static_cast<size_t>(K.hash());
  }
};

/// The immutable product of planning: consumed by ExecutionBackends, safe
/// to share across threads and cache entries.
class ExecutablePlan {
public:
  solver::DomainBox Box;
  solver::Schedule Sched;
  /// The recursion's nest under Sched, the same for every box, and the
  /// box's values for its parameters (its extents; empty for none).
  poly::LoopNest Nest;
  std::vector<int64_t> NestParams;
  /// Inclusive partition (time-step) range of the scan.
  int64_t FirstPartition = 0;
  int64_t LastPartition = 0;
  /// Sliding-window decision: when UseWindow is set the table keeps only
  /// WindowDepth+1 partition planes and drops dimension WindowDropDim
  /// from plane addressing.
  bool UseWindow = false;
  int64_t WindowDepth = 0;
  unsigned WindowDropDim = 0;
  /// The partition containing the root point (every dimension at its
  /// upper bound); lets backends confine root-value capture to one
  /// partition instead of checking every cell.
  int64_t RootPartition = 0;
  /// The compiled cell body executed by the bytecode VM; null means the
  /// backend falls back to the AST evaluator. Shared across plans (and
  /// PlanCache hits), so cache hits skip compilation too.
  std::shared_ptr<const codegen::BytecodeProgram> Program;
  /// The natively jitted scan kernel (NativeJit.h); null when the jit
  /// pass did not run or fell back. Cached on the plan exactly like
  /// Program, so PlanCache hits skip C emission and compilation too.
  std::shared_ptr<const codegen::JitKernel> Kernel;

  int64_t numPartitions() const { return LastPartition - FirstPartition + 1; }

  /// Allocates the DP table this plan calls for, holding \p Lanes
  /// problems' tables interleaved (DpTable).
  std::shared_ptr<DpTable> makeTable(unsigned Lanes = 1) const;
};

} // namespace exec
} // namespace parrec

#endif // PARREC_EXEC_PLAN_H
