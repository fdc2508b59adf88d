//===- Pipeline.h - Systolic cross-problem batch pipelining -------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Models systolic overlap between the problems of one batch. The barrier
/// dispatcher (Device::dispatchProblems) runs each problem's partitions
/// back-to-back on its multiprocessor; the pipeline planner instead lets
/// partition k+1 of problem i+1 start as soon as partition k of problem i
/// has released the multiprocessor's stage resource, so a problem's root
/// cell resolves — and its result can be published — long before the
/// batch drains. Each problem keeps its own launch on one
/// multiprocessor, as in the paper's map primitive.
///
/// The planner only re-times work that has already been executed: it
/// consumes per-partition timelines and never touches values, costs or
/// per-problem cycle totals, so every observable except the modelled
/// wall clock is bit-identical to the barrier path.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_GPU_PIPELINE_H
#define PARREC_GPU_PIPELINE_H

#include "gpu/Device.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

namespace parrec {
namespace gpu {

/// One problem's modelled execution profile, distilled from the
/// partition timeline its block timer recorded.
struct PipelineProfile {
  /// Per-partition samples; shared with the run result so profiling a
  /// batch does not copy timelines.
  std::shared_ptr<const std::vector<PartitionSample>> Timeline;
  /// The problem's serial cycle total (sum over partitions of
  /// max-thread + barrier cycles). Kept for cross-checking; the planner
  /// never alters it.
  uint64_t TotalCycles = 0;

  /// Builds a profile from a recorded timeline; an empty timeline
  /// degrades to a single opaque stage of \p TotalCycles.
  static PipelineProfile
  make(std::shared_ptr<const std::vector<PartitionSample>> Timeline,
       uint64_t TotalCycles);
};

/// Where one problem landed and when its result resolves. Cycles are
/// measured from batch start and include the kernel launch.
struct PipelinePlacement {
  /// Multiprocessor the problem's launch occupies.
  unsigned Multiprocessor = 0;
  /// Cycle at which the problem's root cell resolves.
  uint64_t CompletionCycles = 0;
  /// Per-partition start cycles, recorded only when the planner was
  /// asked for them (trace emission).
  std::vector<uint64_t> StageStartCycles;
};

/// Batch-level accounting, valid after PipelinePlanner::finish().
struct PipelineStats {
  /// Busiest-multiprocessor finish plus the kernel launch: the batch's
  /// modelled wall clock.
  uint64_t MakespanCycles = 0;
  /// Cycles saved by overlap, summed over multiprocessors: serial
  /// (back-to-back) cycles minus pipelined finish, per multiprocessor.
  uint64_t OverlapCycles = 0;
  /// Cycles multiprocessors idle waiting for the busiest one, summed.
  uint64_t IdleCycles = 0;
  /// Per used multiprocessor: pipelined finish cycle (launch excluded).
  std::vector<uint64_t> MultiprocessorFinish;
  /// Per used multiprocessor: serial minus pipelined cycles.
  std::vector<uint64_t> MultiprocessorOverlap;
  /// Per used multiprocessor: busiest finish minus own finish.
  std::vector<uint64_t> MultiprocessorIdle;
};

/// Plans the systolic execution of one batch. Problems are fed in
/// submission order via add(); the planner assigns each problem's launch
/// to the multiprocessor that finishes it earliest and times its
/// partitions with the tandem recurrence
///
///   finish(g, p) = max(finish(g, p-1), finish(prev, p)) + cost(g, p)
///
/// where prev is the launch previously placed on the same
/// multiprocessor: stage p of launch g may start once g's own stage p-1
/// is done *and* the predecessor has released stage p. Back-to-back
/// execution is always a feasible schedule, so a launch's makespan never
/// exceeds the barrier dispatcher's load for the same assignment; every
/// stage costs at least the barrier's SyncCycles, so two multi-partition
/// launches sharing a multiprocessor strictly overlap.
///
/// A placement is final the moment add() returns it — the hook serve
/// uses to resolve futures before the batch drains. All decisions are
/// deterministic in submission order.
class PipelinePlanner {
public:
  PipelinePlanner(const CostModel &Model, bool RecordStageStarts);

  /// Places the next problem (submission order) and returns its final
  /// placement, completion cycle included. The reference stays valid
  /// for the planner's lifetime.
  const PipelinePlacement &add(const PipelineProfile &Profile);

  /// Computes batch stats over every problem added so far.
  void finish();

  size_t numProblems() const { return Placements.size(); }

  const PipelinePlacement &placement(size_t Problem) const {
    return Placements[Problem];
  }

  /// Valid after finish().
  const PipelineStats &stats() const { return Stats; }

private:
  struct Multiprocessor {
    /// Per-stage finish cycles successors must wait on: the last
    /// launch's stages, plus carried-forward finishes of earlier
    /// launches that ran deeper than it.
    std::vector<uint64_t> LastFinish;
    /// Latest finish cycle over all launches placed here; monotone in
    /// placement order even when a short launch drains before its
    /// predecessor's deeper stages.
    uint64_t FinalFinish = 0;
    /// Sum of serial launch costs placed here (for overlap accounting).
    uint64_t SerialCycles = 0;
    bool Used = false;
  };

  CostModel Model;
  bool RecordStageStarts = false;

  std::deque<PipelinePlacement> Placements;
  std::vector<Multiprocessor> Mps;
  PipelineStats Stats;
  bool Finished = false;
};

/// Emits \p Timeline as per-partition slices on simulated-device lane
/// \p Block of the global tracer. Each partition starts at its
/// pipeline-planned cycle in \p StageStarts; empty \p StageStarts means
/// back to back from cycle 0 (a problem alone on its multiprocessor).
/// \p Problem labels the slices so problems pipelined on one block stay
/// distinguishable. No-op when tracing is disabled.
void emitBlockTimeline(unsigned Block,
                       const std::vector<PartitionSample> &Timeline,
                       const std::vector<uint64_t> &StageStarts = {},
                       uint64_t Problem = 0);

} // namespace gpu
} // namespace parrec

#endif // PARREC_GPU_PIPELINE_H
