//===- Pipeline.cpp - Systolic cross-problem batch pipelining ---------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "gpu/Pipeline.h"

#include "obs/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <numeric>

using namespace parrec;
using namespace parrec::gpu;

PipelineProfile PipelineProfile::make(
    std::shared_ptr<const std::vector<PartitionSample>> Timeline,
    uint64_t TotalCycles) {
  PipelineProfile P;
  P.TotalCycles = TotalCycles;
  if (Timeline && !Timeline->empty())
    P.Timeline = std::move(Timeline);
  return P;
}

namespace {

size_t stageCount(const PipelineProfile &P) {
  return P.Timeline ? P.Timeline->size() : 1;
}

uint64_t stageCost(const PipelineProfile &P, size_t Stage) {
  if (!P.Timeline)
    return P.TotalCycles;
  const PartitionSample &S = (*P.Timeline)[Stage];
  return S.MaxThreadCycles + S.BarrierCycles;
}

} // namespace

PipelinePlanner::PipelinePlanner(const CostModel &Model,
                                 bool RecordStageStarts)
    : Model(Model), RecordStageStarts(RecordStageStarts),
      Mps(std::max(1u, Model.NumMultiprocessors)) {}

const PipelinePlacement &
PipelinePlanner::add(const PipelineProfile &Profile) {
  assert(!Finished && "add() after finish()");
  size_t Stages = stageCount(Profile);
  std::vector<uint64_t> Cost(Stages);
  for (size_t S = 0; S != Stages; ++S)
    Cost[S] = stageCost(Profile, S);
  uint64_t Serial =
      std::accumulate(Cost.begin(), Cost.end(), uint64_t{0});

  // Place the launch on the multiprocessor whose resulting finish is
  // earliest. A launch with fewer stages than a resident predecessor
  // can drain while the predecessor's deeper stages are still in
  // flight, so the candidate's finish is max(FinalFinish, Last), not
  // the new launch's own last stage alone; ties go to the lowest index
  // so the schedule is deterministic.
  unsigned Best = 0;
  uint64_t BestFinish = 0, BestKey = 0;
  std::vector<uint64_t> Finish(Stages), BestStageFinish;
  for (unsigned M = 0; M != Mps.size(); ++M) {
    const std::vector<uint64_t> &Prev = Mps[M].LastFinish;
    uint64_t Last = 0;
    for (size_t S = 0; S != Stages; ++S) {
      uint64_t Start = Last;
      if (S < Prev.size())
        Start = std::max(Start, Prev[S]);
      Last = Start + Cost[S];
      Finish[S] = Last;
    }
    uint64_t Key = std::max(Mps[M].FinalFinish, Last);
    if (!M || Key < BestKey) {
      Best = M;
      BestKey = Key;
      BestFinish = Last;
      BestStageFinish = Finish;
    }
  }

  PipelinePlacement &P = Placements.emplace_back();
  P.Multiprocessor = Best;
  P.CompletionCycles = BestFinish + Model.KernelLaunchCycles;
  if (RecordStageStarts) {
    P.StageStartCycles.resize(Stages);
    for (size_t S = 0; S != Stages; ++S)
      P.StageStartCycles[S] =
          BestStageFinish[S] - Cost[S] + Model.KernelLaunchCycles;
  }

  // Stage-finish entries of earlier launches beyond this launch's depth
  // are still live dependencies for deeper successors: carry them
  // forward, clamped to this launch's finish (the pipeline drains in
  // order), and never let the multiprocessor's finish regress.
  Multiprocessor &Mp = Mps[Best];
  for (size_t S = Stages; S < Mp.LastFinish.size(); ++S)
    BestStageFinish.push_back(std::max(Mp.LastFinish[S], BestFinish));
  Mp.LastFinish = std::move(BestStageFinish);
  Mp.FinalFinish = std::max(Mp.FinalFinish, BestFinish);
  Mp.SerialCycles += Serial;
  Mp.Used = true;
  return P;
}

void PipelinePlanner::finish() {
  assert(!Finished && "finish() called twice");
  Finished = true;

  uint64_t MaxFinish = 0;
  for (const Multiprocessor &Mp : Mps)
    if (Mp.Used)
      MaxFinish = std::max(MaxFinish, Mp.FinalFinish);
  Stats.MakespanCycles =
      numProblems() ? MaxFinish + Model.KernelLaunchCycles : 0;
  for (const Multiprocessor &Mp : Mps) {
    if (!Mp.Used)
      continue;
    // Back-to-back execution is feasible, so the pipelined finish never
    // exceeds the serial sum; the difference is the recovered overlap.
    uint64_t Overlap = Mp.SerialCycles - Mp.FinalFinish;
    uint64_t Idle = MaxFinish - Mp.FinalFinish;
    Stats.MultiprocessorFinish.push_back(Mp.FinalFinish);
    Stats.MultiprocessorOverlap.push_back(Overlap);
    Stats.MultiprocessorIdle.push_back(Idle);
    Stats.OverlapCycles += Overlap;
    Stats.IdleCycles += Idle;
  }
}

void gpu::emitBlockTimeline(unsigned Block,
                            const std::vector<PartitionSample> &Timeline,
                            const std::vector<uint64_t> &StageStarts,
                            uint64_t Problem) {
  if (!obs::Tracer::enabled())
    return;
  obs::Tracer &T = obs::Tracer::instance();
  size_t Stages = StageStarts.empty()
                      ? Timeline.size()
                      : std::min(Timeline.size(), StageStarts.size());
  uint64_t Start = 0;
  for (size_t I = 0; I != Stages; ++I) {
    const PartitionSample &S = Timeline[I];
    if (!StageStarts.empty())
      Start = StageStarts[I];
    obs::DeviceSlice Slice;
    Slice.Block = Block;
    Slice.Name = "p" + std::to_string(Problem) + " partition " +
                 std::to_string(S.Partition);
    Slice.StartCycles = Start;
    Slice.DurCycles = S.MaxThreadCycles;
    Slice.Args = {
        {"problem", std::to_string(Problem)},
        {"partition", std::to_string(S.Partition)},
        {"cells", std::to_string(S.Cells)},
        {"max_thread_cycles", std::to_string(S.MaxThreadCycles)},
        {"sum_thread_cycles", std::to_string(S.SumThreadCycles)},
        {"active_threads", std::to_string(S.ActiveThreads)},
        {"threads", std::to_string(S.Threads)},
    };
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.4f", S.occupancy());
    Slice.Args.push_back({"occupancy", Buf});
    T.recordDevice(std::move(Slice));
    if (S.BarrierCycles) {
      obs::DeviceSlice BarrierSlice;
      BarrierSlice.Block = Block;
      BarrierSlice.Name = "barrier";
      BarrierSlice.StartCycles = Start + S.MaxThreadCycles;
      BarrierSlice.DurCycles = S.BarrierCycles;
      BarrierSlice.Args = {{"problem", std::to_string(Problem)}};
      T.recordDevice(std::move(BarrierSlice));
    }
    Start += S.MaxThreadCycles + S.BarrierCycles;
  }
}
