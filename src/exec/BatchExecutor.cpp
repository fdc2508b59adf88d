//===- BatchExecutor.cpp - Execute, dispatch and publish one batch ----------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "exec/BatchExecutor.h"

#include "exec/ParallelFor.h"
#include "gpu/Pipeline.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <optional>

using namespace parrec;
using namespace parrec::exec;

namespace {

/// Whether \p A and \p B may share a lanes scan: the same plan, the same
/// options but for the trace flow id, and the same arguments but for the
/// sequences (the same model and matrix objects, and ints and reals
/// equal bit for bit), so every lane takes the same path.
bool shareLanes(const BatchMember &A, const BatchMember &B) {
  if (A.Plan != B.Plan)
    return false;
  if (A.Options != B.Options) {
    RunOptions Flowless = *B.Options;
    Flowless.FlowId = A.Options->FlowId;
    if (!(*A.Options == Flowless))
      return false;
  }
  const std::vector<codegen::ParamClass> &Classes =
      A.Plan->Program->ParamClasses;
  for (size_t P = 0; P != Classes.size(); ++P) {
    const codegen::ArgValue &X = (*A.Args)[P], &Y = (*B.Args)[P];
    switch (Classes[P]) {
    case codegen::ParamClass::Unused:
    case codegen::ParamClass::Seq:
      break;
    case codegen::ParamClass::Matrix:
      if (X.Matrix != Y.Matrix)
        return false;
      break;
    case codegen::ParamClass::Hmm:
      if (X.Hmm != Y.Hmm)
        return false;
      break;
    case codegen::ParamClass::Int:
      if (X.Int != Y.Int)
        return false;
      break;
    case codegen::ParamClass::Real:
      if (std::bit_cast<uint64_t>(X.Real) != std::bit_cast<uint64_t>(Y.Real))
        return false;
      break;
    }
  }
  return true;
}

/// Splits a batch into the units its workers run, in the order of each
/// unit's first member: lanes scans of codegen::JitLanes members that
/// share them (shareLanes, in index order), and single members. A lanes
/// scan costs about two scalar scans, so a partial group would lose. A
/// key's members form groups only when there is one for every worker,
/// and the rest run alone: that side wins while a lanes scan costs under
/// 2.5 scalar scans. With fewer groups than workers, groups lost, tied
/// or won by up to 31% as the key's size, the worker count and that
/// cost decide (EXPERIMENTS.md A7), so they are not formed.
std::vector<std::vector<size_t>>
workUnits(const std::vector<BatchMember> &Members,
          const SimulatedGpuBackend &Backend, unsigned BatchWorkers,
          unsigned ScanWorkers) {
  constexpr size_t Lanes = codegen::JitLanes;
  std::vector<std::vector<size_t>> Keys;
  for (size_t I = 0; I != Members.size(); ++I) {
    const BatchMember &M = Members[I];
    if (!M.Plan->Kernel)
      continue;
    RunOptions Ro = *M.Options;
    Ro.ScanWorkers = ScanWorkers;
    if (!Backend.runsLanes(*M.Plan, Ro))
      continue;
    auto Key = std::find_if(Keys.begin(), Keys.end(),
                            [&](const std::vector<size_t> &K) {
                              return shareLanes(Members[K.front()], M);
                            });
    if (Key == Keys.end())
      Keys.push_back({I});
    else
      Key->push_back(I);
  }
  std::vector<std::vector<size_t>> Units;
  std::vector<char> InLanes(Members.size(), 0);
  for (const std::vector<size_t> &Key : Keys) {
    size_t Groups = Key.size() / Lanes;
    if (Groups < BatchWorkers)
      continue;
    for (size_t G = 0; G != Groups; ++G) {
      Units.emplace_back(Key.begin() + G * Lanes,
                         Key.begin() + (G + 1) * Lanes);
      for (size_t I : Units.back())
        InLanes[I] = 1;
    }
  }
  for (size_t I = 0; I != Members.size(); ++I)
    if (!InLanes[I])
      Units.push_back({I});
  std::sort(Units.begin(), Units.end(),
            [](const std::vector<size_t> &A, const std::vector<size_t> &B) {
              return A.front() < B.front();
            });
  return Units;
}

} // namespace

BatchDispatch BatchExecutor::run(const std::vector<BatchMember> &Members,
                                 unsigned HostBudget, unsigned BatchWorkers,
                                 unsigned ScanWorkers,
                                 const PublishFn &Publish) const {
  const size_t N = Members.size();
  BatchWorkers =
      resolveWorkerCount(BatchWorkers ? BatchWorkers : HostBudget, N);
  if (!ScanWorkers)
    ScanWorkers = std::max(1u, HostBudget / BatchWorkers);
  SimulatedGpuBackend Backend(Device.costModel());
  std::vector<RunResult> Results(N);

  // Hands one placed member over: its device slices first, then the
  // timeline rule — the result keeps its Timeline only if the member's
  // own options asked for one.
  auto Finalize = [&](size_t I, unsigned Block,
                      const std::vector<uint64_t> &StageStarts,
                      uint64_t Completion) {
    RunResult &R = Results[I];
    if (R.Timeline) {
      const RunOptions &Opts = *Members[I].Options;
      gpu::emitBlockTimeline(Block, *R.Timeline, StageStarts,
                             Opts.FlowId ? Opts.FlowId : I);
      if (!Opts.Trace)
        R.Timeline.reset();
    }
    Publish(I, std::move(R), Completion);
  };

  // Systolic policy: finished members feed the planner in submission
  // order under FeedMutex, and each is published as soon as it is
  // placed.
  std::optional<gpu::PipelinePlanner> Planner;
  if (Pipeline)
    Planner.emplace(Device.costModel(),
                    /*RecordStageStarts=*/obs::Tracer::enabled());
  std::mutex FeedMutex;
  std::vector<char> Done(N, 0); // Guarded by FeedMutex.
  size_t Cursor = 0;            // Guarded by FeedMutex.

  // Members are independent by construction (one multiprocessor each),
  // so they fan out across host workers into index-addressed slots, a
  // lanes scan's members through one Evaluator bound to the first.
  std::vector<std::vector<size_t>> Units =
      workUnits(Members, Backend, BatchWorkers, ScanWorkers);
  parallelFor(BatchWorkers, Units.size(), [&](size_t U) {
    const std::vector<size_t> &Unit = Units[U];
    const BatchMember &M = Members[Unit.front()];
    codegen::Evaluator Eval(Decl, Info);
    Eval.bind(*M.Args);
    RunOptions Ro = *M.Options;
    Ro.ScanWorkers = ScanWorkers;
    // The planner re-times the batch from per-partition timelines.
    if (Pipeline)
      Ro.Trace = true;
    if (Unit.size() == 1) {
      Results[Unit.front()] = Backend.execute(*M.Plan, Eval, Ro);
    } else {
      std::array<LaneProblem, codegen::JitLanes> Problems;
      for (size_t L = 0; L != Problems.size(); ++L) {
        const BatchMember &Lane = Members[Unit[L]];
        Problems[L] = {Lane.Args, Lane.Options->FlowId, &Results[Unit[L]]};
      }
      Backend.executeLanes(*M.Plan, Eval, Problems, Ro);
    }
    if (!Pipeline)
      return;
    std::lock_guard<std::mutex> Lock(FeedMutex);
    for (size_t I : Unit)
      Done[I] = 1;
    for (; Cursor != N && Done[Cursor]; ++Cursor) {
      const RunResult &R = Results[Cursor];
      const gpu::PipelinePlacement &P =
          Planner->add(gpu::PipelineProfile::make(R.Timeline, R.Cycles));
      Finalize(Cursor, P.Multiprocessor, P.StageStartCycles,
               P.CompletionCycles);
    }
  });

  BatchDispatch D;
  obs::Span Span("exec.dispatch", "exec");
  if (Pipeline) {
    // Every worker has joined and every member is published.
    Planner->finish();
    const gpu::PipelineStats &S = Planner->stats();
    D.MakespanCycles = S.MakespanCycles;
    D.OverlapCycles = S.OverlapCycles;
    D.IdleCycles = S.IdleCycles;
    obs::MetricsRegistry &M = obs::MetricsRegistry::global();
    for (size_t Mp = 0; Mp != S.MultiprocessorFinish.size(); ++Mp) {
      M.observe("exec.pipeline_overlap_cycles",
                static_cast<double>(S.MultiprocessorOverlap[Mp]));
      M.observe("exec.device_idle_cycles",
                static_cast<double>(S.MultiprocessorIdle[Mp]));
    }
    if (Span.active()) {
      Span.arg("pipelined", uint64_t{1});
      Span.arg("overlap_cycles", S.OverlapCycles);
      Span.arg("idle_cycles", S.IdleCycles);
    }
  } else {
    std::vector<uint64_t> Cycles;
    Cycles.reserve(N);
    for (const RunResult &R : Results)
      Cycles.push_back(R.Cycles);
    D.MakespanCycles = Device.dispatchProblems(Cycles);
    // Nothing resolves before the batch drains; each member's slices sit
    // back to back on its own multiprocessor's lane.
    for (size_t I = 0; I != N; ++I)
      Finalize(I, static_cast<unsigned>(I), /*StageStarts=*/{},
               D.MakespanCycles);
  }
  if (Span.active()) {
    Span.arg("problems", static_cast<uint64_t>(N));
    Span.arg("makespan_cycles", D.MakespanCycles);
    Span.arg("batch_workers", BatchWorkers);
    Span.arg("scan_workers", ScanWorkers);
  }
  return D;
}
