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
#include <mutex>
#include <optional>

using namespace parrec;
using namespace parrec::exec;

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
  // so they fan out across host workers into index-addressed slots.
  parallelFor(BatchWorkers, N, [&](size_t I) {
    const BatchMember &M = Members[I];
    codegen::Evaluator Eval(Decl, Info);
    Eval.bind(*M.Args);
    RunOptions Ro = *M.Options;
    Ro.ScanWorkers = ScanWorkers;
    // The planner re-times the batch from per-partition timelines.
    if (Pipeline)
      Ro.Trace = true;
    Results[I] = Backend.execute(*M.Plan, Eval, Ro);
    if (!Pipeline)
      return;
    std::lock_guard<std::mutex> Lock(FeedMutex);
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
