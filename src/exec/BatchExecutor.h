//===- BatchExecutor.h - Execute, dispatch and publish one batch --*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one batch on a simulated device, one problem per multiprocessor
/// (the map primitive, Section 4.7). Members execute across host workers,
/// each with its own Evaluator; the batch is then dispatched onto the
/// device's multiprocessors under one of two policies, and each member's
/// result reaches the caller through a publish callback together with its
/// modelled completion cycle:
///
///  - barrier (the default): longest-first placement through
///    gpu::Device::dispatchProblems. Every member completes at the batch
///    makespan and is published, in submission order, once the whole
///    batch has executed;
///  - systolic (the Pipeline flag of RunOptions / Engine::Options):
///    gpu::PipelinePlanner overlaps consecutive members' partitions on a
///    multiprocessor. Members are fed to the planner in submission order
///    under one batch-local lock as they finish executing, and each is
///    published the moment it is placed, while later members may still
///    be executing.
///
/// CompiledRecurrence::runGpuBatch and serve::Engine both run their
/// batches through here. The policy changes modelled timing only, never a
/// member's result.
///
/// Members that share a plan, their options but for the flow id, and
/// every argument but their sequences scan four at a time through the
/// JIT kernel's lanes entry (SimulatedGpuBackend::executeLanes) where the
/// kernel and the host allow it, in full groups taken in index order, and
/// only when every batch worker gets a group. Lanes change host time
/// only, never a member's result.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_EXEC_BATCHEXECUTOR_H
#define PARREC_EXEC_BATCHEXECUTOR_H

#include "exec/ExecutionBackend.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace parrec {
namespace exec {

/// One member of a batch. The pointees are borrowed and must outlive
/// BatchExecutor::run().
struct BatchMember {
  const ExecutablePlan *Plan = nullptr;
  const std::vector<codegen::ArgValue> *Args = nullptr;
  /// The member's own options. The executor overrides ScanWorkers with
  /// the batch's worker split. The published result keeps its Timeline
  /// only when Trace is set here — under either policy, whether or not
  /// the global tracer is on. A non-zero FlowId (a serving request id)
  /// labels the member's device trace slices; otherwise its batch index
  /// does.
  const RunOptions *Options = nullptr;
};

/// The batch-level outcome of one dispatch.
struct BatchDispatch {
  /// The batch's modelled wall clock, kernel launch included.
  uint64_t MakespanCycles = 0;
  /// Cycles recovered by cross-member overlap, summed over
  /// multiprocessors (0 under the barrier policy).
  uint64_t OverlapCycles = 0;
  /// Cycles multiprocessors idled waiting for the busiest one, summed
  /// (0 under the barrier policy).
  uint64_t IdleCycles = 0;
};

/// Executes, dispatches and publishes the batches of one recursion on one
/// device.
class BatchExecutor {
public:
  /// Receives one finished member: its index in the batch, its result
  /// (moved out of the executor) and its modelled completion cycle.
  /// Called in submission order, at most one call at a time: on the
  /// calling thread after dispatch under the barrier policy, under the
  /// batch-local lock on whichever thread placed the member under the
  /// systolic one. A callback that resolves futures must not block on a
  /// later member of the same batch.
  using PublishFn = std::function<void(size_t Member, RunResult &&Result,
                                       uint64_t CompletionCycle)>;

  /// \p Pipeline selects the systolic policy.
  BatchExecutor(const gpu::Device &Device, const lang::FunctionDecl &Decl,
                const lang::FunctionInfo &Info, bool Pipeline)
      : Device(Device), Decl(Decl), Info(Info), Pipeline(Pipeline) {}

  /// Runs \p Members on at most \p HostBudget host workers. A non-zero
  /// \p BatchWorkers or \p ScanWorkers request is obeyed verbatim (batch
  /// workers never exceed the member count); an auto (0) batch count
  /// takes the budget and an auto scan count the budget left per batch
  /// worker, so batch x scan nesting never oversubscribes. Worker counts
  /// never change results. Emits the `exec.dispatch` span and, under the
  /// systolic policy, the `exec.pipeline_overlap_cycles` /
  /// `exec.device_idle_cycles` histograms (one sample per used
  /// multiprocessor).
  BatchDispatch run(const std::vector<BatchMember> &Members,
                    unsigned HostBudget, unsigned BatchWorkers,
                    unsigned ScanWorkers, const PublishFn &Publish) const;

private:
  const gpu::Device &Device;
  const lang::FunctionDecl &Decl;
  const lang::FunctionInfo &Info;
  bool Pipeline;
};

} // namespace exec
} // namespace parrec

#endif // PARREC_EXEC_BATCHEXECUTOR_H
