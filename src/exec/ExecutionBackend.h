//===- ExecutionBackend.h - Pluggable plan executors --------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution stage of the pipeline: backends consume an immutable
/// ExecutablePlan plus a bound Evaluator and produce a RunResult. The
/// serial CPU reference and the simulated GPU (lockstep block, barrier
/// between partitions, shared-vs-global table residency) are the two
/// built-in backends; new targets plug in behind the same interface.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_EXEC_EXECUTIONBACKEND_H
#define PARREC_EXEC_EXECUTIONBACKEND_H

#include "codegen/Evaluator.h"
#include "codegen/NativeJit.h"
#include "exec/Plan.h"
#include "gpu/Device.h"

#include <array>
#include <cassert>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

namespace parrec {
namespace exec {

/// Which cell evaluator executes the scan. Ast is the tree-walking
/// oracle, Vm the bytecode interpreter, Jit the natively compiled kernel
/// (NativeJit.h). All three are bit-identical in every observable; they
/// differ only in host wall-clock speed. Jit silently degrades to Vm
/// when the plan carries no kernel (unsupported shape, missing host
/// compiler — the planner already warned and counted the fallback).
/// Vm plans never carry a kernel, except in serve::Engine: once the
/// engine has compiled a hot kernel in the background, it runs a Vm
/// request on its plan with that kernel attached (DESIGN.md §11), and
/// the scan then takes the kernel.
enum class EvalKind { Ast, Vm, Jit };

/// Options controlling one execution.
struct RunOptions {
  /// Use the Section 4.8 sliding-window table when the schedule permits.
  bool UseSlidingWindow = true;
  /// Threads per block; 0 means "one per multiprocessor core".
  unsigned Threads = 0;
  /// Host worker threads simulating independent multiprocessors in a
  /// batch; 0 means "one per hardware thread". Results are bit-identical
  /// regardless of the worker count — problems are independent by
  /// construction.
  unsigned BatchWorkers = 0;
  /// Host worker threads for one problem's partition scan: contiguous
  /// ranges of simulated-thread IDs run on real threads (the wavefront
  /// is independent within a partition, Sections 4.2–4.3), with a
  /// deterministic per-partition merge. 0 means "share the host worker
  /// budget" (a batch divides it by the resolved batch worker count so
  /// batch x scan nesting never oversubscribes); 1 is the serial path.
  /// Results, modelled cycles, metrics, and timelines are bit-identical
  /// for every worker count.
  unsigned ScanWorkers = 0;
  /// Minimum merged cell count of the previous partition for the next
  /// one to be fanned out; smaller partitions (short diagonals) run on
  /// worker 0 alone, skipping two barrier crossings. Runs whose whole
  /// domain is below 4x this threshold stay entirely serial. Affects
  /// scheduling only, never results.
  uint64_t ScanGrainCells = 256;
  /// Override the automatically derived schedule (must be valid).
  std::optional<solver::Schedule> ForcedSchedule;
  /// Keep the full DP table alive in RunResult::Table so arbitrary
  /// cells can be read afterwards (forces full tabulation — useful for
  /// recursions whose interesting value is not at the root corner, e.g.
  /// the backward algorithm's B(start, 0)).
  bool KeepTable = false;
  /// The cell evaluator (`parrec run --evaluator=ast|vm|jit`). Jit makes
  /// planning run the native JIT pass and execution dispatch the
  /// compiled kernel; Ast, the tree-walking differential-testing oracle,
  /// runs even when the plan carries a compiled bytecode program; Vm is
  /// the default.
  EvalKind Evaluator = EvalKind::Vm;
  /// JIT disk-cache directory override (`--jit-cache-dir=`); empty
  /// resolves to $ParRec_JIT_CACHE then ~/.cache/parrec-jit.
  std::string JitCacheDir;
  /// Collect the per-partition timeline into RunResult::Timeline (and,
  /// when the global tracer is on, emit device-lane trace slices). An
  /// enabled obs::Tracer records the timeline too, for its device
  /// slices, but a batch member — runGpuBatch or the serving engine,
  /// either dispatch policy — keeps it in its result only when its own
  /// Trace was set. Never changes results, only records how they were
  /// reached.
  bool Trace = false;
  /// Trace flow id (the serving engine's RequestId): when non-zero and
  /// tracing is on, the exec.scan span finishes this flow so the
  /// request's serve-side slices link to the scan that ran it. Telemetry
  /// only — never part of a plan key, never affects results.
  uint64_t FlowId = 0;
  /// Pipeline batch members across the device (`parrec run --pipeline`):
  /// partition k+1 of problem i+1 overlaps partition k of problem i on
  /// the same multiprocessor instead of waiting for problem i to drain,
  /// and per-problem completion cycles are recorded. Re-times work that
  /// already happened: results, costs and per-problem cycle totals stay
  /// bit-identical; only BatchResult::TotalCycles (modelled wall clock)
  /// may drop. Never part of a plan key.
  bool Pipeline = false;

  friend bool operator==(const RunOptions &, const RunOptions &) = default;
};

/// The plan key of running \p Box under \p Options: the one derivation
/// shared by CompiledRecurrence::planFor, the serving engine's batching
/// and the router's sharding, so all three agree on which requests share
/// a plan. A forced schedule takes precedence over \p Preselected (the
/// Section 4.7 conditional choice).
PlanKey planKey(const solver::DomainBox &Box, const RunOptions &Options,
                const solver::Schedule *Preselected = nullptr);

/// The outcome of running one problem.
struct RunResult {
  /// Value at the root point (every recursion dimension at its maximum) —
  /// the paper's d(x, y) / forward(end, n) convention. Log-space for prob
  /// functions.
  double RootValue = 0.0;
  /// Maximum over all table cells (the Smith-Waterman result).
  double TableMax = 0.0;
  uint64_t Cells = 0;
  int64_t Partitions = 0;
  gpu::CostCounter Cost;
  /// Lockstep block cycles for GPU runs; serial cycles for CPU runs.
  uint64_t Cycles = 0;
  solver::Schedule UsedSchedule;
  /// Populated for GPU runs.
  gpu::GpuRunMetrics Metrics;
  /// Per-partition lockstep timeline, when RunOptions::Trace (or the
  /// global tracer) was on: one sample per executed partition, in scan
  /// order. Sum of (MaxThreadCycles + BarrierCycles) equals Cycles.
  std::shared_ptr<const std::vector<gpu::PartitionSample>> Timeline;
  /// The full DP table, when RunOptions::KeepTable was set.
  std::shared_ptr<codegen::TableView> Table;
  /// The evaluator that scanned: "ast", "vm", "jit", or "jit_lanes" for
  /// a problem scanned in the lanes of a kernel's lanes entry.
  std::string_view Evaluator;

  /// Reads a cell from the kept table (requires KeepTable).
  double cellValue(const std::vector<int64_t> &Point) const {
    assert(Table && "run without KeepTable");
    return Table->get(Point.data());
  }
};

/// Results of a multi-problem batch (the map primitive): per-problem
/// outcomes plus the device-level makespan.
struct BatchResult {
  std::vector<RunResult> Problems;
  uint64_t TotalCycles = 0;
  double Seconds = 0.0;
  /// Per-problem modelled completion cycle (kernel launch included).
  /// Under the barrier dispatcher every problem completes at batch end
  /// (== TotalCycles); under RunOptions::Pipeline each problem resolves
  /// the moment its last partition drains.
  std::vector<uint64_t> CompletionCycles;
  /// Cycles recovered by cross-problem overlap, summed over
  /// multiprocessors (0 on the barrier path).
  uint64_t OverlapCycles = 0;
  /// Cycles multiprocessors idled waiting for the busiest one, summed
  /// (0 on the barrier path).
  uint64_t IdleCycles = 0;
};

/// Executes planned problems. Implementations are stateless beyond their
/// cost model and thread-safe: one backend instance may execute many
/// plans concurrently (each call gets its own Evaluator and table).
class ExecutionBackend {
public:
  virtual ~ExecutionBackend() = default;

  /// Runs one problem. \p Eval must already be bound to the problem's
  /// calling arguments. Cannot fail: every failure mode (bad schedule,
  /// empty domain, unbound argument) is caught at planning time.
  virtual RunResult execute(const ExecutablePlan &Plan,
                            codegen::Evaluator &Eval,
                            const RunOptions &Options) const = 0;
};

/// The serial CPU reference: one thread, CPU cycle accounting, no
/// barrier costs.
class SerialCpuBackend final : public ExecutionBackend {
public:
  explicit SerialCpuBackend(const gpu::CostModel &Model) : Model(Model) {}

  RunResult execute(const ExecutablePlan &Plan, codegen::Evaluator &Eval,
                    const RunOptions &Options) const override;

private:
  const gpu::CostModel &Model;
};

/// One problem of a lanes scan: its arguments, its trace flow id (0 for
/// none, as RunOptions::FlowId) and where its result goes.
struct LaneProblem {
  const std::vector<codegen::ArgValue> *Args = nullptr;
  uint64_t FlowId = 0;
  RunResult *Result = nullptr;
};

/// The simulated GPU: one block on one multiprocessor, threads striped
/// over the partition loop (Figure 10), lockstep timing with a barrier
/// per partition, and shared-memory residency when the table fits.
class SimulatedGpuBackend final : public ExecutionBackend {
public:
  explicit SimulatedGpuBackend(const gpu::CostModel &Model)
      : Model(Model) {}

  RunResult execute(const ExecutablePlan &Plan, codegen::Evaluator &Eval,
                    const RunOptions &Options) const override;

  /// Whether executeLanes may run \p Plan under \p Options: the
  /// evaluator is the JIT, whose kernel has a lanes entry this host
  /// runs, no table is kept, and the scan resolves to one worker.
  bool runsLanes(const ExecutablePlan &Plan, const RunOptions &Options) const;

  /// Runs codegen::JitLanes problems of \p Plan, whose arguments differ
  /// only in their sequences, in one scan through the kernel's lanes
  /// entry (NativeJit.h). \p Eval is bound to the first problem's
  /// arguments and holds the shared model's caches. Each problem's
  /// result is what execute() gives it alone, bit for bit: the lanes
  /// share the cost, cycles, metrics and timeline, which follow control
  /// flow alone, and keep their own table maximum and root. The scan's
  /// `exec.scan` span carries `lanes` and ends each problem's flow.
  /// Requires runsLanes(Plan, Options).
  void executeLanes(const ExecutablePlan &Plan, codegen::Evaluator &Eval,
                    const std::array<LaneProblem, codegen::JitLanes> &Problems,
                    const RunOptions &Options) const;

private:
  const gpu::CostModel &Model;

  /// Threads per block: an explicit request, else one per core.
  unsigned threads(const RunOptions &Options) const {
    return Options.Threads ? Options.Threads : Model.CoresPerMultiprocessor;
  }
};

} // namespace exec
} // namespace parrec

#endif // PARREC_EXEC_EXECUTIONBACKEND_H
