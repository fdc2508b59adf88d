//===- ExecutionBackend.cpp - Pluggable plan executors ----------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Besides the serial reference scan this file hosts the wavefront-
/// parallel scan: the affine schedule already proves every cell of a
/// partition independent (Sections 4.2–4.3), so contiguous ranges of
/// simulated-thread IDs are farmed out to real host workers and merged
/// back in fixed simulated-thread order after each partition. The merge
/// order plus the disjointness of table writes within a partition make
/// every observable — results, cost counters, modelled cycles, metrics,
/// timelines — bit-identical to the serial run for any worker count.
///
//===----------------------------------------------------------------------===//

#include "exec/ExecutionBackend.h"

#include "codegen/BytecodeVM.h"
#include "codegen/NativeJit.h"
#include "exec/ParallelFor.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <limits>
#include <mutex>
#include <type_traits>

using namespace parrec;
using namespace parrec::exec;

namespace {

/// How one scan was fanned out, for the run span and the registry.
struct ScanStats {
  unsigned Workers = 1;
  /// Partitions scanned by the full worker set (one fork/join each).
  uint64_t ForkJoins = 0;
  /// Partitions that fell back to worker 0 (below the grain threshold).
  uint64_t SerialPartitions = 0;
};

/// Accumulation state owned by one host worker. Everything the serial
/// scan accumulated per cell lands here first and is merged in worker
/// order (= simulated-thread order) after each partition. Cache-line
/// aligned so neighbouring workers never share a line.
struct alignas(64) WorkerSlot {
  gpu::CostCounter Cost;
  uint64_t Cells = 0;
  double TableMax = -std::numeric_limits<double>::infinity();
  double RootValue = 0.0;
  bool HasRoot = false;

  void reset() {
    Cost.reset();
    Cells = 0;
    TableMax = -std::numeric_limits<double>::infinity();
    HasRoot = false;
  }
};

/// Per-worker cell evaluator over the bytecode VM. The VM has mutable
/// registers, so each worker owns one instance; all instances bind to
/// the same Evaluator (a read-only operation) and therefore share its
/// log-space caches bit-for-bit.
struct VmEval {
  codegen::BytecodeVM Vm;

  template <typename TableT>
  double operator()(const int64_t *Point, const TableT &Table,
                    gpu::CostCounter &Delta) {
    return Vm.evalCell(Point, Table, Delta);
  }
};

/// Cell evaluator over the AST tree-walker. A bound Evaluator is
/// read-only during evalCell, so one instance serves every worker.
struct AstEval {
  const codegen::Evaluator *Eval;

  template <typename TableT>
  double operator()(const int64_t *Point, const TableT &Table,
                    gpu::CostCounter &Delta) {
    return Eval->evalCell(Point, Table, Delta);
  }
};

/// Scans the cells of partition \p P owned by simulated threads
/// [ThreadBegin, ThreadEnd) in one walk of the loop nest, accumulating
/// results into \p Slot and per-thread cycles into \p Timer.
///
/// Thread safety when called from concurrent host workers: each
/// simulated thread T belongs to exactly one worker, so the
/// Timer.addThreadCycles(T, ...) targets are disjoint; and the affine
/// schedule guarantees no cell of partition P depends on another cell of
/// P, so Table.set targets are disjoint from every other worker's reads
/// and writes (see the DpTable invariant notes in Table.h).
template <bool CheckRoot, typename TableT, typename EvalT>
void scanThreadRange(const ExecutablePlan &Plan, poly::ScanContext &Ctx,
                     TableT &Table, const gpu::CostModel &Model,
                     bool IsGpu, bool TableInShared, unsigned Threads,
                     unsigned ThreadBegin, unsigned ThreadEnd, int64_t P,
                     gpu::BlockTimer &Timer, WorkerSlot &Slot,
                     EvalT &Eval) {
  unsigned N = Plan.Box.numDims();
  const int64_t *Root = Plan.Box.Upper.data();
  gpu::CostCounter Delta;
  // The walk visits the threads in order; each one's cycles are charged
  // once, when the next thread starts or the walk ends.
  unsigned Thread = ThreadBegin;
  uint64_t ThreadCycles = 0;
  Plan.Nest.forEachPointForThreads(
      Ctx, P, ThreadBegin, ThreadEnd, Threads,
      [&](unsigned T, const int64_t *Point) {
        if (T != Thread) {
          if (ThreadCycles)
            Timer.addThreadCycles(Thread, ThreadCycles);
          Thread = T;
          ThreadCycles = 0;
        }
        Delta.reset();
        double Value = Eval(Point, Table, Delta);
        Table.set(Point, Value);
        Slot.Cost += Delta;
        ThreadCycles += IsGpu ? Model.gpuCellCycles(Delta, TableInShared)
                              : Model.cpuCycles(Delta);
        ++Slot.Cells;
        if (Value > Slot.TableMax)
          Slot.TableMax = Value;
        if (CheckRoot &&
            std::memcmp(Point, Root, N * sizeof(int64_t)) == 0) {
          Slot.RootValue = Value;
          Slot.HasRoot = true;
        }
      });
  if (ThreadCycles)
    Timer.addThreadCycles(Thread, ThreadCycles);
}

/// The uniform unit of work the scan drivers below dispatch: scan the
/// cells of partition P owned by simulated threads [Begin, End). The
/// cell-wise scanner interprets the loop nest per point; the JIT scanner
/// hands the whole slice to one native kernel invocation.
template <typename TableT, typename EvalT>
struct CellScanner {
  const ExecutablePlan &Plan;
  TableT &Table;
  const gpu::CostModel &Model;
  bool IsGpu;
  bool TableInShared;
  EvalT Eval;
  poly::ScanContext Ctx;

  void operator()(bool CheckRoot, unsigned Threads, unsigned Begin,
                  unsigned End, int64_t P, gpu::BlockTimer &Timer,
                  WorkerSlot &Slot) {
    if (CheckRoot)
      scanThreadRange<true>(Plan, Ctx, Table, Model, IsGpu, TableInShared,
                            Threads, Begin, End, P, Timer, Slot, Eval);
    else
      scanThreadRange<false>(Plan, Ctx, Table, Model, IsGpu,
                             TableInShared, Threads, Begin, End, P, Timer,
                             Slot, Eval);
  }
};

/// The arguments of a kernel call: the binding and the table, what the
/// box decides, so one kernel serves every box, and the live cost
/// model's cycle weights, so one kernel serves both backends and both
/// table residencies (the kernel bakes only the cycle formula).
codegen::JitArgs kernelArgs(const ExecutablePlan &Plan,
                            const codegen::JitBinding &Bind, DpTable &Table,
                            const gpu::CostModel &Model, bool IsGpu,
                            bool TableInShared) {
  codegen::JitArgs Args = Bind.args();
  Args.Table = Table.rawData();
  const TableLayout &Layout = Table.layout();
  assert(Plan.NestParams.size() == Plan.Nest.NumParams &&
         "wrong parameter count");
  Args.NestParams = Plan.NestParams.data();
  Args.Root = Plan.Box.Upper.data();
  Args.Strides = Layout.Strides.data();
  Args.BaseIndex = Layout.BaseIndex;
  Args.PlaneSize = Layout.PlaneSize;
  Args.MinPartition = Layout.MinPartition;
  Args.FirstPartition = Plan.FirstPartition;
  Args.LastPartition = Plan.LastPartition;
  Args.CycOp = IsGpu ? Model.GpuCyclesPerOp : Model.CpuCyclesPerOp;
  Args.CycTrans =
      IsGpu ? Model.GpuTranscendentalCycles : Model.CpuTranscendentalCycles;
  Args.CycTable = IsGpu ? (TableInShared ? Model.SharedMemLatencyCycles
                                         : Model.GlobalMemLatencyCycles)
                        : Model.CpuMemLatencyCycles;
  Args.CycModel =
      IsGpu ? Model.SharedMemLatencyCycles : Model.CpuMemLatencyCycles;
  return Args;
}

/// The folds of one kernel call's results, which mirror what
/// scanThreadRange accumulates per cell: its counters and cells, its
/// table max (strict `>`: the first of equals stays) and root capture,
/// and its simulated threads' cycles.
void addJitCounts(const codegen::JitSlot &JS, WorkerSlot &Slot) {
  Slot.Cost.Ops += JS.Ops;
  Slot.Cost.TableReads += JS.TableReads;
  Slot.Cost.TableWrites += JS.TableWrites;
  Slot.Cost.ModelReads += JS.ModelReads;
  Slot.Cost.Transcendentals += JS.Transcendentals;
  Slot.Cells += JS.Cells;
}
void foldJitValues(const codegen::JitSlot &JS, WorkerSlot &Slot) {
  if (JS.TableMax > Slot.TableMax)
    Slot.TableMax = JS.TableMax;
  if (JS.HasRoot) {
    Slot.RootValue = JS.RootValue;
    Slot.HasRoot = true;
  }
}
void chargeJitCycles(const std::vector<uint64_t> &Cycles, unsigned Begin,
                     unsigned End, gpu::BlockTimer &Timer) {
  for (unsigned T = Begin; T != End; ++T)
    if (Cycles[T])
      Timer.addThreadCycles(T, Cycles[T]);
}

/// Scanner over the natively jitted kernel: one call covers the whole
/// (partition, thread-range) slice — the kernel walks the loop nest over
/// the box in its args, writes the table through the table's layout,
/// accumulates the wide cost lanes and per-thread modelled cycles, and
/// captures the running table max and the root cell. One invocation per
/// slot keeps the strict-`>`/first-wins merge semantics exact.
struct JitScanner {
  codegen::JitKernelFn Fn = nullptr;
  codegen::JitArgs Args{};
  std::vector<uint64_t> Cycles; // One slot per simulated thread.

  void operator()(bool CheckRoot, unsigned Threads, unsigned Begin,
                  unsigned End, int64_t P, gpu::BlockTimer &Timer,
                  WorkerSlot &Slot) {
    codegen::JitSlot JS{};
    JS.TableMax = -std::numeric_limits<double>::infinity();
    Fn(&Args, P, Begin, End, Threads, CheckRoot ? 1 : 0, &JS,
       Cycles.data());
    addJitCounts(JS, Slot);
    foldJitValues(JS, Slot);
    chargeJitCycles(Cycles, Begin, End, Timer);
  }
};

/// Scanner over the lanes entry: one call scans the slice for
/// codegen::JitLanes problems. The counters, cells and cycles follow
/// control flow, which the lanes share, so the kernel counts them once,
/// into the first lane's slot, and they fold into the worker's slot as
/// JitScanner's do. Each lane's table max and root fold into its own
/// entry of Lanes, which outlives the scan.
struct LanesScanner {
  codegen::JitLanesFn Fn = nullptr;
  codegen::JitArgs Args{};
  const codegen::JitSeq *const *Seqs = nullptr; // One per lane.
  int64_t RootPartition = 0;
  WorkerSlot *Lanes = nullptr;
  std::vector<uint64_t> Cycles;

  void operator()(bool /*CheckRoot*/, unsigned Threads, unsigned Begin,
                  unsigned End, int64_t P, gpu::BlockTimer &Timer,
                  WorkerSlot &Slot) {
    std::array<codegen::JitSlot, codegen::JitLanes> JS{};
    for (codegen::JitSlot &Lane : JS)
      Lane.TableMax = -std::numeric_limits<double>::infinity();
    // The root is captured in flight with a full table too, as no lane's
    // table is read after the scan: the root is written once, so the
    // capture equals that read.
    Fn(&Args, Seqs, P, Begin, End, Threads, P == RootPartition ? 1 : 0,
       JS.data(), Cycles.data());
    addJitCounts(JS[0], Slot);
    for (unsigned L = 0; L != codegen::JitLanes; ++L)
      foldJitValues(JS[L], Lanes[L]);
    chargeJitCycles(Cycles, Begin, End, Timer);
  }
};

/// Merges one worker's partition results into the run totals. Callers
/// iterate slots in worker order, which equals simulated-thread order
/// (workers own contiguous thread ranges), which equals the serial
/// encounter order — so the first-among-equals semantics of the `>` max
/// matches the serial scan exactly.
void mergeSlot(const WorkerSlot &Slot, RunResult &Result,
               double &TableMax, uint64_t &PartitionCells) {
  Result.Cost += Slot.Cost;
  PartitionCells += Slot.Cells;
  if (Slot.TableMax > TableMax)
    TableMax = Slot.TableMax;
  if (Slot.HasRoot)
    Result.RootValue = Slot.RootValue;
}

/// The serial partition-by-partition scan core (Figure 8's template),
/// monomorphised over the concrete scanner (which fixes the table class
/// and cell evaluator, or the jitted kernel) so the per-cell path has no
/// virtual calls and no type-erased callback.
template <typename MakeScannerT>
void scanSerial(const ExecutablePlan &Plan, uint64_t SyncCycles,
                unsigned Threads, gpu::BlockTimer &Timer,
                RunResult &Result, const MakeScannerT &MakeScanner) {
  auto Scanner = MakeScanner();
  WorkerSlot Slot;
  double TableMax = -std::numeric_limits<double>::infinity();
  for (int64_t P = Plan.FirstPartition; P <= Plan.LastPartition; ++P) {
    // A sliding window eventually overwrites the root cell's plane, so
    // capture it in flight — but only within its own partition. With a
    // full table the root survives and is read once after the scan.
    uint64_t PartitionCells = 0;
    Slot.reset();
    Scanner(Plan.UseWindow && P == Plan.RootPartition, Threads, 0,
            Threads, P, Timer, Slot);
    mergeSlot(Slot, Result, TableMax, PartitionCells);
    Result.Cells += PartitionCells;
    Timer.closePartition(SyncCycles, P, PartitionCells);
  }
  Result.TableMax = TableMax;
}

/// The wavefront-parallel scan: the pool forks once for the whole run,
/// then every partition runs two barrier phases — scan (workers cover
/// contiguous simulated-thread ranges) and merge (worker 0 folds the
/// slots in worker order, closes the partition's lockstep timing, and
/// decides whether the next partition is worth fanning out). Short
/// partitions run entirely on worker 0 between the same barriers.
///
/// \p MakeScanner constructs one scanner (cell evaluator or jitted
/// kernel state) per worker, on that worker's thread.
template <typename MakeScannerT>
void scanParallel(const ExecutablePlan &Plan, uint64_t SyncCycles,
                  unsigned Threads, unsigned Workers,
                  uint64_t GrainCells, gpu::BlockTimer &Timer,
                  RunResult &Result, ScanStats &Stats,
                  const MakeScannerT &MakeScanner) {
  std::vector<WorkerSlot> Slots(Workers);
  SpinBarrier Barrier(Workers);

  // Scan-wide state. Only worker 0 writes, and only between the two
  // barriers of a partition; everyone else reads after the second
  // barrier, so no field needs to be atomic.
  struct {
    bool FanOut = false; // First partition seeds the estimate serially.
    double TableMax = -std::numeric_limits<double>::infinity();
    uint64_t ForkJoins = 0;
    uint64_t SerialPartitions = 0;
  } Shared;

  // A cell evaluation must not fail (every failure mode is caught at
  // planning time), but if one ever throws, the worker records the
  // error and keeps arriving at the barriers so nobody deadlocks; the
  // error is rethrown after the join.
  std::mutex ErrorMutex;
  std::exception_ptr FirstError;

  forkJoin(Workers, [&](unsigned W) {
    WorkerSlot &Slot = Slots[W];
    auto Scanner = MakeScanner();
    for (int64_t P = Plan.FirstPartition; P <= Plan.LastPartition; ++P) {
      bool FanOut = Shared.FanOut;
      // Contiguous simulated-thread ranges keep the merge order equal
      // to the serial encounter order and give each worker whole cache
      // lines of BlockTimer's per-thread accumulators.
      unsigned Begin = 0, End = 0;
      if (FanOut) {
        Begin = static_cast<unsigned>(
            static_cast<uint64_t>(W) * Threads / Workers);
        End = static_cast<unsigned>(
            static_cast<uint64_t>(W + 1) * Threads / Workers);
      } else if (W == 0) {
        End = Threads;
      }
      Slot.reset();
      if (Begin != End) {
        try {
          Scanner(Plan.UseWindow && P == Plan.RootPartition, Threads,
                  Begin, End, P, Timer, Slot);
        } catch (...) {
          std::lock_guard<std::mutex> Lock(ErrorMutex);
          if (!FirstError)
            FirstError = std::current_exception();
        }
      }
      // Phase 1: every cell of partition P is written.
      Barrier.arriveAndWait();
      if (W == 0) {
        uint64_t PartitionCells = 0;
        for (const WorkerSlot &S : Slots)
          mergeSlot(S, Result, Shared.TableMax, PartitionCells);
        Result.Cells += PartitionCells;
        // closePartition reads and resets every thread's cycle
        // accumulator, hence the second barrier below before any worker
        // may charge cycles to the next partition.
        Timer.closePartition(SyncCycles, P, PartitionCells);
        ++(FanOut ? Shared.ForkJoins : Shared.SerialPartitions);
        // The previous partition's size is a cheap, deterministic
        // estimate of the next one's (diagonal lengths change by at
        // most a step): fan out only when the fork/join overhead is
        // worth paying.
        Shared.FanOut = PartitionCells >= GrainCells;
      }
      // Phase 2: the merge and timer reset are visible to everyone.
      Barrier.arriveAndWait();
    }
  });

  Result.TableMax = Shared.TableMax;
  Stats.ForkJoins = Shared.ForkJoins;
  Stats.SerialPartitions = Shared.SerialPartitions;
  if (FirstError)
    std::rethrow_exception(FirstError);
}

/// Resolves how many host workers this scan should use. 0 means the
/// whole host budget (pre-divided by the batch executor when nested
/// under a batch). A worker must own at least one simulated thread, and
/// domains too small to amortise thread start-up stay serial.
unsigned resolveScanWorkers(const ExecutablePlan &Plan,
                            const RunOptions &Options, unsigned Threads) {
  unsigned Workers =
      Options.ScanWorkers ? Options.ScanWorkers : hostWorkerBudget();
  Workers = std::min(Workers, Threads);
  if (Workers <= 1)
    return 1;
  uint64_t Volume = 1;
  for (unsigned D = 0; D != Plan.Box.numDims(); ++D) {
    uint64_t Extent = static_cast<uint64_t>(Plan.Box.extent(D));
    if (Extent && Volume > std::numeric_limits<uint64_t>::max() / Extent)
      return Workers; // Saturated: certainly large enough.
    Volume *= Extent;
  }
  if (Volume < 4 * std::max<uint64_t>(Options.ScanGrainCells, 1))
    return 1;
  return Workers;
}

/// Fills in the summary of a finished scan from its block timer:
/// partitions, cycles and, on the GPU, the run metrics. \p TableBytes is
/// one problem's table.
void summarise(const ExecutablePlan &Plan, bool IsGpu, uint64_t TableBytes,
               bool TableInShared, unsigned Threads,
               const gpu::BlockTimer &Timer, RunResult &Result) {
  Result.Partitions = Plan.numPartitions();
  Result.Cycles = Timer.totalCycles();
  if (!IsGpu)
    return;
  Result.Metrics.Cycles = Result.Cycles;
  Result.Metrics.Partitions = static_cast<uint64_t>(Result.Partitions);
  Result.Metrics.CellsComputed = Result.Cells;
  Result.Metrics.TableBytes = TableBytes;
  if (TableInShared)
    Result.Metrics.SharedAccesses = Result.Cost.tableAccesses();
  else
    Result.Metrics.GlobalAccesses = Result.Cost.tableAccesses();
  Result.Metrics.SharedAccesses += Result.Cost.ModelReads;
  Result.Metrics.BarrierCycles = Timer.barrierCycles();
  Result.Metrics.ThreadCycles = Timer.threadCycleSum();
  Result.Metrics.CriticalCycles = Timer.criticalCycles();
  Result.Metrics.Threads = Threads;
}

/// The `exec.scan` span's arguments, which every scan records.
void describeScan(obs::Span &Span, bool IsGpu, bool UseVm,
                  const char *Evaluator, uint64_t FlowId,
                  const RunResult &Result, unsigned Threads,
                  unsigned ScanWorkers) {
  Span.arg("backend", IsGpu ? "simulated-gpu" : "serial-cpu");
  Span.arg("vm", UseVm);
  Span.arg("evaluator", Evaluator);
  if (FlowId != 0) {
    // Terminal hop of a served request's flow: the serve.enqueue ->
    // coalesce -> dispatch chain arrows end on this scan slice.
    Span.arg("request", FlowId);
    Span.flowEnd(FlowId);
  }
  Span.arg("cells", Result.Cells);
  Span.arg("partitions", static_cast<uint64_t>(Result.Partitions));
  Span.arg("cycles", Result.Cycles);
  Span.arg("threads", Threads);
  Span.arg("scan_workers", ScanWorkers);
  if (IsGpu)
    Span.arg("occupancy", Result.Metrics.occupancy());
}

/// Dispatches the scan over {bytecode VM, AST walker} x {sliding window,
/// full table} x {serial, wavefront-parallel} and fills in the result
/// summary. The VM runs whenever the plan carries a compiled program and
/// nothing opts out.
RunResult scanPlan(const ExecutablePlan &Plan, codegen::Evaluator &Eval,
                   const gpu::CostModel &Model, bool IsGpu,
                   unsigned Threads, const RunOptions &Options) {
  bool Trace = Options.Trace || obs::Tracer::enabled();

  std::shared_ptr<DpTable> Table;
  {
    obs::Span AllocSpan("exec.alloc_table", "exec");
    Table = Plan.makeTable();
    if (AllocSpan.active()) {
      AllocSpan.arg("bytes", Table->bytes());
      AllocSpan.arg("window", Plan.UseWindow);
    }
  }
  bool TableInShared = IsGpu && Table->bytes() <= Model.SharedMemBytes;

  obs::Span RunSpan("exec.scan", "exec");
  gpu::BlockTimer Timer(Threads, /*RecordTimeline=*/Trace);
  RunResult Result;
  Result.UsedSchedule = Plan.Sched;
  Result.TableMax = -std::numeric_limits<double>::infinity();

  // Jit silently degrades to the VM when the plan carries no kernel:
  // the jit pass already warned and counted the fallback at plan time.
  // A Vm plan carries one only when serve::Engine tiered its key up.
  bool UseJit = Options.Evaluator != EvalKind::Ast &&
                Plan.Kernel != nullptr && Plan.Kernel->fn() != nullptr &&
                Plan.Program != nullptr;
  bool UseVm = Options.Evaluator != EvalKind::Ast && !UseJit &&
               Plan.Program != nullptr;
  ScanStats Stats;
  Stats.Workers = resolveScanWorkers(Plan, Options, Threads);
  uint64_t Grain = std::max<uint64_t>(Options.ScanGrainCells, 1);
  uint64_t SyncCycles = IsGpu ? Model.SyncCycles : 0;

  // One binding per run (the jitted analogue of BytecodeVM::bind),
  // shared read-only by every worker's JitScanner.
  codegen::JitBinding JitBind;
  if (UseJit)
    JitBind.bind(*Plan.Program, Eval);

  auto Drive = [&](const auto &MakeScanner) {
    if (Stats.Workers <= 1) {
      scanSerial(Plan, SyncCycles, Threads, Timer, Result, MakeScanner);
      return;
    }
    obs::Span ForkSpan("exec.scan_fork", "exec");
    scanParallel(Plan, SyncCycles, Threads, Stats.Workers, Grain, Timer,
                 Result, Stats, MakeScanner);
    if (ForkSpan.active()) {
      ForkSpan.arg("workers", Stats.Workers);
      ForkSpan.arg("fork_joins", Stats.ForkJoins);
      ForkSpan.arg("serial_partitions", Stats.SerialPartitions);
    }
  };

  auto RunOn = [&](auto &ConcreteTable) {
    using TableT = std::remove_reference_t<decltype(ConcreteTable)>;
    if (UseJit) {
      Drive([&] {
        JitScanner S;
        S.Fn = Plan.Kernel->fn();
        S.Args = kernelArgs(Plan, JitBind, ConcreteTable, Model, IsGpu,
                            TableInShared);
        S.Cycles.assign(Threads, 0);
        return S;
      });
    } else if (UseVm) {
      Drive([&] {
        VmEval E{codegen::BytecodeVM(Plan.Program)};
        E.Vm.bind(Eval);
        return CellScanner<TableT, VmEval>{
            Plan,  ConcreteTable, Model, IsGpu, TableInShared,
            std::move(E), Plan.Nest.makeScanContext(Plan.NestParams)};
      });
    } else {
      Drive([&] {
        return CellScanner<TableT, AstEval>{
            Plan,  ConcreteTable, Model, IsGpu, TableInShared,
            AstEval{&Eval}, Plan.Nest.makeScanContext(Plan.NestParams)};
      });
    }
  };
  // Monomorphise on the concrete table class (both are final) so every
  // get/set in the hot loop devirtualises.
  if (Plan.UseWindow)
    RunOn(static_cast<SlidingWindowTable &>(*Table));
  else
    RunOn(static_cast<FullTable &>(*Table));

  if (!Plan.UseWindow)
    Result.RootValue = Table->get(Plan.Box.Upper.data());

  summarise(Plan, IsGpu, Table->bytes(), TableInShared, Threads, Timer,
            Result);
  if (Trace)
    Result.Timeline =
        std::make_shared<const std::vector<gpu::PartitionSample>>(
            Timer.takeTimeline());
  if (Options.KeepTable)
    Result.Table = Table;

  const char *Evaluator = UseJit ? "jit" : (UseVm ? "vm" : "ast");
  Result.Evaluator = Evaluator;
  if (RunSpan.active())
    describeScan(RunSpan, IsGpu, UseVm, Evaluator, Options.FlowId, Result,
                 Threads, Stats.Workers);

  // Per-run (never per-cell) registry updates.
  obs::MetricsRegistry &M = obs::MetricsRegistry::global();
  M.add("exec.runs_by_evaluator", obs::Labels{{"evaluator", Evaluator}});
  M.record("exec.scan_workers", Stats.Workers);
  if (Stats.Workers > 1) {
    M.add("exec.scan_fork_joins", Stats.ForkJoins);
    M.add("exec.scan_serial_partitions", Stats.SerialPartitions);
  }
  return Result;
}

} // namespace

PlanKey exec::planKey(const solver::DomainBox &Box, const RunOptions &Options,
                      const solver::Schedule *Preselected) {
  return PlanKey::make(
      Box, Options.UseSlidingWindow, Options.KeepTable,
      Options.ForcedSchedule ? &*Options.ForcedSchedule : Preselected,
      Options.Evaluator == EvalKind::Jit);
}

RunResult SerialCpuBackend::execute(const ExecutablePlan &Plan,
                                    codegen::Evaluator &Eval,
                                    const RunOptions &Options) const {
  // Threads == 1 clamps the scan-worker resolution to 1: the CPU
  // reference is serial by definition.
  return scanPlan(Plan, Eval, Model, /*IsGpu=*/false, /*Threads=*/1,
                  Options);
}

RunResult SimulatedGpuBackend::execute(const ExecutablePlan &Plan,
                                       codegen::Evaluator &Eval,
                                       const RunOptions &Options) const {
  return scanPlan(Plan, Eval, Model, /*IsGpu=*/true, threads(Options),
                  Options);
}

bool SimulatedGpuBackend::runsLanes(const ExecutablePlan &Plan,
                                    const RunOptions &Options) const {
  return Options.Evaluator != EvalKind::Ast && !Options.KeepTable &&
         Plan.Program && Plan.Kernel && Plan.Kernel->lanesFn() &&
         resolveScanWorkers(Plan, Options, threads(Options)) == 1;
}

void SimulatedGpuBackend::executeLanes(
    const ExecutablePlan &Plan, codegen::Evaluator &Eval,
    const std::array<LaneProblem, codegen::JitLanes> &Problems,
    const RunOptions &Options) const {
  assert(runsLanes(Plan, Options) && "the plan or options rule out lanes");
  constexpr unsigned Lanes = codegen::JitLanes;
  unsigned Threads = threads(Options);
  bool Trace = Options.Trace || obs::Tracer::enabled();

  std::shared_ptr<DpTable> Table;
  {
    obs::Span AllocSpan("exec.alloc_table", "exec");
    Table = Plan.makeTable(Lanes);
    if (AllocSpan.active()) {
      AllocSpan.arg("bytes", Table->bytes());
      AllocSpan.arg("window", Plan.UseWindow);
      AllocSpan.arg("lanes", Lanes);
    }
  }
  // Residency, like every modelled number, is one problem's.
  bool TableInShared = Table->bytes() <= Model.SharedMemBytes;

  obs::Span RunSpan("exec.scan", "exec");
  gpu::BlockTimer Timer(Threads, /*RecordTimeline=*/Trace);
  codegen::JitBinding Bind;
  Bind.bind(*Plan.Program, Eval);
  std::array<std::vector<codegen::JitSeq>, Lanes> Seqs;
  std::array<const codegen::JitSeq *, Lanes> LaneSeqs;
  for (unsigned L = 0; L != Lanes; ++L) {
    Seqs[L] = codegen::jitSeqs(*Plan.Program, *Problems[L].Args);
    LaneSeqs[L] = Seqs[L].data();
  }

  // What follows control flow is the lanes' shared result; each lane's
  // table max and root are its own.
  RunResult Shared;
  Shared.UsedSchedule = Plan.Sched;
  std::array<WorkerSlot, Lanes> LaneValues;
  scanSerial(Plan, Model.SyncCycles, Threads, Timer, Shared, [&] {
    LanesScanner S;
    S.Fn = Plan.Kernel->lanesFn();
    S.Args = kernelArgs(Plan, Bind, *Table, Model, /*IsGpu=*/true,
                        TableInShared);
    S.Seqs = LaneSeqs.data();
    S.RootPartition = Plan.RootPartition;
    S.Lanes = LaneValues.data();
    S.Cycles.assign(Threads, 0);
    return S;
  });
  summarise(Plan, /*IsGpu=*/true, Table->bytes(), TableInShared, Threads,
            Timer, Shared);
  if (Trace)
    Shared.Timeline =
        std::make_shared<const std::vector<gpu::PartitionSample>>(
            Timer.takeTimeline());
  for (unsigned L = 0; L != Lanes; ++L) {
    RunResult &R = *Problems[L].Result;
    R = Shared;
    R.Evaluator = "jit_lanes";
    R.TableMax = LaneValues[L].TableMax;
    R.RootValue = LaneValues[L].RootValue;
  }

  if (RunSpan.active()) {
    describeScan(RunSpan, /*IsGpu=*/true, /*UseVm=*/false, "jit_lanes",
                 /*FlowId=*/0, Shared, Threads, /*ScanWorkers=*/1);
    RunSpan.arg("lanes", Lanes);
    for (const LaneProblem &Problem : Problems)
      if (Problem.FlowId != 0)
        RunSpan.flowEnd(Problem.FlowId);
  }
  obs::MetricsRegistry &M = obs::MetricsRegistry::global();
  M.add("exec.runs_by_evaluator", obs::Labels{{"evaluator", "jit_lanes"}},
        Lanes);
  for (unsigned L = 0; L != Lanes; ++L)
    M.record("exec.scan_workers", 1);
}
