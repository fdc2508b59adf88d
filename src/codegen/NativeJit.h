//===- NativeJit.h - Native host JIT for executable plans ---------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Run-time code generation for the host path, in the PyCUDA/PyOpenCL
/// style: render one ExecutablePlan — its partition loop nest, its
/// sliding-window (or dense) table addressing, and its bytecode cell body
/// — as a specialised C translation unit, compile it with the system C
/// compiler into a shared object, dlopen it, and dispatch the resolved
/// kernel instead of interpreting bytecode.
///
/// What the recursion and its schedule fix is baked into the source: the
/// parametric loop nest, the schedule coefficients, the window depth and the
/// strides 0 and 1 (one scan per dimension a window may drop; they keep a
/// reduce's address arithmetic cheap and loop-invariant), the cell body, the
/// result conversion and the packed cost deltas. What the box decides (the
/// nest's parameter values, the partition range, the root point, the table
/// layout, which scan runs) and what varies per *binding* (sequences, matrices,
/// HMM tables, scalar arguments, the table base pointer and the cost-model
/// cycle weights) is read from JitArgs, so one cached kernel serves every box
/// and problem of a recursion and schedule — exactly the contract the bytecode
/// program already has.
///
/// The emitted code replicates the bytecode VM operation-for-operation
/// (one floating-point operation per emitted statement, compiled with
/// -ffp-contract=off, hexfloat literals for real immediates), so
/// results, cost counters and modelled cycle totals are bit-identical to
/// the VM and the AST oracle. The log-space helpers are not emitted but
/// embedded: every kernel's prelude prints the text of CellMath.h, the
/// header the AST walker and the VM compile, so there is one definition.
///
/// A log-space `sum` reduce folds with CellMath.h's online log-sum-exp
/// (pr_lse_add / pr_lse_result): one `exp` per element that does not
/// wait on the previous element's, and one `log` per cell. That `exp`
/// and `log` are CellMath.h's own table-driven pr_lse_exp and
/// pr_lse_log, so the sum calls no libm function. A reduce body reads
/// its own transition's start, end and log-prob from a packed array in
/// the set's CSR order, and the scan keeps the slot's counters in
/// locals. In parrec_scan every cell is evaluated on its own, in serial
/// point order.
///
/// A kernel may export a second entry point, parrec_scan_lanes
/// (JitLanesFn), which scans one partition for JitLanes problems at once
/// in the lanes of a host vector register, as inter-task GPU kernels
/// give each thread its own problem. The problems share a plan and every
/// argument but their sequences, so every lane takes the same path
/// through the body; CEmitter emits the entry only for bodies where no
/// branch, reduce set, table-read index or model index depends on a
/// sequence or a table value (forward, Viterbi and Smith-Waterman do;
/// edit distance, which branches on two characters, does not). Each lane
/// performs parrec_scan's floating-point operations in the same order,
/// with CellMath.h's lane forms of the sum, so each problem's bits are
/// parrec_scan's. The entry is compiled for AVX2 on x86-64 whatever the
/// host, so the source and its cache key do not depend on the host CPU,
/// and the host calls it only where the CPU has AVX2 (hostRunsLanes).
///
/// Compiled objects are cached on disk keyed by the schedule fingerprint
/// plus a hash of the emitted source, so other boxes and cold process
/// starts reuse warm kernels without invoking the compiler. Each object
/// exports the kernel ABI version, the hash of the source it was built
/// from and a copy of that source; a cached object whose ABI or hash
/// differs, or whose copy differs from the rendered text in any byte, is
/// removed and recompiled, never run. A process compiles a kernel once:
/// a request for a kernel that another thread is compiling waits for
/// that compile and shares its result, and the compiling thread loads
/// the object it built before publishing it, so it never runs one that
/// another process put at the cache path since. Any failure —
/// unsupported body shape, missing or broken host compiler, dlopen
/// error — degrades to the bytecode VM with a single warning line and a
/// `jit.fallbacks` metric; it is never an error.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_CODEGEN_NATIVEJIT_H
#define PARREC_CODEGEN_NATIVEJIT_H

#include "codegen/Bytecode.h"
#include "codegen/Evaluator.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace parrec {
namespace exec {
class ExecutablePlan;
} // namespace exec

namespace codegen {

/// POD mirrors of the VM's bound state, shared with the emitted C (which
/// declares structurally identical structs). Every member is 8 bytes, so
/// the layouts agree by construction on any common C ABI.
struct JitSeq {
  const char *Data;
  int64_t Len;
};

struct JitMatrix {
  const int64_t *Scores;  // size*size, row-major by alphabet index.
  const int64_t *CharIdx; // 256 entries; -1 outside the alphabet.
  int64_t Size;
  int64_t DefaultScore;
};

/// One entry of a CSR transition list: the transition and the operands
/// a reduce body reads of it, so reading them takes one load, not an
/// index load followed by a dependent one.
struct JitTrans {
  uint64_t Index;
  uint64_t From;
  uint64_t To;
  double LogProb; // The log cache's value for Index, bit for bit.
};

struct JitHmm {
  const double *LogTrans;      // One per transition (borrowed log cache).
  const double *Emissions;     // NumStates x Stride dense log emissions.
  const uint16_t *CharCol;     // 256-entry character -> emission column.
  const uint64_t *TransFrom;   // Per transition: source state.
  const uint64_t *TransTo;     // Per transition: target state.
  const uint64_t *StateIsStart; // Per state: 0/1.
  const uint64_t *StateIsEnd;
  const uint64_t *AdjInOff;    // CSR offsets (NumStates+1) into AdjIn.
  const JitTrans *AdjIn;       // transitionsTo lists, concatenated.
  const uint64_t *AdjOutOff;
  const JitTrans *AdjOut;      // transitionsFrom lists, concatenated.
  uint64_t Stride;             // Emission row stride (alphabet + 1).
};

/// Version of the kernel calling convention: JitArgs (with the JitHmm
/// and JitTrans it points to), JitSlot, JitKernelFn and JitLanesFn
/// below, mirrored by the emitted pr_args, pr_slot_t, parrec_scan and
/// parrec_scan_lanes. Every kernel exports it as `parrec_kernel_abi`,
/// and a cached object with another value is recompiled. Bump it
/// whenever any of them changes.
inline constexpr uint64_t JitKernelAbi = 4;

/// The problems one parrec_scan_lanes call scans: the doubles of a
/// 256-bit vector register.
inline constexpr unsigned JitLanes = 4;

/// Per-run kernel inputs: the binding plus the table base pointer and the
/// cost model's cycle weights (so one kernel serves both backends and
/// both table residencies), and what the box decides (so one kernel
/// serves every box).
struct JitArgs {
  const JitSeq *Seqs;
  const JitMatrix *Matrices;
  const JitHmm *Hmms;
  const int64_t *IntArgs;
  const double *RealArgs;
  double *Table;
  uint64_t CycOp;
  uint64_t CycTrans;
  uint64_t CycTable;
  uint64_t CycModel;
  const int64_t *NestParams; // ExecutablePlan::NestParams.
  const int64_t *Root;       // The root point, the box's upper corner.
  const uint64_t *Strides;   // The run's exec::TableLayout.
  uint64_t BaseIndex;
  uint64_t PlaneSize;
  int64_t MinPartition;
  int64_t FirstPartition;
  int64_t LastPartition;
};

/// Per-invocation outputs, folded into the caller's WorkerSlot: the wide
/// cost lanes (table writes include the per-cell store), cell count,
/// running table maximum and the root-cell capture.
struct JitSlot {
  uint64_t Ops;
  uint64_t TableReads;
  uint64_t TableWrites;
  uint64_t ModelReads;
  uint64_t Transcendentals;
  uint64_t Cells;
  double TableMax;
  double RootValue;
  uint64_t HasRoot;
};

/// The kernel entry point: scans partition \p P for simulated threads
/// [ThreadBegin, ThreadEnd) of a block of \p NumThreads, accumulating
/// into \p Slot and writing each thread's modelled cycle total to
/// \p ThreadCycles[t].
using JitKernelFn = void (*)(const JitArgs *Args, int64_t P,
                             uint32_t ThreadBegin, uint32_t ThreadEnd,
                             uint32_t NumThreads, int32_t CheckRoot,
                             JitSlot *Slot, uint64_t *ThreadCycles);

/// The lanes entry point: JitKernelFn for JitLanes problems of one plan
/// whose arguments differ only in their sequences. Lane l reads its
/// sequences from \p LaneSeqs[l] (Args->Seqs is not read) and slot s of
/// its table at Args->Table[s * JitLanes + l]; everything else in Args
/// is shared. \p Slots holds one JitSlot per lane: the counters, which
/// follow control flow alone and are the same in every lane, accumulate
/// in Slots[0], and lane l's table maximum and root go to Slots[l].
using JitLanesFn = void (*)(const JitArgs *Args, const JitSeq *const *LaneSeqs,
                            int64_t P, uint32_t ThreadBegin,
                            uint32_t ThreadEnd, uint32_t NumThreads,
                            int32_t CheckRoot, JitSlot *Slots,
                            uint64_t *ThreadCycles);

/// Whether this host runs a kernel's lanes entry, which is compiled for
/// AVX2: an x86-64 CPU with AVX2.
bool hostRunsLanes();

/// A resolved kernel holding its dlopen handle open for as long as any
/// plan references it.
class JitKernel {
public:
  JitKernel(void *Handle, JitKernelFn Fn, JitLanesFn LanesFn)
      : Handle(Handle), Fn(Fn), LanesFn(LanesFn) {}
  JitKernel(const JitKernel &) = delete;
  JitKernel &operator=(const JitKernel &) = delete;
  ~JitKernel();

  JitKernelFn fn() const { return Fn; }
  /// The lanes entry; null when the body has none or the host does not
  /// run it.
  JitLanesFn lanesFn() const { return LanesFn; }

private:
  void *Handle = nullptr;
  JitKernelFn Fn = nullptr;
  JitLanesFn LanesFn = nullptr;
};

/// The sequence table a kernel reads for \p Args (JitArgs::Seqs, or one
/// lane of a lanes scan): one entry per parameter, empty but for
/// sequences.
std::vector<JitSeq> jitSeqs(const BytecodeProgram &Prog,
                            const std::vector<ArgValue> &Args);

/// The per-binding state a jitted kernel consumes. Like BytecodeVM::bind
/// it borrows the Evaluator's log caches, dense emissions included, so
/// every probability the kernel reads is bit-identical to the VM's. The
/// Evaluator must stay alive and bound while the returned args are in
/// use.
class JitBinding {
public:
  JitBinding() = default;
  JitBinding(const JitBinding &) = delete;
  JitBinding &operator=(const JitBinding &) = delete;

  void bind(const BytecodeProgram &Prog, const Evaluator &Eval);

  /// Args with the binding pointers filled in; the caller sets Table,
  /// the cycle weights and the box's fields per run.
  JitArgs args() const { return Args; }

private:
  JitArgs Args{};
  std::vector<JitSeq> Seqs;
  std::vector<JitMatrix> Matrices;
  std::vector<JitHmm> Hmms;
  std::vector<int64_t> IntArgs;
  std::vector<double> RealArgs;

  struct MatrixData {
    std::vector<int64_t> Scores;
    std::vector<int64_t> CharIdx;
  };
  struct HmmData {
    std::vector<uint64_t> From, To, IsStart, IsEnd;
    std::vector<uint64_t> AdjInOff, AdjOutOff;
    std::vector<JitTrans> AdjIn, AdjOut;
  };
  std::vector<MatrixData> MatrixStore;
  std::vector<HmmData> HmmStore;
};

struct JitCompileOptions {
  /// On-disk shared-object cache directory. Empty resolves, in order, to
  /// $ParRec_JIT_CACHE, ~/.cache/parrec-jit.
  std::string CacheDir;
};

/// How compileKernel came by its result.
enum class JitOutcome {
  /// It ran the host compiler.
  Compiled,
  /// It loaded the kernel from the disk cache, or shared the result of
  /// a compile of the same kernel that was already running.
  Loaded,
  /// It fell back: no kernel.
  Failed,
};

/// Renders, compiles (or loads from the disk cache) and resolves the
/// kernel for \p Plan. Returns null on any failure after emitting a
/// once-per-process warning and bumping `jit.fallbacks`; callers then
/// keep using the bytecode VM. Records `jit.compile_ns` and bumps
/// `jit.cache_hits` / `jit.cache_misses`. A process compiles a kernel
/// once: a call for a kernel that another thread is loading or
/// compiling waits for it and shares its result (a hit, or the same
/// fallback). \p Outcome, when set, receives how the result came.
std::shared_ptr<const JitKernel>
compileKernel(const exec::ExecutablePlan &Plan,
              const JitCompileOptions &Opts,
              JitOutcome *Outcome = nullptr);

/// Whether a thread of this process is running the host compiler now.
/// A scan spread over several workers waits at a spin barrier every
/// partition, and a compile beside it stalls those barriers, so
/// serve::Engine scans serially while this holds.
bool compilerRunning();

/// Renders the C translation unit for \p Plan without compiling it,
/// ending with its `parrec_kernel_source_hash` definition and the
/// `parrec_kernel_source` copy of all text before it. Returns an
/// empty string when the plan has a shape the emitter does not support
/// (callers fall back to the VM). Exposed for tests.
std::string renderKernelSource(const exec::ExecutablePlan &Plan);

/// Number of fallback warning lines printed so far (0 or 1: the warning
/// is emitted once per process). Exposed for tests.
uint64_t jitWarningsEmitted();

} // namespace codegen
} // namespace parrec

#endif // PARREC_CODEGEN_NATIVEJIT_H
