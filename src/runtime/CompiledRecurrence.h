//===- CompiledRecurrence.h - End-to-end compilation & execution --*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's main entry point: compile a DSL recursion, then run
/// problems through the staged execution pipeline — planning (schedule +
/// sliding window + loop nest, memoised in a per-function PlanCache) and
/// execution (a pluggable ExecutionBackend: the serial CPU reference or
/// the simulated GPU with thread striping, Sections 4.3-4.8). Batches
/// simulate the device's independent multiprocessors across host worker
/// threads with bit-identical, order-deterministic results.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_RUNTIME_COMPILEDRECURRENCE_H
#define PARREC_RUNTIME_COMPILEDRECURRENCE_H

#include "codegen/Bytecode.h"
#include "codegen/Evaluator.h"
#include "exec/ExecutionBackend.h"
#include "exec/PlanCache.h"
#include "gpu/Device.h"
#include "lang/Sema.h"
#include "solver/ScheduleSynthesis.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace parrec {
namespace compiler {
struct FrontendResult;
} // namespace compiler
namespace runtime {

// The run request/result types live in the exec layer with the backends;
// they are re-exported here for the library's public API.
using exec::BatchResult;
using exec::EvalKind;
using exec::RunOptions;
using exec::RunResult;

/// A compiled recursive function, ready to run against bindings.
class CompiledRecurrence {
public:
  /// Compiles DSL source containing exactly one function definition.
  /// \p ExtraAlphabets extends the builtin alphabet set (dna, rna,
  /// protein, en).
  static std::optional<CompiledRecurrence>
  compile(const std::string &Source, DiagnosticEngine &Diags,
          std::vector<std::string> ExtraAlphabets = {});

  /// Compiles an already-parsed declaration.
  static std::optional<CompiledRecurrence>
  fromDecl(std::unique_ptr<lang::FunctionDecl> Decl,
           DiagnosticEngine &Diags,
           std::vector<std::string> ExtraAlphabets = {});

  CompiledRecurrence(CompiledRecurrence &&) = default;
  CompiledRecurrence &operator=(CompiledRecurrence &&) = default;

  const lang::FunctionDecl &decl() const { return *Decl; }
  const lang::FunctionInfo &info() const { return Info; }

  /// A process-unique identity, drawn when the function is compiled and
  /// carried along by moves. Unlike the object's address it is never
  /// reused, so caches that outlive one function (serve::MemoCache) key
  /// on it.
  uint64_t id() const { return Id; }

  /// The cell body compiled to bytecode (built once at compile time and
  /// attached to every plan), or null when the body falls back to the
  /// AST evaluator.
  const std::shared_ptr<const codegen::BytecodeProgram> &bytecode() const {
    return Bytecode;
  }

  /// Derives the domain box for a set of calling arguments (sequence
  /// lengths, state counts, integer initial values).
  std::optional<solver::DomainBox>
  domainFor(const std::vector<codegen::ArgValue> &Args,
            DiagnosticEngine &Diags) const;

  /// The minimal-partition schedule for \p Box (Section 4.6).
  std::optional<solver::Schedule>
  scheduleFor(const solver::DomainBox &Box, DiagnosticEngine &Diags) const;

  /// The compile-time conditional schedule set (Section 4.7); cached.
  /// Empty optional when derivation fails (non-uniform descents).
  const std::optional<std::vector<solver::ConditionalSchedule>> &
  conditionalSchedules(DiagnosticEngine &Diags) const;

  /// The executable plan for \p Box under \p Options: schedule, sliding
  /// window decision, loop nest and partition range. Served from the
  /// function's plan cache when a same-shaped problem already ran;
  /// synthesised, generated and cached otherwise. \p Preselected (may be
  /// null) is a schedule chosen by conditional parallelisation. The
  /// trailing cost-model parameter is unused: planning never consults a
  /// cost model, and it remains only for source compatibility with
  /// existing callers. Returns null after reporting diagnostics on
  /// failure.
  std::shared_ptr<const exec::ExecutablePlan>
  planFor(const solver::DomainBox &Box, const RunOptions &Options,
          const solver::Schedule *Preselected, DiagnosticEngine &Diags,
          const gpu::CostModel *CostModel = nullptr) const;

  /// Hit/miss/eviction counters of the plan cache (e.g. to assert that a
  /// repeated run skipped synthesis).
  exec::PlanCache::Stats planCacheStats() const { return Plans->stats(); }

  /// Drops all cached plans and resets the counters.
  void clearPlanCache() const { Plans->clear(); }

  /// Runs one problem serially on the (modelled) CPU.
  std::optional<RunResult> runCpu(const std::vector<codegen::ArgValue> &Args,
                                  const gpu::CostModel &Model,
                                  DiagnosticEngine &Diags,
                                  const RunOptions &Options = {}) const;

  /// Runs one problem on the simulated GPU, one block on one
  /// multiprocessor (the intra-task scheme the paper synthesises).
  std::optional<RunResult> runGpu(const std::vector<codegen::ArgValue> &Args,
                                  const gpu::Device &Device,
                                  DiagnosticEngine &Diags,
                                  const RunOptions &Options = {}) const;

  /// Runs many problems on the simulated GPU, dispatching one problem per
  /// multiprocessor with per-problem conditional schedules (Section 4.7).
  /// With RunOptions::Pipeline the batch is dispatched systolically —
  /// consecutive problems' partitions overlap on each multiprocessor and
  /// BatchResult::CompletionCycles records when each problem resolves.
  /// It changes only the modelled wall clock, never per-problem
  /// results. Problems are simulated concurrently across host worker threads
  /// (RunOptions::BatchWorkers); results are bit-identical for any
  /// worker count.
  std::optional<BatchResult>
  runGpuBatch(const std::vector<std::vector<codegen::ArgValue>> &Problems,
              const gpu::Device &Device, DiagnosticEngine &Diags,
              const RunOptions &Options = {}) const;

private:
  CompiledRecurrence() = default;

  /// Packages what the frontend made of the function, or nullopt when it
  /// failed; shared by compile() and fromDecl().
  static std::optional<CompiledRecurrence>
  fromFrontend(std::optional<compiler::FrontendResult> &&F);

  /// Shared single-problem path: plan (cached), bind, execute.
  std::optional<RunResult>
  runSingle(const std::vector<codegen::ArgValue> &Args,
            const exec::ExecutionBackend &Backend, DiagnosticEngine &Diags,
            const RunOptions &Options) const;

  uint64_t Id = 0;
  std::unique_ptr<lang::FunctionDecl> Decl;
  lang::FunctionInfo Info;
  std::shared_ptr<const codegen::BytecodeProgram> Bytecode;
  mutable std::optional<std::optional<std::vector<solver::ConditionalSchedule>>>
      ConditionalCache;
  /// Plans keyed by domain box + options fingerprint; behind a
  /// unique_ptr so the (mutex-holding) cache survives moves.
  mutable std::unique_ptr<exec::PlanCache> Plans;
};

} // namespace runtime
} // namespace parrec

#endif // PARREC_RUNTIME_COMPILEDRECURRENCE_H
