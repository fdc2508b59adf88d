//===- Pipeline.h - The compiler pass pipeline --------------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler as an explicit pass pipeline. A CompilationModule carries
/// every artifact the phases used to thread by hand — source, AST, sema
/// results, the solver's recurrence view, the resolved schedule, the poly
/// loop nest and the bytecode program — and a PassPipeline runs named
/// Passes over it. The pipeline wrapper gives every pass an obs::Span
/// ("compile.<name>") and a duration metric ("compile.pass.<name>.ns")
/// for free, so phase instrumentation lives in exactly one place.
///
/// Two default pipelines cover the legacy hardwired chains:
///   frontend: parse -> sema -> dependence -> validate -> bytecode
///   planning: schedule_synthesis -> sliding_window -> loopgen
///             -> finalize [-> jit]
/// `CompiledRecurrence::compile`/`fromDecl` and `exec::buildPlan` are thin
/// wrappers over them, so every existing caller goes through the pipeline
/// unchanged. Individual passes can be disabled for debugging via
/// setDisabledPasses (`parrec run --disable-pass=<name>`); downstream
/// passes fail with a diagnostic, never a crash, when a prerequisite
/// artifact is missing.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_COMPILER_PIPELINE_H
#define PARREC_COMPILER_PIPELINE_H

#include "codegen/Bytecode.h"
#include "exec/Plan.h"
#include "lang/Sema.h"
#include "obs/Trace.h"
#include "solver/Recurrence.h"
#include "support/Diagnostics.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace parrec {
namespace compiler {

/// Everything the passes read and write. Frontend runs start from Source
/// (or a pre-parsed Decl) and fill Info/Bytecode; planning runs start
/// from a recurrence + box + request and fill Plan. One module may carry
/// both halves, but the default wrappers use one half at a time — the
/// frontend once per function, planning once per (box, options) shape.
struct CompilationModule {
  DiagnosticEngine &Diags;

  // --- Frontend artifacts -----------------------------------------------
  /// DSL source holding exactly one function definition; unused (and the
  /// parse pass skipped) when Decl is already present.
  const std::string *Source = nullptr;
  /// Alphabet names usable in seq/char/matrix types.
  std::vector<std::string> Alphabets;
  std::unique_ptr<lang::FunctionDecl> Decl;
  std::optional<lang::FunctionInfo> Info;
  std::shared_ptr<const codegen::BytecodeProgram> Bytecode;

  // --- Planning artifacts -----------------------------------------------
  /// The recurrence planned against; when null, Info's recurrence is
  /// used (a module that ran the frontend plans itself).
  const solver::RecurrenceSpec *Recurrence = nullptr;
  std::optional<solver::DomainBox> Box;
  exec::PlanRequest Request;
  /// Built up across the planning passes: schedule_synthesis resolves
  /// Sched, sliding_window the window fields, loopgen the nest, finalize
  /// the partition range.
  std::optional<exec::ExecutablePlan> Plan;

  explicit CompilationModule(DiagnosticEngine &Diags) : Diags(Diags) {}

  const solver::RecurrenceSpec &recurrence() const {
    return Recurrence ? *Recurrence : Info->Recurrence;
  }
};

/// One named phase. The pipeline provides the span and duration metric;
/// the body only does the work (and may attach span args). Returning
/// false aborts the pipeline after the pass reported diagnostics.
struct Pass {
  /// Pass names double as observability names: span "compile.<Name>",
  /// metric "compile.pass.<Name>.ns".
  std::string Name;
  /// Optional: true skips the pass without span or metric (e.g. parse
  /// when the module already carries an AST, jit when the request does
  /// not ask for it).
  std::function<bool(const CompilationModule &)> Skip;
  std::function<bool(CompilationModule &, obs::Span &)> Run;
};

/// An ordered list of passes run over a module. Pipelines are immutable
/// once built and safe to share across threads.
class PassPipeline {
public:
  PassPipeline &addPass(Pass P) {
    Passes.push_back(std::move(P));
    return *this;
  }
  PassPipeline &addPass(std::string Name,
                        std::function<bool(CompilationModule &, obs::Span &)>
                            Run) {
    return addPass(Pass{std::move(Name), nullptr, std::move(Run)});
  }

  /// Runs every (non-disabled, non-skipped) pass in registration order,
  /// wrapping each in an obs::Span named "compile.<pass>" and recording
  /// a "compile.pass.<pass>.ns" duration sample. Stops at the first
  /// failing pass and returns false.
  bool run(CompilationModule &M) const;

  std::vector<std::string> passNames() const;
  size_t size() const { return Passes.size(); }

private:
  std::vector<Pass> Passes;
};

/// The default frontend pipeline: parse, sema, dependence, validate,
/// bytecode.
const PassPipeline &frontendPipeline();

/// The default planning pipeline: schedule_synthesis, sliding_window,
/// loopgen, finalize, jit. The jit pass renders the finished plan as C,
/// compiles it with the system compiler and attaches the resolved
/// kernel; a JIT failure falls back to the bytecode VM and never fails
/// the pipeline. It is skipped, with no span or metric, unless the
/// request asks for it (RunOptions::Evaluator == Jit / --evaluator=jit).
const PassPipeline &planningPipeline();

/// Runs the default frontend pipeline over \p M.
bool runFrontend(CompilationModule &M);

/// Process-global debugging knob behind `parrec run --disable-pass=`:
/// disabled passes are skipped by every pipeline run. Not synchronised
/// against in-flight pipelines — set it before running, as the CLI does.
void setDisabledPasses(std::vector<std::string> Names);
std::vector<std::string> disabledPasses();
bool isPassDisabled(std::string_view Name);

/// True when \p Name names a registered pass of any default pipeline.
bool isKnownPass(std::string_view Name);

/// Every registered pass name in registration order: the frontend
/// passes, then the planning passes.
std::vector<std::string> allPassNames();

} // namespace compiler
} // namespace parrec

#endif // PARREC_COMPILER_PIPELINE_H
