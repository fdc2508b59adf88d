//===- Pipeline.h - The compiler's two pass sequences -------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler as two fixed sequences of passes, each a straight-line
/// function:
///   frontend: parse -> sema -> dependence -> validate -> bytecode
///   planning: schedule_synthesis -> sliding_window -> loopgen
///             -> finalize [-> jit]
/// `CompiledRecurrence::compile`/`fromDecl` run the frontend once per
/// function and `CompiledRecurrence::planFor` runs planning once per
/// (box, options) shape. One helper runs every pass inside an obs::Span
/// ("compile.<name>") and records its duration ("compile.pass.<name>.ns"),
/// so phase instrumentation lives in exactly one place, and the names
/// come from PassNames, which `parrec run --dump-passes` prints.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_COMPILER_PIPELINE_H
#define PARREC_COMPILER_PIPELINE_H

#include "codegen/Bytecode.h"
#include "exec/Plan.h"
#include "lang/Sema.h"
#include "solver/Recurrence.h"
#include "support/Diagnostics.h"

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace parrec {
namespace compiler {

/// Every pass's name in run order: the frontend's five, then planning's
/// five. A name is also the pass's observability name: span
/// "compile.<name>", duration distribution "compile.pass.<name>.ns".
inline constexpr std::array<std::string_view, 10> PassNames = {
    // frontend
    "parse", "sema", "dependence", "validate", "bytecode",
    // planning
    "schedule_synthesis", "sliding_window", "loopgen", "finalize", "jit"};

/// What the frontend makes of one function.
struct FrontendResult {
  std::unique_ptr<lang::FunctionDecl> Decl;
  lang::FunctionInfo Info;
  /// The cell body compiled to bytecode; null when the body uses a
  /// construct the bytecode compiler does not support, in which case the
  /// backend falls back to the AST evaluator.
  std::shared_ptr<const codegen::BytecodeProgram> Bytecode;
};

/// Runs the frontend over \p Source, which holds exactly one function
/// definition, inside one "compile.function" span. \p Alphabets lists the
/// alphabet names usable in seq/char/matrix types. Returns nullopt after
/// reporting diagnostics.
std::optional<FrontendResult>
runFrontend(const std::string &Source,
            const std::vector<std::string> &Alphabets,
            DiagnosticEngine &Diags);

/// Runs the frontend over an already-parsed function: every pass but
/// parse.
std::optional<FrontendResult>
runFrontend(std::unique_ptr<lang::FunctionDecl> Decl,
            const std::vector<std::string> &Alphabets,
            DiagnosticEngine &Diags);

/// What planning is asked for. The two schedule pointers (either may be
/// null) distinguish a user-forced schedule — which must be re-verified
/// against the dependency criteria — from one preselected by the Section
/// 4.7 conditional-schedule machinery, which is valid by construction.
struct PlanRequest {
  bool UseSlidingWindow = true;
  bool KeepTable = false;
  const solver::Schedule *ForcedSchedule = nullptr;
  const solver::Schedule *PreselectedSchedule = nullptr;
  /// The function's compiled cell body (may be null when the body is not
  /// bytecode-compilable). Compiled once per function, handed to every
  /// plan — planning never re-runs the bytecode compiler.
  std::shared_ptr<const codegen::BytecodeProgram> Program;
  /// Run the jit pass after finalize: render the plan as C, compile it
  /// with the system compiler and attach the resolved kernel
  /// (RunOptions::Evaluator == Jit / `parrec run --evaluator=jit`). A JIT
  /// failure falls back to the bytecode VM and never fails planning.
  bool Jit = false;
  /// On-disk shared-object cache directory override for the jit pass;
  /// empty resolves to $ParRec_JIT_CACHE then ~/.cache/parrec-jit.
  /// Never part of the PlanKey.
  std::string JitCacheDir;
};

/// Plans \p Box inside one "exec.build_plan" span: resolves the schedule
/// per \p Req, decides the sliding window, generates the loop nest, takes
/// the partition range and, when asked, jits the kernel. Reports
/// diagnostics and returns nullopt on failure (a box whose lower corner
/// is not the origin, an invalid forced schedule, no valid schedule, an
/// empty domain).
std::optional<exec::ExecutablePlan>
buildPlan(const solver::RecurrenceSpec &Rec, const solver::DomainBox &Box,
          const PlanRequest &Req, DiagnosticEngine &Diags);

} // namespace compiler
} // namespace parrec

#endif // PARREC_COMPILER_PIPELINE_H
