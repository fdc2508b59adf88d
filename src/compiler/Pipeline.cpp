//===- Pipeline.cpp - The compiler's two pass sequences -----------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "compiler/Pipeline.h"

#include "codegen/Evaluator.h"
#include "codegen/NativeJit.h"
#include "exec/Table.h"
#include "lang/Parser.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "poly/LoopGen.h"
#include "solver/ScheduleSynthesis.h"

#include <cassert>
#include <chrono>

using namespace parrec;
using namespace parrec::compiler;

namespace {

/// The passes, indexing PassNames.
enum class PassId : unsigned {
  Parse,
  Sema,
  Dependence,
  Validate,
  Bytecode,
  ScheduleSynthesis,
  SlidingWindow,
  LoopGen,
  Finalize,
  Jit,
};
static_assert(PassNames.size() == static_cast<unsigned>(PassId::Jit) + 1);

/// Runs one pass: \p Body inside span "compile.<name>", its wall time
/// recorded as a "compile.pass.<name>.ns" sample. Returns what \p Body
/// returns: false when the pass failed after reporting diagnostics.
template <typename PassBody> bool runPass(PassId Id, PassBody &&Body) {
  const std::string Name(PassNames[static_cast<unsigned>(Id)]);
  auto T0 = std::chrono::steady_clock::now();
  bool Ok;
  {
    obs::Span S("compile." + Name, "compiler");
    Ok = Body(S);
  }
  auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - T0)
                .count();
  obs::MetricsRegistry::global().record("compile.pass." + Name + ".ns",
                                        static_cast<double>(Ns));
  return Ok;
}

/// The frontend, inside one compile.function span: parse (over \p Source,
/// only when \p Decl is null) -> sema -> dependence -> validate ->
/// bytecode.
std::optional<FrontendResult>
runFrontendPasses(const std::string *Source,
                  std::unique_ptr<lang::FunctionDecl> Decl,
                  const std::vector<std::string> &Alphabets,
                  DiagnosticEngine &Diags) {
  obs::Span FunctionSpan("compile.function", "compiler");
  if (!Decl && !runPass(PassId::Parse, [&](obs::Span &S) {
        lang::Parser P(*Source, Diags);
        Decl = P.parseFunctionOnly();
        if (!Decl || Diags.hasErrors())
          return false;
        if (S.active())
          S.arg("function", Decl->Name);
        return true;
      }))
    return std::nullopt;

  lang::Sema Sema(Diags, Alphabets);
  std::optional<lang::FunctionInfo> Info;
  if (!runPass(PassId::Sema, [&](obs::Span &S) {
        if (S.active())
          S.arg("function", Decl->Name);
        Info = Sema.analyzeTypes(*Decl);
        return Info.has_value();
      }))
    return std::nullopt;

  if (!runPass(PassId::Dependence, [&](obs::Span &S) {
        if (!Sema.analyzeDependence(*Decl, *Info))
          return false;
        if (S.active())
          S.arg("recursive_calls",
                static_cast<uint64_t>(Info->Recurrence.Calls.size()));
        return true;
      }))
    return std::nullopt;

  if (!runPass(PassId::Validate, [&](obs::Span &) {
        return codegen::validateForExecution(*Decl, Diags);
      }))
    return std::nullopt;

  std::shared_ptr<const codegen::BytecodeProgram> Bytecode;
  runPass(PassId::Bytecode, [&](obs::Span &S) {
    if (S.active())
      S.arg("function", Decl->Name);
    // A null program is not an error: the backend falls back to the AST
    // evaluator for unsupported constructs.
    Bytecode = codegen::compileToBytecode(*Decl, *Info);
    if (S.active()) {
      S.arg("compiled", Bytecode != nullptr);
      if (Bytecode)
        S.arg("instructions", static_cast<uint64_t>(Bytecode->Code.size()));
    }
    return true;
  });

  if (FunctionSpan.active())
    FunctionSpan.arg("function", Decl->Name);
  return FrontendResult{std::move(Decl), std::move(*Info),
                        std::move(Bytecode)};
}

} // namespace

std::optional<FrontendResult>
compiler::runFrontend(const std::string &Source,
                      const std::vector<std::string> &Alphabets,
                      DiagnosticEngine &Diags) {
  return runFrontendPasses(&Source, nullptr, Alphabets, Diags);
}

std::optional<FrontendResult>
compiler::runFrontend(std::unique_ptr<lang::FunctionDecl> Decl,
                      const std::vector<std::string> &Alphabets,
                      DiagnosticEngine &Diags) {
  assert(Decl && "runFrontend needs a parsed function");
  return runFrontendPasses(nullptr, std::move(Decl), Alphabets, Diags);
}

std::optional<exec::ExecutablePlan>
compiler::buildPlan(const solver::RecurrenceSpec &Rec,
                    const solver::DomainBox &Box, const PlanRequest &Req,
                    DiagnosticEngine &Diags) {
  obs::Span PlanSpan("exec.build_plan", "exec");
  if (PlanSpan.active()) {
    PlanSpan.arg("function", Rec.Name);
    PlanSpan.arg("dims", static_cast<uint64_t>(Box.numDims()));
  }
  // The nest's parameters are the box's extents, so x_d starts at 0.
  if (Box.Lower != std::vector<int64_t>(Box.numDims(), 0)) {
    Diags.error({}, "the box of '" + Rec.Name + "' is not at the origin");
    return std::nullopt;
  }
  exec::ExecutablePlan Plan;
  Plan.Box = Box;
  Plan.Program = Req.Program;

  if (!runPass(PassId::ScheduleSynthesis, [&](obs::Span &S) {
        if (S.active()) {
          S.arg("function", Rec.Name);
          S.arg("dims", static_cast<uint64_t>(Box.numDims()));
        }
        if (Req.ForcedSchedule) {
          if (!solver::verifySchedule(Rec, *Req.ForcedSchedule, Box, Diags))
            return false;
          Plan.Sched = *Req.ForcedSchedule;
        } else if (Req.PreselectedSchedule) {
          Plan.Sched = *Req.PreselectedSchedule;
        } else {
          std::optional<solver::Schedule> Minimal =
              solver::findMinimalSchedule(Rec, Box, Diags);
          if (!Minimal)
            return false;
          Plan.Sched = std::move(*Minimal);
        }
        if (S.active())
          S.arg("schedule", Plan.Sched.str(Rec.DimNames));
        return true;
      }))
    return std::nullopt;

  // Section 4.8: compress the table when enabled and legal. Keeping the
  // full table for later reads forbids the window.
  runPass(PassId::SlidingWindow, [&](obs::Span &S) {
    bool Want = Req.UseSlidingWindow && !Req.KeepTable;
    std::optional<int64_t> Window =
        solver::slidingWindowDepth(Rec, Plan.Sched);
    int DropDim = Window ? exec::pickWindowDropDim(Plan.Sched, Box) : -1;
    if (Want && Window && DropDim >= 0) {
      Plan.UseWindow = true;
      Plan.WindowDepth = *Window;
      Plan.WindowDropDim = static_cast<unsigned>(DropDim);
    }
    if (S.active()) {
      S.arg("window", Plan.UseWindow);
      if (Plan.UseWindow)
        S.arg("depth", static_cast<uint64_t>(Plan.WindowDepth));
    }
    return true;
  });

  // Section 4.3: the recursion's nest under the schedule, CLooG-style,
  // with the box's extents as its parameter values.
  runPass(PassId::LoopGen, [&](obs::Span &S) {
    Plan.Nest = poly::generateBoxLoops(Rec.DimNames, Plan.Sched.Coefficients);
    for (unsigned D = 0; D != Box.numDims(); ++D)
      Plan.NestParams.push_back(Box.extent(D));
    if (S.active())
      S.arg("dims", static_cast<uint64_t>(Box.numDims()));
    return true;
  });

  if (!runPass(PassId::Finalize, [&](obs::Span &S) {
        auto TimeRange = Plan.Nest.timeRange(Plan.NestParams);
        if (!TimeRange) {
          Diags.error({}, "empty domain for '" + Rec.Name + "'");
          return false;
        }
        Plan.FirstPartition = TimeRange->first;
        Plan.LastPartition = TimeRange->second;
        Plan.RootPartition = Plan.Sched.apply(Box.Upper);
        if (S.active())
          S.arg("partitions", static_cast<uint64_t>(Plan.numPartitions()));
        return true;
      }))
    return std::nullopt;

  // compileKernel owns the fallback path: on any failure it warns once,
  // bumps jit.fallbacks and returns null, and the backend keeps using the
  // bytecode VM — a JIT problem never fails planning.
  if (Req.Jit)
    runPass(PassId::Jit, [&](obs::Span &S) {
      codegen::JitCompileOptions Opts;
      Opts.CacheDir = Req.JitCacheDir;
      Plan.Kernel = codegen::compileKernel(Plan, Opts);
      if (S.active())
        S.arg("compiled", Plan.Kernel != nullptr);
      return true;
    });
  return Plan;
}
