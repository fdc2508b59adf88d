//===- Pipeline.cpp - The compiler pass pipeline ------------------------------==//
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
#include "poly/LoopGen.h"
#include "solver/ScheduleSynthesis.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>

using namespace parrec;
using namespace parrec::compiler;

//===----------------------------------------------------------------------===//
// Disabled passes (process-global debugging knob)
//===----------------------------------------------------------------------===//

namespace {
std::mutex DisabledMutex;
std::vector<std::string> DisabledPasses;
// Fast path: pipelines check one relaxed atomic before taking the lock,
// so the knob costs nothing when unused (the common case).
std::atomic<bool> AnyDisabled{false};
} // namespace

void compiler::setDisabledPasses(std::vector<std::string> Names) {
  std::lock_guard<std::mutex> Lock(DisabledMutex);
  DisabledPasses = std::move(Names);
  AnyDisabled.store(!DisabledPasses.empty(), std::memory_order_relaxed);
}

std::vector<std::string> compiler::disabledPasses() {
  std::lock_guard<std::mutex> Lock(DisabledMutex);
  return DisabledPasses;
}

bool compiler::isPassDisabled(std::string_view Name) {
  if (!AnyDisabled.load(std::memory_order_relaxed))
    return false;
  std::lock_guard<std::mutex> Lock(DisabledMutex);
  return std::find(DisabledPasses.begin(), DisabledPasses.end(), Name) !=
         DisabledPasses.end();
}

//===----------------------------------------------------------------------===//
// PassPipeline
//===----------------------------------------------------------------------===//

bool PassPipeline::run(CompilationModule &M) const {
  for (const Pass &P : Passes) {
    if (isPassDisabled(P.Name))
      continue;
    if (P.Skip && P.Skip(M))
      continue;
    auto T0 = std::chrono::steady_clock::now();
    bool Ok;
    {
      obs::Span PassSpan("compile." + P.Name, "compiler");
      Ok = P.Run(M, PassSpan);
    }
    auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
    obs::MetricsRegistry::global().record("compile.pass." + P.Name + ".ns",
                                          static_cast<double>(Ns));
    if (!Ok)
      return false;
  }
  return true;
}

std::vector<std::string> PassPipeline::passNames() const {
  std::vector<std::string> Names;
  Names.reserve(Passes.size());
  for (const Pass &P : Passes)
    Names.push_back(P.Name);
  return Names;
}

//===----------------------------------------------------------------------===//
// Frontend passes
//===----------------------------------------------------------------------===//

namespace {

/// Guard helper: report a missing prerequisite (almost always a disabled
/// upstream pass) instead of crashing.
bool missing(CompilationModule &M, const char *PassName,
             const char *What) {
  M.Diags.error({}, std::string("pass '") + PassName + "' requires " +
                        What + " (was an earlier pass disabled?)");
  return false;
}

bool passParse(CompilationModule &M, obs::Span &S) {
  if (!M.Source)
    return missing(M, "parse", "DSL source");
  lang::Parser P(*M.Source, M.Diags);
  M.Decl = P.parseFunctionOnly();
  if (!M.Decl || M.Diags.hasErrors())
    return false;
  if (S.active())
    S.arg("function", M.Decl->Name);
  return true;
}

bool passSema(CompilationModule &M, obs::Span &S) {
  if (!M.Decl)
    return missing(M, "sema", "a parsed function");
  if (S.active())
    S.arg("function", M.Decl->Name);
  lang::Sema Sema(M.Diags, M.Alphabets);
  M.Info = Sema.analyzeTypes(*M.Decl);
  return M.Info.has_value();
}

bool passDependence(CompilationModule &M, obs::Span &S) {
  if (!M.Decl || !M.Info)
    return missing(M, "dependence", "sema results");
  lang::Sema Sema(M.Diags, M.Alphabets);
  if (!Sema.analyzeDependence(*M.Decl, *M.Info))
    return false;
  if (S.active())
    S.arg("recursive_calls",
          static_cast<uint64_t>(M.Info->Recurrence.Calls.size()));
  return true;
}

bool passValidate(CompilationModule &M, obs::Span &) {
  if (!M.Decl)
    return missing(M, "validate", "a parsed function");
  return codegen::validateForExecution(*M.Decl, M.Diags);
}

bool passBytecode(CompilationModule &M, obs::Span &S) {
  if (!M.Decl || !M.Info)
    return missing(M, "bytecode", "sema results");
  if (S.active())
    S.arg("function", M.Decl->Name);
  // A null program is not an error: the backend falls back to the AST
  // evaluator for unsupported constructs.
  M.Bytecode = codegen::compileToBytecode(*M.Decl, *M.Info);
  if (S.active()) {
    S.arg("compiled", M.Bytecode != nullptr);
    if (M.Bytecode)
      S.arg("instructions",
            static_cast<uint64_t>(M.Bytecode->Code.size()));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Planning passes
//===----------------------------------------------------------------------===//

bool passScheduleSynthesis(CompilationModule &M, obs::Span &S) {
  if (!M.Box || !M.Plan)
    return missing(M, "schedule_synthesis", "a planning request");
  const solver::RecurrenceSpec &Rec = M.recurrence();
  if (S.active()) {
    S.arg("function", Rec.Name);
    S.arg("dims", static_cast<uint64_t>(M.Box->numDims()));
  }
  // Forced, preselected (batch), or freshly minimised — the same
  // precedence the hardwired chain applied.
  if (M.Request.ForcedSchedule) {
    if (!solver::verifySchedule(Rec, *M.Request.ForcedSchedule, *M.Box,
                                M.Diags))
      return false;
    M.Plan->Sched = *M.Request.ForcedSchedule;
  } else if (M.Request.PreselectedSchedule) {
    M.Plan->Sched = *M.Request.PreselectedSchedule;
  } else {
    std::optional<solver::Schedule> Minimal =
        solver::findMinimalSchedule(Rec, *M.Box, M.Diags);
    if (!Minimal)
      return false;
    M.Plan->Sched = std::move(*Minimal);
  }
  if (S.active())
    S.arg("schedule", M.Plan->Sched.str(Rec.DimNames));
  return true;
}

bool passSlidingWindow(CompilationModule &M, obs::Span &S) {
  if (!M.Box || !M.Plan)
    return missing(M, "sliding_window", "a planning request");
  if (M.Plan->Sched.Coefficients.size() != M.Box->numDims())
    return missing(M, "sliding_window", "a resolved schedule");
  // Section 4.8: compress the table when enabled and legal. Keeping the
  // full table for later reads forbids the window.
  bool Want = M.Request.UseSlidingWindow && !M.Request.KeepTable;
  std::optional<int64_t> Window =
      solver::slidingWindowDepth(M.recurrence(), M.Plan->Sched);
  int DropDim =
      Window ? exec::pickWindowDropDim(M.Plan->Sched, *M.Box) : -1;
  if (Want && Window && DropDim >= 0) {
    M.Plan->UseWindow = true;
    M.Plan->WindowDepth = *Window;
    M.Plan->WindowDropDim = static_cast<unsigned>(DropDim);
  }
  if (S.active()) {
    S.arg("window", M.Plan->UseWindow);
    if (M.Plan->UseWindow)
      S.arg("depth", static_cast<uint64_t>(M.Plan->WindowDepth));
  }
  return true;
}

bool passLoopGen(CompilationModule &M, obs::Span &S) {
  if (!M.Box || !M.Plan)
    return missing(M, "loopgen", "a planning request");
  if (M.Plan->Sched.Coefficients.size() != M.Box->numDims())
    return missing(M, "loopgen", "a resolved schedule");
  // Section 4.3: the recursion's nest under the schedule, CLooG-style,
  // with the box's extents as its parameter values.
  M.Plan->Nest = poly::generateBoxLoops(M.recurrence().DimNames,
                                        M.Plan->Sched.Coefficients);
  for (unsigned D = 0; D != M.Box->numDims(); ++D)
    M.Plan->NestParams.push_back(M.Box->extent(D));
  if (S.active())
    S.arg("dims", static_cast<uint64_t>(M.Box->numDims()));
  return true;
}

bool passFinalize(CompilationModule &M, obs::Span &S) {
  if (!M.Box || !M.Plan)
    return missing(M, "finalize", "a planning request");
  auto TimeRange = M.Plan->Nest.timeRange(M.Plan->NestParams);
  if (!TimeRange) {
    M.Diags.error({}, "empty domain for '" + M.recurrence().Name + "'");
    return false;
  }
  M.Plan->FirstPartition = TimeRange->first;
  M.Plan->LastPartition = TimeRange->second;
  M.Plan->RootPartition = M.Plan->Sched.apply(M.Box->Upper);
  if (S.active())
    S.arg("partitions", static_cast<uint64_t>(M.Plan->numPartitions()));
  return true;
}

bool passJit(CompilationModule &M, obs::Span &S) {
  if (!M.Box || !M.Plan)
    return missing(M, "jit", "a planning request");
  codegen::JitCompileOptions Opts;
  Opts.CacheDir = M.Request.JitCacheDir;
  // compileKernel owns the fallback path: on any failure it warns once,
  // bumps jit.fallbacks and returns null, and the backend keeps using
  // the bytecode VM — a JIT problem never fails compilation.
  M.Plan->Kernel = codegen::compileKernel(*M.Plan, Opts);
  if (S.active())
    S.arg("compiled", M.Plan->Kernel != nullptr);
  return true;
}

PassPipeline makeFrontendPipeline() {
  PassPipeline P;
  P.addPass(Pass{"parse",
                 [](const CompilationModule &M) { return M.Decl != nullptr; },
                 passParse});
  P.addPass("sema", passSema);
  P.addPass("dependence", passDependence);
  P.addPass("validate", passValidate);
  P.addPass("bytecode", passBytecode);
  return P;
}

PassPipeline makePlanningPipeline() {
  PassPipeline P;
  P.addPass("schedule_synthesis", passScheduleSynthesis);
  P.addPass("sliding_window", passSlidingWindow);
  P.addPass("loopgen", passLoopGen);
  P.addPass("finalize", passFinalize);
  P.addPass(Pass{"jit",
                 [](const CompilationModule &M) { return !M.Request.Jit; },
                 passJit});
  return P;
}

} // namespace

const PassPipeline &compiler::frontendPipeline() {
  static const PassPipeline P = makeFrontendPipeline();
  return P;
}

const PassPipeline &compiler::planningPipeline() {
  static const PassPipeline P = makePlanningPipeline();
  return P;
}

bool compiler::runFrontend(CompilationModule &M) {
  return frontendPipeline().run(M);
}

std::vector<std::string> compiler::allPassNames() {
  std::vector<std::string> Names = frontendPipeline().passNames();
  for (std::string &N : planningPipeline().passNames())
    Names.push_back(std::move(N));
  return Names;
}

bool compiler::isKnownPass(std::string_view Name) {
  for (const std::string &N : allPassNames())
    if (N == Name)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// exec::buildPlan — the planning entry point, now a pipeline wrapper
//===----------------------------------------------------------------------===//

std::optional<exec::ExecutablePlan>
exec::buildPlan(const solver::RecurrenceSpec &Rec,
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
  CompilationModule M(Diags);
  M.Recurrence = &Rec;
  M.Box = Box;
  M.Request = Req;
  M.Plan.emplace();
  M.Plan->Box = Box;
  M.Plan->Program = Req.Program;
  if (!compiler::planningPipeline().run(M))
    return std::nullopt;
  return std::move(M.Plan);
}
