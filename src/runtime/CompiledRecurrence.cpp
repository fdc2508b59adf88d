//===- CompiledRecurrence.cpp - End-to-end compilation & execution ----------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "runtime/CompiledRecurrence.h"

#include "compiler/Pipeline.h"
#include "exec/BatchExecutor.h"
#include "exec/ParallelFor.h"
#include "gpu/Pipeline.h"
#include "obs/Trace.h"

#include <atomic>

using namespace parrec;
using namespace parrec::runtime;
using codegen::ArgValue;
using codegen::Evaluator;
using lang::DimKind;
using solver::DomainBox;
using solver::Schedule;

static std::vector<std::string>
allAlphabets(std::vector<std::string> Extra) {
  std::vector<std::string> Names = {"dna", "rna", "protein", "en"};
  for (std::string &E : Extra)
    Names.push_back(std::move(E));
  return Names;
}

std::optional<CompiledRecurrence>
CompiledRecurrence::fromFrontend(std::optional<compiler::FrontendResult> &&F) {
  if (!F)
    return std::nullopt;
  static std::atomic<uint64_t> NextId{1};
  CompiledRecurrence C;
  C.Id = NextId.fetch_add(1, std::memory_order_relaxed);
  C.Decl = std::move(F->Decl);
  C.Info = std::move(F->Info);
  C.Info.Decl = C.Decl.get();
  // The cell body compiled to bytecode once per function; null (an
  // unsupported construct) keeps the AST evaluator as the executor.
  C.Bytecode = std::move(F->Bytecode);
  C.Plans = std::make_unique<exec::PlanCache>();
  return C;
}

std::optional<CompiledRecurrence>
CompiledRecurrence::compile(const std::string &Source,
                            DiagnosticEngine &Diags,
                            std::vector<std::string> ExtraAlphabets) {
  return fromFrontend(compiler::runFrontend(
      Source, allAlphabets(std::move(ExtraAlphabets)), Diags));
}

std::optional<CompiledRecurrence>
CompiledRecurrence::fromDecl(std::unique_ptr<lang::FunctionDecl> Decl,
                             DiagnosticEngine &Diags,
                             std::vector<std::string> ExtraAlphabets) {
  return fromFrontend(compiler::runFrontend(
      std::move(Decl), allAlphabets(std::move(ExtraAlphabets)), Diags));
}

std::optional<DomainBox>
CompiledRecurrence::domainFor(const std::vector<ArgValue> &Args,
                              DiagnosticEngine &Diags) const {
  if (Args.size() != Decl->Params.size()) {
    Diags.error({}, "expected " + std::to_string(Decl->Params.size()) +
                        " arguments for '" + Decl->Name + "', got " +
                        std::to_string(Args.size()));
    return std::nullopt;
  }
  DomainBox Box;
  for (const lang::DimInfo &Dim : Info.Dims) {
    int64_t Upper = 0;
    switch (Dim.Kind) {
    case DimKind::IntDim:
      Upper = Args[Dim.ParamIndex].Int;
      break;
    case DimKind::IndexDim: {
      const bio::Sequence *Seq =
          Args[static_cast<unsigned>(Dim.RefParamIndex)].Seq;
      if (!Seq) {
        Diags.error({}, "sequence parameter '" +
                            Decl->Params[Dim.RefParamIndex].Name +
                            "' is not bound");
        return std::nullopt;
      }
      Upper = Seq->length(); // Indices run 0..len inclusive.
      break;
    }
    case DimKind::StateDim: {
      const bio::Hmm *Hmm =
          Args[static_cast<unsigned>(Dim.RefParamIndex)].Hmm;
      if (!Hmm) {
        Diags.error({}, "hmm parameter '" +
                            Decl->Params[Dim.RefParamIndex].Name +
                            "' is not bound");
        return std::nullopt;
      }
      Upper = static_cast<int64_t>(Hmm->numStates()) - 1;
      break;
    }
    case DimKind::TransitionDim: {
      const bio::Hmm *Hmm =
          Args[static_cast<unsigned>(Dim.RefParamIndex)].Hmm;
      if (!Hmm) {
        Diags.error({}, "hmm parameter '" +
                            Decl->Params[Dim.RefParamIndex].Name +
                            "' is not bound");
        return std::nullopt;
      }
      Upper = static_cast<int64_t>(Hmm->numTransitions()) - 1;
      break;
    }
    }
    if (Upper < 0) {
      Diags.error({}, "dimension '" + Dim.Name + "' has an empty domain");
      return std::nullopt;
    }
    Box.Lower.push_back(0);
    Box.Upper.push_back(Upper);
  }
  return Box;
}

std::optional<Schedule>
CompiledRecurrence::scheduleFor(const DomainBox &Box,
                                DiagnosticEngine &Diags) const {
  return solver::findMinimalSchedule(Info.Recurrence, Box, Diags);
}

const std::optional<std::vector<solver::ConditionalSchedule>> &
CompiledRecurrence::conditionalSchedules(DiagnosticEngine &Diags) const {
  if (!ConditionalCache) {
    if (Info.Recurrence.allUniform()) {
      ConditionalCache =
          solver::findConditionalSchedules(Info.Recurrence, Diags);
    } else {
      ConditionalCache = std::optional<
          std::vector<solver::ConditionalSchedule>>(std::nullopt);
    }
  }
  return *ConditionalCache;
}

std::shared_ptr<const exec::ExecutablePlan>
CompiledRecurrence::planFor(const DomainBox &Box,
                            const RunOptions &Options,
                            const Schedule *Preselected,
                            DiagnosticEngine &Diags,
                            const gpu::CostModel *) const {
  obs::Span PlanSpan("exec.plan_lookup", "exec");
  if (PlanSpan.active())
    PlanSpan.arg("function", Decl->Name);
  exec::PlanKey Key = exec::planKey(Box, Options, Preselected);
  if (std::shared_ptr<const exec::ExecutablePlan> Cached =
          Plans->lookup(Key)) {
    if (PlanSpan.active())
      PlanSpan.arg("cache", "hit");
    return Cached;
  }
  if (PlanSpan.active())
    PlanSpan.arg("cache", "miss");

  compiler::PlanRequest Req;
  Req.UseSlidingWindow = Options.UseSlidingWindow;
  Req.KeepTable = Options.KeepTable;
  Req.ForcedSchedule =
      Options.ForcedSchedule ? &*Options.ForcedSchedule : nullptr;
  Req.PreselectedSchedule = Preselected;
  Req.Program = Bytecode;
  Req.Jit = Key.Jit;
  Req.JitCacheDir = Options.JitCacheDir;
  std::optional<exec::ExecutablePlan> Plan =
      compiler::buildPlan(Info.Recurrence, Box, Req, Diags);
  if (!Plan)
    return nullptr;
  auto Shared =
      std::make_shared<const exec::ExecutablePlan>(std::move(*Plan));
  Plans->insert(Key, Shared);
  return Shared;
}

std::optional<RunResult>
CompiledRecurrence::runSingle(const std::vector<ArgValue> &Args,
                              const exec::ExecutionBackend &Backend,
                              DiagnosticEngine &Diags,
                              const RunOptions &Options) const {
  std::optional<DomainBox> Box = domainFor(Args, Diags);
  if (!Box)
    return std::nullopt;
  std::shared_ptr<const exec::ExecutablePlan> Plan =
      planFor(*Box, Options, /*Preselected=*/nullptr, Diags);
  if (!Plan)
    return std::nullopt;
  Evaluator Eval(*Decl, Info);
  Eval.bind(Args);
  RunResult Result = Backend.execute(*Plan, Eval, Options);
  // A single problem occupies one block: device lane 0 of the trace.
  if (obs::Tracer::enabled() && Result.Timeline)
    gpu::emitBlockTimeline(0, *Result.Timeline);
  return Result;
}

std::optional<RunResult>
CompiledRecurrence::runCpu(const std::vector<ArgValue> &Args,
                           const gpu::CostModel &Model,
                           DiagnosticEngine &Diags,
                           const RunOptions &Options) const {
  return runSingle(Args, exec::SerialCpuBackend(Model), Diags, Options);
}

std::optional<RunResult>
CompiledRecurrence::runGpu(const std::vector<ArgValue> &Args,
                           const gpu::Device &Device,
                           DiagnosticEngine &Diags,
                           const RunOptions &Options) const {
  return runSingle(Args, exec::SimulatedGpuBackend(Device.costModel()),
                   Diags, Options);
}

std::optional<BatchResult> CompiledRecurrence::runGpuBatch(
    const std::vector<std::vector<ArgValue>> &Problems,
    const gpu::Device &Device, DiagnosticEngine &Diags,
    const RunOptions &Options) const {
  obs::Span BatchSpan("exec.batch", "exec");
  if (BatchSpan.active()) {
    BatchSpan.arg("function", Decl->Name);
    BatchSpan.arg("problems", static_cast<uint64_t>(Problems.size()));
  }
  // Conditional parallelisation (Section 4.7): derive the candidate
  // schedule set once, then pick the minimal candidate per problem. When
  // the descents are not uniform this fails and we fall back to
  // per-problem synthesis — a fallback, not an error, so the derivation
  // gets a scratch diagnostic engine.
  DiagnosticEngine Scratch;
  const auto &Candidates = conditionalSchedules(Scratch);

  // Plan every problem up front on this thread: the domain box is
  // computed exactly once per problem, diagnostics stay single-threaded,
  // and same-shaped problems share one cached plan.
  std::vector<std::shared_ptr<const exec::ExecutablePlan>> Plans;
  std::vector<exec::BatchMember> Members;
  Plans.reserve(Problems.size());
  Members.reserve(Problems.size());
  for (const std::vector<ArgValue> &Args : Problems) {
    std::optional<DomainBox> Box = domainFor(Args, Diags);
    if (!Box)
      return std::nullopt;
    const Schedule *Preselected = nullptr;
    if (!Options.ForcedSchedule && Candidates)
      Preselected = &solver::selectSchedule(*Candidates, *Box).S;
    std::shared_ptr<const exec::ExecutablePlan> Plan =
        planFor(*Box, Options, Preselected, Diags);
    if (!Plan)
      return std::nullopt;
    Members.push_back({Plan.get(), &Args, &Options});
    Plans.push_back(std::move(Plan));
  }

  // Execute, dispatch and publish: each problem is one simulated
  // multiprocessor. The batch and scan fan-outs share the host budget.
  BatchResult Batch;
  Batch.Problems.resize(Problems.size());
  Batch.CompletionCycles.resize(Problems.size());
  exec::BatchDispatch D =
      exec::BatchExecutor(Device, *Decl, Info, Options.Pipeline)
          .run(Members, exec::hostWorkerBudget(), Options.BatchWorkers,
               Options.ScanWorkers,
               [&](size_t I, RunResult &&R, uint64_t Completion) {
                 Batch.Problems[I] = std::move(R);
                 Batch.CompletionCycles[I] = Completion;
               });
  Batch.TotalCycles = D.MakespanCycles;
  Batch.OverlapCycles = D.OverlapCycles;
  Batch.IdleCycles = D.IdleCycles;
  Batch.Seconds = Device.costModel().gpuSeconds(Batch.TotalCycles);
  if (BatchSpan.active()) {
    BatchSpan.arg("total_cycles", Batch.TotalCycles);
    BatchSpan.arg("modelled_seconds", Batch.Seconds);
  }
  return Batch;
}
