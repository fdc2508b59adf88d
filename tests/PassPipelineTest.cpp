//===- PassPipelineTest.cpp - Tests for the compiler's pass sequences --------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden tests for the compiler's two pass sequences: the one list of
/// pass names, bit-identical plans and results against a hand-rolled
/// replica of the legacy hardwired chain, deterministic shipped-script
/// output through the interpreter, and the AST evaluator's fallback for a
/// body the bytecode compiler refuses.
///
//===----------------------------------------------------------------------===//

#include "bio/Fasta.h"
#include "bio/HmmZoo.h"
#include "codegen/Evaluator.h"
#include "compiler/Pipeline.h"
#include "exec/ExecutionBackend.h"
#include "exec/Table.h"
#include "gpu/Device.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "obs/Trace.h"
#include "poly/CPrinter.h"
#include "poly/LoopGen.h"
#include "runtime/CompiledRecurrence.h"
#include "runtime/Interpreter.h"
#include "solver/ScheduleSynthesis.h"
#include "TempPath.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace parrec;
using namespace parrec::runtime;
using codegen::ArgValue;

#ifndef PARREC_SCRIPTS_DIR
#error "build must define PARREC_SCRIPTS_DIR"
#endif

namespace {

std::string scriptsPath(const std::string &Relative) {
  return std::string(PARREC_SCRIPTS_DIR) + "/" + Relative;
}

std::string readFileOrDie(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

// The recursions of the shipped examples/scripts/*.rdsl, verbatim.
const char *ShippedSmithWatermanSource =
    "int sw(matrix[dna] m, seq[dna] a, index[a] i, seq[dna] b, index[b] j) =\n"
    "  if i == 0 then 0\n"
    "  else if j == 0 then 0\n"
    "  else 0 max (sw(i-1, j-1) + m[a[i-1], b[j-1]])\n"
    "       max (sw(i-1, j) - 2) max (sw(i, j-1) - 2)\n";

const char *ShippedEditDistanceSource =
    "int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =\n"
    "  if i == 0 then j\n"
    "  else if j == 0 then i\n"
    "  else if s[i-1] == t[j-1] then d(i-1, j-1)\n"
    "  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1\n";

const char *ShippedCasinoForwardSource =
    "prob forward(hmm h, state[h] s, seq[dice] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))\n";

CompiledRecurrence compileOrDie(const char *Source,
                                std::vector<std::string> Extra = {}) {
  DiagnosticEngine Diags;
  auto Compiled =
      CompiledRecurrence::compile(Source, Diags, std::move(Extra));
  EXPECT_TRUE(Compiled.has_value()) << Diags.str();
  return std::move(*Compiled);
}

std::vector<ArgValue> editDistanceArgs(const bio::Sequence &S,
                                       const bio::Sequence &T) {
  return {ArgValue::ofSeq(&S), ArgValue(), ArgValue::ofSeq(&T), ArgValue()};
}

/// Replays the legacy hardwired chain — Parser, Sema::analyze,
/// validateForExecution, compileToBytecode, findMinimalSchedule, sliding
/// window, generateLoops, timeRange — with no pipeline involved, and
/// executes the resulting plan on the simulated GPU. The pass pipeline
/// must be bit-identical to this.
struct HandRolled {
  std::unique_ptr<lang::FunctionDecl> Decl;
  std::optional<lang::FunctionInfo> Info;
  std::shared_ptr<const codegen::BytecodeProgram> Bytecode;
  exec::ExecutablePlan Plan;

  static std::optional<HandRolled>
  build(const char *Source, const solver::DomainBox &Box,
        std::vector<std::string> Alphabets, DiagnosticEngine &Diags) {
    HandRolled H;
    lang::Parser P(Source, Diags);
    H.Decl = P.parseFunctionOnly();
    if (!H.Decl || Diags.hasErrors())
      return std::nullopt;
    lang::Sema Sema(Diags, Alphabets);
    H.Info = Sema.analyze(*H.Decl);
    if (!H.Info)
      return std::nullopt;
    H.Info->Decl = H.Decl.get();
    if (!codegen::validateForExecution(*H.Decl, Diags))
      return std::nullopt;
    H.Bytecode = codegen::compileToBytecode(*H.Decl, *H.Info);

    const solver::RecurrenceSpec &Rec = H.Info->Recurrence;
    H.Plan.Box = Box;
    H.Plan.Program = H.Bytecode;
    std::optional<solver::Schedule> Minimal =
        solver::findMinimalSchedule(Rec, Box, Diags);
    if (!Minimal)
      return std::nullopt;
    H.Plan.Sched = std::move(*Minimal);
    std::optional<int64_t> Window =
        solver::slidingWindowDepth(Rec, H.Plan.Sched);
    int DropDim = Window ? exec::pickWindowDropDim(H.Plan.Sched, Box) : -1;
    if (Window && DropDim >= 0) {
      H.Plan.UseWindow = true;
      H.Plan.WindowDepth = *Window;
      H.Plan.WindowDropDim = static_cast<unsigned>(DropDim);
    }
    std::vector<std::string> DimNames;
    for (const lang::DimInfo &Dim : H.Info->Dims)
      DimNames.push_back(Dim.Name);
    poly::Polyhedron Domain(DimNames);
    for (unsigned D = 0; D != Box.numDims(); ++D)
      Domain.addBounds(D, Box.Lower[D], Box.Upper[D]);
    H.Plan.Nest = poly::generateLoops(Domain, /*NumParams=*/0,
                                      H.Plan.Sched.toAffineExpr(0));
    auto TimeRange = H.Plan.Nest.timeRange({});
    if (!TimeRange)
      return std::nullopt;
    H.Plan.FirstPartition = TimeRange->first;
    H.Plan.LastPartition = TimeRange->second;
    H.Plan.RootPartition = H.Plan.Sched.apply(Box.Upper);
    return H;
  }

  exec::RunResult execute(const std::vector<ArgValue> &Args,
                          const gpu::Device &Dev) const {
    codegen::Evaluator Eval(*Decl, *Info);
    Eval.bind(Args);
    return exec::SimulatedGpuBackend(Dev.costModel())
        .execute(Plan, Eval, exec::RunOptions{});
  }
};

/// Compiles \p Source through the pass pipeline and asserts the plan and
/// the executed run are bit-identical to the hand-rolled legacy chain.
void expectPipelineMatchesHandRolled(const char *Source,
                                     const std::vector<ArgValue> &Args,
                                     std::vector<std::string> Extra = {}) {
  CompiledRecurrence Fn = compileOrDie(Source, Extra);
  gpu::Device Dev;
  DiagnosticEngine Diags;
  std::optional<solver::DomainBox> Box = Fn.domainFor(Args, Diags);
  ASSERT_TRUE(Box.has_value()) << Diags.str();

  std::vector<std::string> Alphabets = {"dna", "rna", "protein", "en"};
  for (std::string &E : Extra)
    Alphabets.push_back(std::move(E));
  std::optional<HandRolled> Legacy =
      HandRolled::build(Source, *Box, Alphabets, Diags);
  ASSERT_TRUE(Legacy.has_value()) << Diags.str();

  // Plans must agree field for field...
  std::shared_ptr<const exec::ExecutablePlan> Plan =
      Fn.planFor(*Box, {}, /*Preselected=*/nullptr, Diags);
  ASSERT_NE(Plan, nullptr) << Diags.str();
  EXPECT_EQ(Plan->Sched, Legacy->Plan.Sched);
  EXPECT_EQ(Plan->UseWindow, Legacy->Plan.UseWindow);
  EXPECT_EQ(Plan->WindowDepth, Legacy->Plan.WindowDepth);
  EXPECT_EQ(Plan->WindowDropDim, Legacy->Plan.WindowDropDim);
  EXPECT_EQ(Plan->FirstPartition, Legacy->Plan.FirstPartition);
  EXPECT_EQ(Plan->LastPartition, Legacy->Plan.LastPartition);
  EXPECT_EQ(Plan->RootPartition, Legacy->Plan.RootPartition);
  EXPECT_EQ(Plan->Program != nullptr, Legacy->Bytecode != nullptr);

  // ...and so must every observable of the executed runs: values, cell
  // counts, modelled cycles, memory traffic.
  auto Run = Fn.runGpu(Args, Dev, Diags);
  ASSERT_TRUE(Run.has_value()) << Diags.str();
  exec::RunResult Ref = Legacy->execute(Args, Dev);
  EXPECT_EQ(Run->RootValue, Ref.RootValue);
  EXPECT_EQ(Run->TableMax, Ref.TableMax);
  EXPECT_EQ(Run->Cells, Ref.Cells);
  EXPECT_EQ(Run->Partitions, Ref.Partitions);
  EXPECT_EQ(Run->Cycles, Ref.Cycles);
  EXPECT_EQ(Run->UsedSchedule, Ref.UsedSchedule);
  EXPECT_EQ(Run->Metrics.Cycles, Ref.Metrics.Cycles);
  EXPECT_EQ(Run->Metrics.TableBytes, Ref.Metrics.TableBytes);
  EXPECT_EQ(Run->Metrics.SharedAccesses, Ref.Metrics.SharedAccesses);
  EXPECT_EQ(Run->Metrics.GlobalAccesses, Ref.Metrics.GlobalAccesses);
}

} // namespace

//===----------------------------------------------------------------------===//
// Registration order and pass-name registry
//===----------------------------------------------------------------------===//

TEST(PassPipelineTest, RegistrationOrder) {
  std::vector<std::string> Frontend = {"parse", "sema", "dependence",
                                       "validate", "bytecode"};
  // One planning pipeline; its jit pass is skipped unless the request
  // asks for the native JIT.
  std::vector<std::string> Planning = {"schedule_synthesis", "sliding_window",
                                       "loopgen", "finalize", "jit"};
  std::vector<std::string> Names(compiler::PassNames.begin(),
                                 compiler::PassNames.end());
  ASSERT_EQ(Names.size(), Frontend.size() + Planning.size());
  EXPECT_EQ(std::vector<std::string>(Names.begin(),
                                     Names.begin() + Frontend.size()),
            Frontend);
  EXPECT_EQ(std::vector<std::string>(Names.begin() + Frontend.size(),
                                     Names.end()),
            Planning);

  // PassNames is the frontend followed by the planning passes — the
  // order --dump-passes prints.
  std::vector<std::string> All = Frontend;
  All.insert(All.end(), Planning.begin(), Planning.end());
  EXPECT_EQ(Names, All);

  auto listed = [&](const std::string &Name) {
    return std::find(Names.begin(), Names.end(), Name) != Names.end();
  };
  for (const std::string &Name : All)
    EXPECT_TRUE(listed(Name)) << Name;
  EXPECT_FALSE(listed("nonsense"));
  EXPECT_FALSE(listed(""));
  EXPECT_FALSE(listed("Parse"));
}

/// The passes run in the order PassNames lists them, which is the order
/// --dump-passes prints: a traced compile from source and a jitted plan
/// open one compile.<pass> span per pass, in list order.
TEST(PassPipelineTest, PassesRunInListOrder) {
  obs::Tracer &Tracer = obs::Tracer::instance();
  Tracer.disable();
  Tracer.reset();
  Tracer.enable();
  CompiledRecurrence Fn = compileOrDie(ShippedEditDistanceSource);
  bio::Sequence S("s", "kitten"), T("t", "sitting");
  DiagnosticEngine Diags;
  std::optional<solver::DomainBox> Box =
      Fn.domainFor(editDistanceArgs(S, T), Diags);
  TempPath JitCache("jit-pass-order");
  exec::RunOptions Jit;
  Jit.Evaluator = exec::EvalKind::Jit;
  Jit.JitCacheDir = JitCache.str();
  bool Planned =
      Box && Fn.planFor(*Box, Jit, /*Preselected=*/nullptr, Diags) != nullptr;
  Tracer.disable();
  std::vector<obs::TraceEvent> Events = Tracer.hostEvents();
  Tracer.reset();
  ASSERT_TRUE(Planned) << Diags.str();

  std::vector<std::string> Ran;
  for (const obs::TraceEvent &E : Events)
    if (E.Name.rfind("compile.", 0) == 0 && E.Name != "compile.function")
      Ran.push_back(E.Name.substr(std::strlen("compile.")));
  EXPECT_EQ(Ran, std::vector<std::string>(compiler::PassNames.begin(),
                                          compiler::PassNames.end()));
}

//===----------------------------------------------------------------------===//
// The default pipeline against the legacy hardwired chain, bit for bit
//===----------------------------------------------------------------------===//

TEST(PassPipelineTest, EditDistanceMatchesHandRolledChain) {
  bio::Sequence S("s", "kitten"), T("t", "sitting");
  expectPipelineMatchesHandRolled(ShippedEditDistanceSource,
                                  editDistanceArgs(S, T));
}

TEST(PassPipelineTest, SmithWatermanMatchesHandRolledChain) {
  DiagnosticEngine Diags;
  auto Matrix = bio::SubstitutionMatrix::parse(
      readFileOrDie(scriptsPath("data/dna_scores.txt")), Diags);
  ASSERT_TRUE(Matrix.has_value()) << Diags.str();
  bio::Sequence A("a", "ACGTACGTTGCA"), B("b", "ACGTTGCATGCA");
  expectPipelineMatchesHandRolled(
      ShippedSmithWatermanSource,
      {ArgValue::ofMatrix(&*Matrix), ArgValue::ofSeq(&A), ArgValue(),
       ArgValue::ofSeq(&B), ArgValue()});
}

TEST(PassPipelineTest, CasinoForwardMatchesHandRolledChain) {
  bio::Hmm Casino = bio::makeCasinoModel();
  bio::Sequence Rolls("rolls", "315116246446644245311321631164");
  expectPipelineMatchesHandRolled(ShippedCasinoForwardSource,
                                  {ArgValue::ofHmm(&Casino), ArgValue(),
                                   ArgValue::ofSeq(&Rolls), ArgValue()},
                                  {"dice"});
}

TEST(PassPipelineTest, OneNestServesEveryBox) {
  // The loopgen pass builds the recursion's parametric nest: plans for
  // two boxes of one function and schedule share it, and differ in its
  // parameter values only.
  CompiledRecurrence Fn = compileOrDie(ShippedEditDistanceSource);
  bio::Sequence S("s", "kitten"), T("t", "sitting");
  bio::Sequence U("u", "intention"), V("v", "execution");
  DiagnosticEngine Diags;
  std::optional<solver::DomainBox> BoxA =
      Fn.domainFor(editDistanceArgs(S, T), Diags);
  std::optional<solver::DomainBox> BoxB =
      Fn.domainFor(editDistanceArgs(U, V), Diags);
  ASSERT_TRUE(BoxA && BoxB) << Diags.str();
  std::shared_ptr<const exec::ExecutablePlan> A =
      Fn.planFor(*BoxA, {}, /*Preselected=*/nullptr, Diags);
  std::shared_ptr<const exec::ExecutablePlan> B =
      Fn.planFor(*BoxB, {}, /*Preselected=*/nullptr, Diags);
  ASSERT_NE(A, nullptr) << Diags.str();
  ASSERT_NE(B, nullptr) << Diags.str();
  EXPECT_EQ(A->Sched, B->Sched);
  EXPECT_EQ(A->Nest.NumParams, 2u);
  EXPECT_EQ(A->Nest.NumParams, B->Nest.NumParams);
  EXPECT_EQ(A->Nest.NestDimNames, B->Nest.NestDimNames);
  EXPECT_EQ(poly::printParallelLoops(A->Nest),
            poly::printParallelLoops(B->Nest));
  EXPECT_NE(A->LastPartition, B->LastPartition);
}

//===----------------------------------------------------------------------===//
// Shipped scripts through the pipelined interpreter
//===----------------------------------------------------------------------===//

/// Every shipped script, run twice through the interpreter (which now
/// compiles through the pass pipeline): output must be byte-identical
/// run to run.
TEST(PassPipelineTest, ShippedScriptsDeterministic) {
  for (const char *Script :
       {"smith_waterman.rdsl", "edit_distance.rdsl", "casino.rdsl"}) {
    std::string Source = readFileOrDie(scriptsPath(Script));
    auto runOnce = [&] {
      DiagnosticEngine Diags;
      Interpreter::Options Opts;
      Opts.UseGpu = false;
      Opts.BasePath = PARREC_SCRIPTS_DIR;
      Interpreter Interp(Diags, std::move(Opts));
      auto Output = Interp.run(Source);
      EXPECT_TRUE(Output.has_value()) << Script << ": " << Diags.str();
      return Output ? *Output : std::string();
    };
    EXPECT_EQ(runOnce(), runOnce()) << Script;
  }
}

//===----------------------------------------------------------------------===//
// The AST fallback for a body the bytecode compiler refuses
//===----------------------------------------------------------------------===//

TEST(PassPipelineTest, UncompilableBodyFallsBackToAstEvaluator) {
  // One branch is an int and another a real, and the bytecode compiler
  // wants branch kinds that agree statically, so the bytecode pass makes
  // no program. The twin's branches are all real; it runs on the VM.
  const char *Mixed =
      "float f(seq[en] s, index[s] i, seq[en] t, index[t] j) =\n"
      "  if i == 0 then 0 else if j == 0 then 1.5\n"
      "  else f(i-1, j) max f(i, j-1)\n";
  const char *Twin =
      "float f(seq[en] s, index[s] i, seq[en] t, index[t] j) =\n"
      "  if i == 0 then 0.0 else if j == 0 then 1.5\n"
      "  else f(i-1, j) max f(i, j-1)\n";
  bio::Sequence S("s", "kitten"), T("t", "sitting");
  gpu::Device Dev;
  DiagnosticEngine Diags;
  CompiledRecurrence Baseline = compileOrDie(Twin);
  ASSERT_NE(Baseline.bytecode(), nullptr);
  auto Want = Baseline.runGpu(editDistanceArgs(S, T), Dev, Diags);
  ASSERT_TRUE(Want.has_value()) << Diags.str();

  CompiledRecurrence Fn = compileOrDie(Mixed);
  ASSERT_EQ(Fn.bytecode(), nullptr)
      << "the bytecode compiler now accepts the mixed body; pick another "
         "body it refuses";
  auto Got = Fn.runGpu(editDistanceArgs(S, T), Dev, Diags);
  ASSERT_TRUE(Got.has_value()) << Diags.str();
  EXPECT_EQ(Got->RootValue, Want->RootValue);
  EXPECT_EQ(Got->TableMax, Want->TableMax);
  EXPECT_EQ(Got->Cells, Want->Cells);
}
