//===- DifferentialTest.cpp - Bytecode VM vs AST evaluator ------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evaluators' correctness contract: for every recursion the
/// bytecode compiles, results AND cost accounting are bit-identical
/// across all three cell evaluators — the AST tree-walker, the bytecode
/// VM and the native JIT kernel — on both backends, with and without
/// the sliding window. Covers the shipped example scripts, the
/// case-study recursions and randomized (seeded) HMMs, sequences and
/// substitution scores.
///
//===----------------------------------------------------------------------===//

#include "baselines/HmmBaselines.h"
#include "bio/HmmZoo.h"
#include "codegen/Bytecode.h"
#include "codegen/LogSpace.h"
#include "codegen/NativeJit.h"
#include "exec/Table.h"
#include "obs/Metrics.h"
#include "runtime/CompiledRecurrence.h"
#include "runtime/Interpreter.h"
#include "KernelText.h"
#include "TempPath.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <tuple>
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

// The case-study recursions, matching examples/scripts/*.rdsl and the
// pipeline tests verbatim.
const char *SmithWatermanSource =
    "int sw(matrix[dna] m, seq[dna] a, index[a] i, seq[dna] b, index[b] j) =\n"
    "  if i == 0 then 0\n"
    "  else if j == 0 then 0\n"
    "  else 0 max (sw(i-1, j-1) + m[a[i-1], b[j-1]])\n"
    "       max (sw(i-1, j) - 2) max (sw(i, j-1) - 2)\n";

const char *EditDistanceSource =
    "int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =\n"
    "  if i == 0 then j\n"
    "  else if j == 0 then i\n"
    "  else if s[i-1] == t[j-1] then d(i-1, j-1)\n"
    "  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1\n";

const char *CasinoForwardSource =
    "prob forward(hmm h, state[h] s, seq[dice] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))\n";

const char *DnaForwardSource =
    "prob forward(hmm h, state[h] s, seq[dna] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))\n";

const char *DnaViterbiSource =
    "prob viterbi(hmm h, state[h] s, seq[dna] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    max(t in s.transitionsto : t.prob * viterbi(t.start, i - 1))\n";

const char *ProteinForwardSource =
    "prob forward(hmm h, state[h] s, seq[protein] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))\n";

/// A per-process JIT disk cache so concurrent test shards never share
/// (or pollute) the user's real cache.
const std::string &jitCacheDirForTest() {
  static const TempPath Dir("jit-test");
  return Dir.str();
}

CompiledRecurrence compileOrDie(const char *Source,
                                std::vector<std::string> Extra = {}) {
  DiagnosticEngine Diags;
  auto Compiled =
      CompiledRecurrence::compile(Source, Diags, std::move(Extra));
  EXPECT_TRUE(Compiled.has_value()) << Diags.str();
  return std::move(*Compiled);
}

/// Asserts every observable of two runs — values, cell counts, cost
/// events, simulated cycles — is bit-identical.
void expectRunsIdentical(const RunResult &Vm, const RunResult &Other,
                         const char *OtherName, const std::string &Where) {
  EXPECT_EQ(Vm.RootValue, Other.RootValue) << OtherName << Where;
  EXPECT_EQ(Vm.TableMax, Other.TableMax) << OtherName << Where;
  EXPECT_EQ(Vm.Cells, Other.Cells) << OtherName << Where;
  EXPECT_EQ(Vm.Partitions, Other.Partitions) << OtherName << Where;
  EXPECT_TRUE(Vm.Cost == Other.Cost)
      << "cost counters diverged" << Where << ": VM {" << Vm.Cost.Ops
      << ", " << Vm.Cost.TableReads << ", " << Vm.Cost.TableWrites << ", "
      << Vm.Cost.ModelReads << ", " << Vm.Cost.Transcendentals << "} vs "
      << OtherName << " {" << Other.Cost.Ops << ", "
      << Other.Cost.TableReads << ", " << Other.Cost.TableWrites << ", "
      << Other.Cost.ModelReads << ", " << Other.Cost.Transcendentals
      << "}";
  EXPECT_EQ(Vm.Cycles, Other.Cycles) << OtherName << Where;
}

/// Runs \p Args through the bytecode VM, the AST tree-walker and the
/// native JIT kernel on both backends, with the sliding window on and
/// off, and asserts every observable — values, cell counts, cost
/// events, simulated cycles — is bit-identical across all three.
void expectEvaluatorsAgree(const CompiledRecurrence &Fn,
                           const std::vector<ArgValue> &Args) {
  // The whole point is to exercise the VM: the recursion must compile.
  ASSERT_NE(Fn.bytecode(), nullptr)
      << "recursion unexpectedly fell back to the AST evaluator";

  gpu::Device Dev;
  gpu::CostModel Model;
  DiagnosticEngine Diags;
  uint64_t FallbacksBefore =
      obs::MetricsRegistry::global().snapshot().counter("jit.fallbacks");
  for (bool Window : {true, false}) {
    for (bool Gpu : {true, false}) {
      RunOptions VmOpts;
      VmOpts.UseSlidingWindow = Window;
      RunOptions AstOpts = VmOpts;
      AstOpts.Evaluator = EvalKind::Ast;
      RunOptions JitOpts = VmOpts;
      JitOpts.Evaluator = EvalKind::Jit;
      JitOpts.JitCacheDir = jitCacheDirForTest();

      auto RunWith = [&](const RunOptions &Opts) {
        return Gpu ? Fn.runGpu(Args, Dev, Diags, Opts)
                   : Fn.runCpu(Args, Model, Diags, Opts);
      };
      auto Vm = RunWith(VmOpts);
      auto Ast = RunWith(AstOpts);
      auto Jit = RunWith(JitOpts);
      ASSERT_TRUE(Vm.has_value()) << Diags.str();
      ASSERT_TRUE(Ast.has_value()) << Diags.str();
      ASSERT_TRUE(Jit.has_value()) << Diags.str();

      std::string Where = std::string(" (window=") +
                          (Window ? "on" : "off") +
                          ", backend=" + (Gpu ? "gpu" : "cpu") + ")";
      expectRunsIdentical(*Vm, *Ast, "AST", Where);
      expectRunsIdentical(*Vm, *Jit, "JIT", Where);
    }
  }
  // The JIT legs must have run the compiled kernel, not the silent VM
  // fallback — otherwise the comparison above proves nothing.
  EXPECT_EQ(
      obs::MetricsRegistry::global().snapshot().counter("jit.fallbacks"),
      FallbacksBefore)
      << "a JIT leg silently fell back to the bytecode VM";
}

/// Deterministic pseudo-random string over \p Letters.
std::string randomString(const std::string &Letters, size_t Length,
                         uint64_t Seed) {
  std::string S;
  S.reserve(Length);
  uint64_t X = Seed * 6364136223846793005ull + 1442695040888963407ull;
  for (size_t I = 0; I != Length; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    S.push_back(Letters[(X >> 33) % Letters.size()]);
  }
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Case-study recursions
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, SmithWaterman) {
  CompiledRecurrence Fn = compileOrDie(SmithWatermanSource);
  const bio::SubstitutionMatrix M =
      bio::SubstitutionMatrix::matchMismatch(bio::Alphabet::dna(), 2, 1);
  bio::Sequence A("a", "acgtacgtggtacacgt");
  bio::Sequence B("b", "tacgtaccgtgacgt");
  expectEvaluatorsAgree(Fn, {ArgValue::ofMatrix(&M), ArgValue::ofSeq(&A),
                             ArgValue(), ArgValue::ofSeq(&B), ArgValue()});
}

TEST(DifferentialTest, EditDistance) {
  CompiledRecurrence Fn = compileOrDie(EditDistanceSource);
  bio::Sequence S("s", "kitten");
  bio::Sequence T("t", "sitting");
  expectEvaluatorsAgree(Fn, {ArgValue::ofSeq(&S), ArgValue(),
                             ArgValue::ofSeq(&T), ArgValue()});
}

TEST(DifferentialTest, CasinoForward) {
  CompiledRecurrence Fn = compileOrDie(CasinoForwardSource, {"dice"});
  bio::Hmm Casino = bio::makeCasinoModel();
  std::string Rolls = Casino.sample(/*Seed=*/7);
  ASSERT_FALSE(Rolls.empty());
  bio::Sequence X("x", Rolls);
  expectEvaluatorsAgree(Fn, {ArgValue::ofHmm(&Casino), ArgValue(),
                             ArgValue::ofSeq(&X), ArgValue()});
}

TEST(DifferentialTest, GeneFinderViterbi) {
  CompiledRecurrence Fn = compileOrDie(DnaViterbiSource);
  bio::Hmm Genes = bio::makeGeneFinderModel();
  std::string Observed = Genes.sample(/*Seed=*/21);
  ASSERT_FALSE(Observed.empty());
  bio::Sequence X("x", Observed);
  expectEvaluatorsAgree(Fn, {ArgValue::ofHmm(&Genes), ArgValue(),
                             ArgValue::ofSeq(&X), ArgValue()});
}

TEST(DifferentialTest, CpgIslandViterbi) {
  CompiledRecurrence Fn = compileOrDie(DnaViterbiSource);
  bio::Hmm Cpg = bio::makeCpgIslandModel();
  std::string Observed = Cpg.sample(/*Seed=*/77);
  ASSERT_FALSE(Observed.empty());
  bio::Sequence X("x", Observed);
  expectEvaluatorsAgree(Fn, {ArgValue::ofHmm(&Cpg), ArgValue(),
                             ArgValue::ofSeq(&X), ArgValue()});
}

TEST(DifferentialTest, ProfileHmmForward) {
  CompiledRecurrence Fn = compileOrDie(DnaForwardSource);
  DiagnosticEngine Diags;
  bio::Hmm Raw =
      bio::makeProfileHmm(/*MatchPositions=*/5, bio::Alphabet::dna(),
                          /*Seed=*/11);
  auto Profile = bio::eliminateSilentStates(Raw, Diags);
  ASSERT_TRUE(Profile.has_value()) << Diags.str();
  std::string Observed = Profile->sample(/*Seed=*/3);
  ASSERT_FALSE(Observed.empty());
  bio::Sequence X("x", Observed);
  expectEvaluatorsAgree(Fn, {ArgValue::ofHmm(&*Profile), ArgValue(),
                             ArgValue::ofSeq(&X), ArgValue()});
}

namespace {

/// The benchmark's model shape: a 30-position protein profile with its
/// silent states eliminated, 63 states whose in-degrees run from 0 to
/// 32, so the cells of one partition fold sums of very different
/// lengths.
struct WideProfile {
  bio::Hmm Model;
  bio::Sequence Read;
  std::vector<ArgValue> args() const {
    return {ArgValue::ofHmm(&Model), ArgValue(), ArgValue::ofSeq(&Read),
            ArgValue()};
  }
};

std::unique_ptr<WideProfile> makeWideProfile() {
  DiagnosticEngine Diags;
  auto Profile = bio::eliminateSilentStates(
      bio::makeProfileHmm(/*MatchPositions=*/30, bio::Alphabet::protein(),
                          /*Seed=*/0xABCD),
      Diags);
  EXPECT_TRUE(Profile.has_value()) << Diags.str();
  if (!Profile)
    return nullptr;
  return std::make_unique<WideProfile>(WideProfile{
      std::move(*Profile),
      bio::Sequence("x", randomString(bio::Alphabet::protein().letters(),
                                      12, /*Seed=*/5))});
}

} // namespace

TEST(DifferentialTest, WideProfileForward) {
  CompiledRecurrence Fn = compileOrDie(ProteinForwardSource);
  auto Wide = makeWideProfile();
  ASSERT_NE(Wide, nullptr);
  EXPECT_EQ(Wide->Model.numStates(), 63u);
  expectEvaluatorsAgree(Fn, Wide->args());
}

TEST(LogSumExpTest, WideProfileRootIsPinned) {
  // The forward root of the 63-state profile, pinned bit for bit. Every
  // element of its sums goes through CellMath.h's own exp, so the value
  // does not depend on the host libm's exp, and a libm call that crept
  // back into the sum of any evaluator would move it.
  CompiledRecurrence Fn = compileOrDie(ProteinForwardSource);
  auto Wide = makeWideProfile();
  ASSERT_NE(Wide, nullptr);
  gpu::CostModel CostModel;
  DiagnosticEngine Diags;
  for (EvalKind Evaluator : {EvalKind::Ast, EvalKind::Vm, EvalKind::Jit}) {
    RunOptions Opts;
    Opts.Evaluator = Evaluator;
    Opts.JitCacheDir = jitCacheDirForTest();
    auto Run = Fn.runCpu(Wide->args(), CostModel, Diags, Opts);
    ASSERT_TRUE(Run.has_value()) << Diags.str();
    EXPECT_EQ(Run->RootValue, -0x1.b603cef09bbbep+5)
        << std::hexfloat << Run->RootValue << " from evaluator "
        << static_cast<int>(Evaluator);
  }
}

TEST(DifferentialTest, LaneGroupsWithBranches) {
  // The start state's cells jump past the sum on every row, so cells
  // that skip it and cells that fold it share each partition. The sum's
  // body branches too, so its cost differs between elements.
  CompiledRecurrence Fn = compileOrDie(
      "prob forward(hmm h, state[h] s, seq[dna] x, index[x] i) =\n"
      "  if i == 0 then\n"
      "    if s.isstart then 1.0 else 0.0\n"
      "  else if s.isstart then 0.5\n"
      "  else\n"
      "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
      "    sum(t in s.transitionsto :\n"
      "        if i == 1 then t.prob * forward(t.start, i - 1)\n"
      "        else t.prob * t.prob * forward(t.start, i - 1))\n");
  DiagnosticEngine Diags;
  auto Profile = bio::eliminateSilentStates(
      bio::makeProfileHmm(/*MatchPositions=*/5, bio::Alphabet::dna(),
                          /*Seed=*/17),
      Diags);
  ASSERT_TRUE(Profile.has_value()) << Diags.str();
  bio::Sequence X("x", "acgtaacgtt");
  expectEvaluatorsAgree(Fn, {ArgValue::ofHmm(&*Profile), ArgValue(),
                             ArgValue::ofSeq(&X), ArgValue()});
}

TEST(DifferentialTest, JitLaneGroupsUnderWorkerNesting) {
  // The forward kernel under both host-parallel axes. Three scan
  // workers at a grain of one cell split every partition's 32
  // simulated threads into slices of uneven work.
  CompiledRecurrence Fn = compileOrDie(ProteinForwardSource);
  auto Wide = makeWideProfile();
  ASSERT_NE(Wide, nullptr);
  std::vector<ArgValue> Args = Wide->args();
  gpu::Device Dev;
  DiagnosticEngine Diags;

  RunOptions VmOpts;
  VmOpts.ScanWorkers = 1;
  auto Vm = Fn.runGpu(Args, Dev, Diags, VmOpts);
  ASSERT_TRUE(Vm.has_value()) << Diags.str();

  RunOptions JitOpts;
  JitOpts.Evaluator = EvalKind::Jit;
  JitOpts.JitCacheDir = jitCacheDirForTest();
  JitOpts.ScanWorkers = 3;
  JitOpts.ScanGrainCells = 1;
  auto Jit = Fn.runGpu(Args, Dev, Diags, JitOpts);
  ASSERT_TRUE(Jit.has_value()) << Diags.str();
  expectRunsIdentical(*Vm, *Jit, "JIT", " (scan-workers=3)");
  EXPECT_EQ(Vm->Metrics.CriticalCycles, Jit->Metrics.CriticalCycles);
  EXPECT_EQ(Vm->Metrics.ThreadCycles, Jit->Metrics.ThreadCycles);

  std::vector<std::vector<ArgValue>> Problems(4, Args);
  RunOptions VmBatch;
  VmBatch.BatchWorkers = 1;
  RunOptions JitBatch = JitOpts;
  JitBatch.BatchWorkers = 2;
  auto VmB = Fn.runGpuBatch(Problems, Dev, Diags, VmBatch);
  auto JitB = Fn.runGpuBatch(Problems, Dev, Diags, JitBatch);
  ASSERT_TRUE(VmB.has_value()) << Diags.str();
  ASSERT_TRUE(JitB.has_value()) << Diags.str();
  ASSERT_EQ(VmB->Problems.size(), JitB->Problems.size());
  for (size_t I = 0; I != VmB->Problems.size(); ++I)
    expectRunsIdentical(VmB->Problems[I], JitB->Problems[I], "JIT",
                        " (batch problem " + std::to_string(I) + ")");
  EXPECT_EQ(VmB->TotalCycles, JitB->TotalCycles);
}

namespace {

/// A model whose cells stay near log 1, where a sum's or a binary `+`'s
/// last rounding reaches the result bits. It is unnormalised on
/// purpose. From row 2 on, every sum folds three finite elements in
/// ascending order: the transition probabilities into each state rise
/// along the transition list by more than the previous row's cells
/// spread, and differ from state to state.
bio::Hmm makeNearLogOneModel() {
  bio::Hmm Model("near-log-one", bio::Alphabet::dna());
  unsigned Begin = Model.addState("begin", {}, /*IsStart=*/true);
  unsigned A = Model.addState("a", {0.97, 0.91, 0.88, 0.83});
  unsigned B = Model.addState("b", {0.86, 0.99, 0.81, 0.93});
  unsigned C = Model.addState("c", {0.90, 0.84, 0.98, 0.87});
  const double Into[3][4] = {{0.50, 0.11, 0.27, 0.62},
                             {0.30, 0.14, 0.31, 0.55},
                             {0.20, 0.09, 0.33, 0.58}};
  const unsigned To[3] = {A, B, C};
  for (unsigned K = 0; K != 3; ++K) {
    Model.addTransition(Begin, To[K], Into[K][0]);
    Model.addTransition(A, To[K], Into[K][1]);
    Model.addTransition(B, To[K], Into[K][2]);
    Model.addTransition(C, To[K], Into[K][3]);
  }
  Model.finalize();
  return Model;
}

} // namespace

TEST(DifferentialTest, AscendingSumsNearLogOne) {
  // Each ascending sum runs the online fold's rescale
  // `s * exp(m - x) + 1` on an inexact s. A build that contracts it into
  // an FMA in the C++ evaluators, but not in the JIT kernel, changes 44
  // of the 57 cells and the root here, and fails.
  bio::Hmm Model = makeNearLogOneModel();
  CompiledRecurrence Fn = compileOrDie(DnaForwardSource);
  bio::Sequence X("x", "gattacagattacacgtac");
  expectEvaluatorsAgree(Fn, {ArgValue::ofHmm(&Model), ArgValue(),
                             ArgValue::ofSeq(&X), ArgValue()});
}

TEST(DifferentialTest, BinaryPlusBesideSumStaysLogAddExp) {
  // Only the n-ary sum folds online; a binary `+` on probs stays the
  // pairwise logAddExp. The same recursion is recomputed here with
  // LogSpace.h's own primitives and must match the root bit for bit.
  // Folding the `+` online instead (log(1 + e) for log1p(e)) changes
  // the root of this near-log-1 model.
  CompiledRecurrence Fn = compileOrDie(
      "prob g(hmm h, state[h] s, seq[dna] x, index[x] i) =\n"
      "  if i == 0 then\n"
      "    if s.isstart then 1.0 else 0.0\n"
      "  else\n"
      "    s.emission[x[i-1]] *\n"
      "      sum(t in s.transitionsto : t.prob * g(t.start, i - 1))\n"
      "    + 0.1 * g(s, i - 1)\n");
  bio::Hmm Model = makeNearLogOneModel();
  bio::Sequence X("x", "gattacagattacacgtac");
  std::vector<ArgValue> Args = {ArgValue::ofHmm(&Model), ArgValue(),
                                ArgValue::ofSeq(&X), ArgValue()};
  expectEvaluatorsAgree(Fn, Args);

  unsigned N = Model.numStates();
  std::vector<double> Prev(N), Cur(N);
  for (unsigned S = 0; S != N; ++S)
    Prev[S] = Model.state(S).IsStart ? 0.0 : codegen::NegInfinity;
  for (int64_t I = 1; I <= X.length(); ++I) {
    for (unsigned S = 0; S != N; ++S) {
      codegen::LogSumExp Sum;
      for (unsigned T : Model.transitionsTo(S))
        Sum.add(codegen::pr_tolog(Model.transition(T).Prob) +
                Prev[Model.transition(T).From]);
      double Emit = codegen::pr_tolog(Model.emission(S, X.at(I - 1)));
      Cur[S] = codegen::pr_logaddexp(Emit + Sum.result(),
                                     codegen::pr_tolog(0.1) + Prev[S]);
    }
    std::swap(Prev, Cur);
  }
  gpu::CostModel CostModel;
  DiagnosticEngine Diags;
  auto Run = Fn.runCpu(Args, CostModel, Diags, RunOptions());
  ASSERT_TRUE(Run.has_value()) << Diags.str();
  EXPECT_EQ(Run->RootValue, Prev[N - 1]);
}

TEST(DifferentialTest, ReduceReadingAnotherTransitionStaysGeneric) {
  // The JIT reads a reduce's own transition from the packed CSR entry.
  // Here the outer body copies its transition through an `if` before
  // reading its prob, and the inner body reads the outer transition's
  // end: neither is the reading reduce's own loop variable, so both
  // must take the generic per-transition arrays, and the three
  // evaluators must still agree bit for bit.
  CompiledRecurrence Fn = compileOrDie(
      "prob g(hmm h, state[h] s, seq[dna] x, index[x] i) =\n"
      "  if i == 0 then\n"
      "    if s.isstart then 1.0 else 0.0\n"
      "  else\n"
      "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
      "    sum(t in s.transitionsto :\n"
      "        (if i == 1 then t else t).prob *\n"
      "        max(u in t.start.transitionsfrom :\n"
      "            if u.end == t.end then u.prob * g(t.start, i - 1)\n"
      "            else 0.5 * g(u.start, i - 1)))\n");
  DiagnosticEngine Diags;
  auto Profile = bio::eliminateSilentStates(
      bio::makeProfileHmm(/*MatchPositions=*/4, bio::Alphabet::dna(),
                          /*Seed=*/23),
      Diags);
  ASSERT_TRUE(Profile.has_value()) << Diags.str();
  bio::Sequence X("x", "acgtaacgttgca");
  std::vector<ArgValue> Args = {ArgValue::ofHmm(&*Profile), ArgValue(),
                                ArgValue::ofSeq(&X), ArgValue()};
  expectEvaluatorsAgree(Fn, Args);

  auto Box = Fn.domainFor(Args, Diags);
  ASSERT_TRUE(Box.has_value()) << Diags.str();
  auto Plan = Fn.planFor(*Box, RunOptions(), nullptr, Diags);
  ASSERT_NE(Plan, nullptr) << Diags.str();
  std::string Kernel = codegen::renderKernelSource(*Plan);
  ASSERT_FALSE(Kernel.empty());
  // Counted in parrec_scan, then in parrec_scan_lanes, which follows it.
  size_t LanesAt = Kernel.find("void parrec_scan_lanes(");
  ASSERT_NE(LanesAt, std::string::npos);
  std::string Scan = Kernel.substr(0, LanesAt);
  auto Count = [&](const std::string &Needle) {
    size_t N = 0;
    for (size_t At = Scan.find(Needle); At != std::string::npos;
         At = Scan.find(Needle, At + 1))
      ++N;
    return N;
  };
  // The copied t's prob, and the outer t's end and start read in the
  // inner body, go generic; u's prob, end and start, and the outer
  // body's own t.start, stay packed.
  EXPECT_EQ(Count("].log_trans["), 1u) << Kernel;
  EXPECT_EQ(Count("].trans_to["), 1u) << Kernel;
  EXPECT_EQ(Count("].trans_from["), 1u) << Kernel;
  EXPECT_EQ(Count("rt->log_prob"), 1u) << Kernel;
  EXPECT_EQ(Count("rt->to"), 1u) << Kernel;
  EXPECT_EQ(Count("rt->from"), 2u) << Kernel;
  // The lanes scan reads every transition operand the same way.
  Scan = Kernel.substr(LanesAt);
  EXPECT_EQ(Count("].log_trans["), 1u) << Kernel;
  EXPECT_EQ(Count("].trans_to["), 1u) << Kernel;
  EXPECT_EQ(Count("].trans_from["), 1u) << Kernel;
  EXPECT_EQ(Count("rt->log_prob"), 1u) << Kernel;
  EXPECT_EQ(Count("rt->to"), 1u) << Kernel;
  EXPECT_EQ(Count("rt->from"), 2u) << Kernel;
}

namespace {

/// The accuracy oracle: forward in scaled linear space, in long double,
/// from the model's own probabilities. It shares nothing with either
/// log-space fold. It walks the model's transition list rather than the
/// per-state adjacency, multiplies and adds linear probabilities, and
/// rescales each row by its largest cell, keeping the log of the
/// scales. Returns the log-likelihood at the recursion's root: the last
/// state after the last row.
long double forwardOracle(const bio::Hmm &Model, const bio::Sequence &X) {
  unsigned N = Model.numStates();
  std::vector<long double> Prev(N), Cur(N);
  for (unsigned S = 0; S != N; ++S)
    Prev[S] = Model.state(S).IsStart ? 1.0L : 0.0L;
  long double LogScale = 0.0L;
  for (int64_t I = 1; I <= X.length(); ++I) {
    std::fill(Cur.begin(), Cur.end(), 0.0L);
    for (unsigned T = 0; T != Model.numTransitions(); ++T) {
      const bio::HmmTransition &Tr = Model.transition(T);
      Cur[Tr.To] += static_cast<long double>(Tr.Prob) * Prev[Tr.From];
    }
    long double Max = 0.0L;
    for (unsigned S = 0; S != N; ++S) {
      if (!Model.state(S).IsEnd)
        Cur[S] *= static_cast<long double>(Model.emission(S, X.at(I - 1)));
      Max = std::max(Max, Cur[S]);
    }
    if (Max == 0.0L)
      return -std::numeric_limits<long double>::infinity();
    for (long double &V : Cur)
      V /= Max;
    LogScale += std::log(Max);
    std::swap(Prev, Cur);
  }
  return LogScale + std::log(Prev[N - 1]);
}

/// The relative error on the root log-likelihood that every forward
/// fold must stay within, against forwardOracle. Both folds measure up
/// to about 9e-14 at 2,000 rows (EXPERIMENTS.md A7): at the root the
/// error is dominated by adding log terms of a large running total in
/// double, which both folds share.
constexpr double ForwardRelErrBound = 1e-12;

} // namespace

TEST(DifferentialTest, ForwardWithinLongDoubleOracle) {
  // The evaluators' online sum (AST, VM and JIT, which agree bit for
  // bit) and the baselines' pairwise logAddExp fold, each against the
  // long-double oracle, on casino, the 63-state profile and seeded
  // random profiles at read lengths up to 2,000.
  double WorstOnline = 0.0, WorstPairwise = 0.0;
  auto Check = [&](const CompiledRecurrence &Fn, const bio::Hmm &Model,
                   const bio::Sequence &Read, const std::string &Name) {
    long double Exact = forwardOracle(Model, Read);
    ASSERT_TRUE(std::isfinite(Exact)) << Name;
    auto RelErr = [&](double Got) {
      return static_cast<double>(std::fabs(Got - Exact) / std::fabs(Exact));
    };
    std::vector<ArgValue> Args = {ArgValue::ofHmm(&Model), ArgValue(),
                                  ArgValue::ofSeq(&Read), ArgValue()};
    gpu::CostModel CostModel;
    DiagnosticEngine Diags;
    std::vector<double> Roots;
    for (EvalKind Evaluator : {EvalKind::Ast, EvalKind::Vm, EvalKind::Jit}) {
      RunOptions Opts;
      Opts.Evaluator = Evaluator;
      Opts.JitCacheDir = jitCacheDirForTest();
      auto Run = Fn.runCpu(Args, CostModel, Diags, Opts);
      ASSERT_TRUE(Run.has_value()) << Name << Diags.str();
      Roots.push_back(Run->RootValue);
    }
    EXPECT_EQ(Roots[0], Roots[1]) << Name << " (AST vs VM)";
    EXPECT_EQ(Roots[0], Roots[2]) << Name << " (AST vs JIT)";
    gpu::CostCounter Cost;
    double Online = RelErr(Roots[0]);
    double Pairwise =
        RelErr(baselines::forwardLogLikelihood(Model, Read, Cost));
    EXPECT_LE(Online, ForwardRelErrBound) << Name << " (online fold)";
    EXPECT_LE(Pairwise, ForwardRelErrBound) << Name << " (pairwise fold)";
    WorstOnline = std::max(WorstOnline, Online);
    WorstPairwise = std::max(WorstPairwise, Pairwise);
  };

  CompiledRecurrence Dice = compileOrDie(CasinoForwardSource, {"dice"});
  bio::Hmm Casino = bio::makeCasinoModel();
  Check(Dice, Casino, bio::Sequence("x", Casino.sample(/*Seed=*/7)),
        "casino sample");
  Check(Dice, Casino, bio::Sequence("x", randomString("abcdef", 2000, 3)),
        "casino 2000 rolls");

  CompiledRecurrence Protein = compileOrDie(ProteinForwardSource);
  auto Wide = makeWideProfile();
  ASSERT_NE(Wide, nullptr);
  Check(Protein, Wide->Model, Wide->Read, "wide profile");
  Check(Protein, Wide->Model,
        bio::Sequence("x", randomString(bio::Alphabet::protein().letters(),
                                        2000, /*Seed=*/8)),
        "wide profile 2000");

  CompiledRecurrence Dna = compileOrDie(DnaForwardSource);
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    DiagnosticEngine Diags;
    auto Profile = bio::eliminateSilentStates(
        bio::makeProfileHmm(/*MatchPositions=*/static_cast<unsigned>(
                                4 * Seed),
                            bio::Alphabet::dna(), Seed * 101),
        Diags);
    ASSERT_TRUE(Profile.has_value()) << Diags.str();
    for (size_t Length : {300, 2000})
      Check(Dna, *Profile,
            bio::Sequence("x", randomString(bio::Alphabet::dna().letters(),
                                            Length, Seed * 7 + Length)),
            "profile seed " + std::to_string(Seed) + " length " +
                std::to_string(Length));
  }
  std::printf("forward vs long-double oracle, max relative error: "
              "online %.3g, pairwise %.3g (bound %.0e)\n",
              WorstOnline, WorstPairwise, ForwardRelErrBound);
}

//===----------------------------------------------------------------------===//
// Randomized inputs (seeded, deterministic)
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, RandomSmithWatermanPairs) {
  CompiledRecurrence Fn = compileOrDie(SmithWatermanSource);
  const bio::SubstitutionMatrix M =
      bio::SubstitutionMatrix::matchMismatch(bio::Alphabet::dna(), 3, 2);
  const std::string &Letters = bio::Alphabet::dna().letters();
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    bio::Sequence A("a", randomString(Letters, 5 + Seed * 4, Seed));
    bio::Sequence B("b", randomString(Letters, 3 + Seed * 5, Seed + 100));
    expectEvaluatorsAgree(Fn,
                          {ArgValue::ofMatrix(&M), ArgValue::ofSeq(&A),
                           ArgValue(), ArgValue::ofSeq(&B), ArgValue()});
  }
}

TEST(DifferentialTest, RandomEditDistancePairs) {
  CompiledRecurrence Fn = compileOrDie(EditDistanceSource);
  const std::string &Letters = bio::Alphabet::english().letters();
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    bio::Sequence S("s", randomString(Letters, 4 + Seed * 3, Seed * 13));
    bio::Sequence T("t", randomString(Letters, 2 + Seed * 6, Seed * 17));
    expectEvaluatorsAgree(Fn, {ArgValue::ofSeq(&S), ArgValue(),
                               ArgValue::ofSeq(&T), ArgValue()});
  }
}

TEST(DifferentialTest, RandomProfileHmms) {
  CompiledRecurrence Forward = compileOrDie(DnaForwardSource);
  CompiledRecurrence Viterbi = compileOrDie(DnaViterbiSource);
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    DiagnosticEngine Diags;
    bio::Hmm Raw = bio::makeProfileHmm(
        /*MatchPositions=*/static_cast<unsigned>(2 + Seed),
        bio::Alphabet::dna(), Seed * 31);
    auto Profile = bio::eliminateSilentStates(Raw, Diags);
    ASSERT_TRUE(Profile.has_value()) << Diags.str();
    std::string Observed = Profile->sample(Seed * 7);
    ASSERT_FALSE(Observed.empty());
    bio::Sequence X("x", Observed);
    std::vector<ArgValue> Args = {ArgValue::ofHmm(&*Profile), ArgValue(),
                                  ArgValue::ofSeq(&X), ArgValue()};
    expectEvaluatorsAgree(Forward, Args);
    expectEvaluatorsAgree(Viterbi, Args);
  }
}

//===----------------------------------------------------------------------===//
// Plumbing: plans carry the program; shipped scripts agree end to end
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, PlansCarryTheCompiledProgram) {
  CompiledRecurrence Fn = compileOrDie(EditDistanceSource);
  ASSERT_NE(Fn.bytecode(), nullptr);
  bio::Sequence S("s", "abc"), T("t", "abd");
  std::vector<ArgValue> Args = {ArgValue::ofSeq(&S), ArgValue(),
                                ArgValue::ofSeq(&T), ArgValue()};
  DiagnosticEngine Diags;
  auto Box = Fn.domainFor(Args, Diags);
  ASSERT_TRUE(Box.has_value()) << Diags.str();
  auto Plan = Fn.planFor(*Box, RunOptions(), nullptr, Diags);
  ASSERT_NE(Plan, nullptr) << Diags.str();
  // The plan shares the function's program — including on cache hits.
  EXPECT_EQ(Plan->Program.get(), Fn.bytecode().get());
  auto Again = Fn.planFor(*Box, RunOptions(), nullptr, Diags);
  EXPECT_EQ(Again.get(), Plan.get());
  EXPECT_EQ(Again->Program.get(), Fn.bytecode().get());
}

TEST(DifferentialTest, JitUnderWorkerNesting) {
  // The JIT composes with both host-parallel axes: one kernel
  // invocation per (partition, simulated-thread-range) slice under
  // ScanWorkers, and per-problem kernels under BatchWorkers — every
  // observable bit-identical to the serial VM run.
  CompiledRecurrence Fn = compileOrDie(SmithWatermanSource);
  const bio::SubstitutionMatrix M =
      bio::SubstitutionMatrix::matchMismatch(bio::Alphabet::dna(), 2, 1);
  bio::Sequence A("a", randomString(bio::Alphabet::dna().letters(), 64, 5));
  bio::Sequence B("b", randomString(bio::Alphabet::dna().letters(), 57, 9));
  std::vector<ArgValue> Args = {ArgValue::ofMatrix(&M),
                                ArgValue::ofSeq(&A), ArgValue(),
                                ArgValue::ofSeq(&B), ArgValue()};
  gpu::Device Dev;
  DiagnosticEngine Diags;

  RunOptions VmOpts;
  VmOpts.ScanWorkers = 1;
  auto Vm = Fn.runGpu(Args, Dev, Diags, VmOpts);
  ASSERT_TRUE(Vm.has_value()) << Diags.str();

  for (unsigned ScanWorkers : {1u, 3u}) {
    RunOptions JitOpts;
    JitOpts.Evaluator = EvalKind::Jit;
    JitOpts.JitCacheDir = jitCacheDirForTest();
    JitOpts.ScanWorkers = ScanWorkers;
    JitOpts.ScanGrainCells = 1; // force the fan-out even on a small box
    auto Jit = Fn.runGpu(Args, Dev, Diags, JitOpts);
    ASSERT_TRUE(Jit.has_value()) << Diags.str();
    expectRunsIdentical(*Vm, *Jit, "JIT",
                        " (scan-workers=" + std::to_string(ScanWorkers) +
                            ")");
  }

  // Batch nesting: the same problem replicated, batch workers > 1.
  std::vector<std::vector<ArgValue>> Problems(4, Args);
  RunOptions VmBatch;
  VmBatch.BatchWorkers = 1;
  RunOptions JitBatch;
  JitBatch.Evaluator = EvalKind::Jit;
  JitBatch.JitCacheDir = jitCacheDirForTest();
  JitBatch.BatchWorkers = 2;
  JitBatch.ScanWorkers = 2;
  auto VmB = Fn.runGpuBatch(Problems, Dev, Diags, VmBatch);
  auto JitB = Fn.runGpuBatch(Problems, Dev, Diags, JitBatch);
  ASSERT_TRUE(VmB.has_value()) << Diags.str();
  ASSERT_TRUE(JitB.has_value()) << Diags.str();
  ASSERT_EQ(VmB->Problems.size(), JitB->Problems.size());
  for (size_t I = 0; I != VmB->Problems.size(); ++I)
    expectRunsIdentical(VmB->Problems[I], JitB->Problems[I], "JIT",
                        " (batch problem " + std::to_string(I) + ")");
  EXPECT_EQ(VmB->TotalCycles, JitB->TotalCycles);
}

TEST(DifferentialTest, FixedLevelAboveTheInnermostReadsItsExtents) {
  // Under (2, 0) the nest fixes i = p / 2 at level 1 and loops j at
  // level 2 up to the j extent, a nest parameter: the fixed level's
  // numerator must not hide that parameter in the kernel.
  CompiledRecurrence Fn =
      compileOrDie("int f(seq[en] s, index[s] i, seq[en] t, index[t] j) =\n"
                   "  if i == 0 then 0 else f(i-1, j) + 1\n");
  bio::Sequence S("s", "abcdefg"), T("t", "abcdefghijk");
  std::vector<ArgValue> Args = {ArgValue::ofSeq(&S), ArgValue(),
                                ArgValue::ofSeq(&T), ArgValue()};
  gpu::Device Dev;
  DiagnosticEngine Diags;
  uint64_t FallbacksBefore =
      obs::MetricsRegistry::global().snapshot().counter("jit.fallbacks");
  RunOptions VmOpts;
  VmOpts.ForcedSchedule = solver::Schedule{{2, 0}};
  RunOptions JitOpts = VmOpts;
  JitOpts.Evaluator = EvalKind::Jit;
  JitOpts.JitCacheDir = jitCacheDirForTest();
  auto Vm = Fn.runGpu(Args, Dev, Diags, VmOpts);
  auto Jit = Fn.runGpu(Args, Dev, Diags, JitOpts);
  ASSERT_TRUE(Vm.has_value()) << Diags.str();
  ASSERT_TRUE(Jit.has_value()) << Diags.str();
  EXPECT_EQ(Vm->RootValue, 7.0);
  EXPECT_EQ(Vm->Cells, 8u * 12u);
  expectRunsIdentical(*Vm, *Jit, "JIT", " (schedule 2,0)");
  EXPECT_EQ(
      obs::MetricsRegistry::global().snapshot().counter("jit.fallbacks"),
      FallbacksBefore);
}

TEST(DifferentialTest, EveryDroppedDimensionOfAThreeDimensionalWindow) {
  // Under i + j + k a window may drop any dimension, and the box drops
  // its largest: one kernel holds a scan per dimension, and each of
  // the three boxes runs another.
  CompiledRecurrence Fn = compileOrDie(
      "int f(seq[en] a, index[a] i, seq[en] b, index[b] j,\n"
      "      seq[en] c, index[c] k) =\n"
      "  if i == 0 then j + k\n"
      "  else if j == 0 then i + k\n"
      "  else if k == 0 then i + j\n"
      "  else if a[i-1] == b[j-1] then f(i-1, j-1, k) max f(i, j, k-1)\n"
      "  else (f(i-1, j, k) min f(i, j-1, k) min f(i, j, k-1)) + 1\n");
  for (auto [AText, BText, CText] :
       {std::tuple{"abcdefghijk", "abcd", "abcdefg"},
        std::tuple{"abcd", "abcdefghijk", "abcdefg"},
        std::tuple{"abcdefg", "abcd", "abcdefghijk"}}) {
    bio::Sequence A("a", AText), B("b", BText), C("c", CText);
    expectEvaluatorsAgree(Fn, {ArgValue::ofSeq(&A), ArgValue(),
                               ArgValue::ofSeq(&B), ArgValue(),
                               ArgValue::ofSeq(&C), ArgValue()});
  }
}

TEST(DifferentialTest, ShippedScriptsProduceIdenticalOutput) {
  for (const char *Script :
       {"smith_waterman.rdsl", "edit_distance.rdsl", "casino.rdsl",
        "casino_batch.rdsl"}) {
    std::string Source = readFileOrDie(scriptsPath(Script));
    auto RunScript = [&](EvalKind Evaluator) {
      DiagnosticEngine Diags;
      Interpreter::Options Opts;
      Opts.BasePath = PARREC_SCRIPTS_DIR;
      Opts.Run.Evaluator = Evaluator;
      Opts.Run.JitCacheDir = jitCacheDirForTest();
      Interpreter Interp(Diags, std::move(Opts));
      auto Output = Interp.run(Source);
      EXPECT_TRUE(Output.has_value())
          << Script << " failed: " << Diags.str();
      return Output.value_or("");
    };
    std::string VmOut = RunScript(EvalKind::Vm);
    std::string AstOut = RunScript(EvalKind::Ast);
    std::string JitOut = RunScript(EvalKind::Jit);
    EXPECT_FALSE(VmOut.empty()) << Script;
    EXPECT_EQ(VmOut, AstOut) << Script;
    EXPECT_EQ(VmOut, JitOut) << Script;
  }
}

//===----------------------------------------------------------------------===//
// Int-typed table reads
//===----------------------------------------------------------------------===//

namespace {

/// Whether \p Fn's program reads its table with opcode \p Op.
bool readsWith(const CompiledRecurrence &Fn, codegen::Opcode Op) {
  for (const codegen::Instr &I : Fn.bytecode()->Code)
    if (I.Op == Op)
      return true;
  return false;
}

/// Runs the two-sequence recursion \p Fn on an S x T box with every
/// evaluator (full table kept) and checks each cell bit for bit against
/// \p Oracle, a plain C++ table of doubles whose reads round with
/// std::llround; then checks the evaluators against each other on both
/// backends, with the window on and off.
void expectCellsMatchOracle(
    const CompiledRecurrence &Fn, size_t SLen, size_t TLen,
    const std::function<double(int64_t, int64_t,
                               const std::function<int64_t(int64_t, int64_t)> &)>
        &Cell) {
  std::vector<double> Oracle((SLen + 1) * (TLen + 1));
  auto At = [&](int64_t I, int64_t J) -> double & {
    return Oracle[static_cast<size_t>(I) * (TLen + 1) +
                  static_cast<size_t>(J)];
  };
  std::function<int64_t(int64_t, int64_t)> Read = [&](int64_t I, int64_t J) {
    return static_cast<int64_t>(std::llround(At(I, J)));
  };
  for (int64_t I = 0; I <= static_cast<int64_t>(SLen); ++I)
    for (int64_t J = 0; J <= static_cast<int64_t>(TLen); ++J)
      At(I, J) = Cell(I, J, Read);

  bio::Sequence S("s", std::string(SLen, 'a')), T("t", std::string(TLen, 'b'));
  std::vector<ArgValue> Args = {ArgValue::ofSeq(&S), ArgValue(),
                                ArgValue::ofSeq(&T), ArgValue()};
  gpu::Device Dev;
  DiagnosticEngine Diags;
  for (EvalKind Kind : {EvalKind::Ast, EvalKind::Vm, EvalKind::Jit}) {
    RunOptions Opts;
    Opts.UseSlidingWindow = false;
    Opts.KeepTable = true;
    Opts.Evaluator = Kind;
    Opts.JitCacheDir = jitCacheDirForTest();
    auto R = Fn.runGpu(Args, Dev, Diags, Opts);
    ASSERT_TRUE(R.has_value()) << Diags.str();
    ASSERT_NE(R->Table, nullptr);
    for (int64_t I = 0; I <= static_cast<int64_t>(SLen); ++I)
      for (int64_t J = 0; J <= static_cast<int64_t>(TLen); ++J) {
        int64_t Point[2] = {I, J};
        EXPECT_EQ(std::bit_cast<uint64_t>(R->Table->get(Point)),
                  std::bit_cast<uint64_t>(At(I, J)))
            << "evaluator " << static_cast<int>(Kind) << " cell (" << I
            << ", " << J << "): " << R->Table->get(Point) << " vs "
            << At(I, J);
      }
    EXPECT_EQ(std::bit_cast<uint64_t>(R->RootValue),
              std::bit_cast<uint64_t>(At(static_cast<int64_t>(SLen),
                                         static_cast<int64_t>(TLen))));
  }
  expectEvaluatorsAgree(Fn, Args);
}

} // namespace

TEST(DifferentialTest, IntFunctionWithFloatBodyRoundsHalvesAwayFromZero) {
  // Sema admits an int function with a float body: its table holds
  // doubles such as -2.5 and 0.49999999999999994, and every read must
  // round them as llround does (half away from zero, and
  // 0.49999999999999994 to 0, where floor(x + 0.5) gives 1).
  CompiledRecurrence Fn = compileOrDie(
      "int h(seq[en] s, index[s] i, seq[en] t, index[t] j) =\n"
      "  if i == 0 then 0.49999999999999994 * j\n"
      "  else if j == 0 then 0.5 - i\n"
      "  else h(i-1, j) + h(i, j-1) * 0.5 - h(i-1, j-1) + 0.5\n");
  ASSERT_NE(Fn.bytecode(), nullptr);
  EXPECT_TRUE(readsWith(Fn, codegen::Opcode::TableReadRoundInt));
  EXPECT_FALSE(readsWith(Fn, codegen::Opcode::TableReadInt));
  bool SawHalf = false, SawNearHalf = false, SawNegativeHalf = false;
  expectCellsMatchOracle(
      Fn, 9, 12,
      [&](int64_t I, int64_t J,
          const std::function<int64_t(int64_t, int64_t)> &Read) {
        double V;
        if (I == 0)
          V = 0.49999999999999994 * static_cast<double>(J);
        else if (J == 0)
          V = 0.5 - static_cast<double>(I);
        else
          V = static_cast<double>(Read(I - 1, J)) +
              static_cast<double>(Read(I, J - 1)) * 0.5 -
              static_cast<double>(Read(I - 1, J - 1)) + 0.5;
        double Frac = V - std::trunc(V);
        SawHalf |= Frac == 0.5;
        SawNegativeHalf |= Frac == -0.5;
        SawNearHalf |= V == 0.49999999999999994;
        return V;
      });
  EXPECT_TRUE(SawHalf);
  EXPECT_TRUE(SawNegativeHalf);
  EXPECT_TRUE(SawNearHalf);
}

TEST(DifferentialTest, IntBodiedValuesPastTwoToThe53ReadBackExactly) {
  // An int body stores double(int64): past 2^53 the store rounds, and
  // the plain conversion must read back what llround would.
  CompiledRecurrence Fn = compileOrDie(
      "int g(seq[en] s, index[s] i, seq[en] t, index[t] j) =\n"
      "  if i == 0 then j + 1\n"
      "  else if j == 0 then g(i-1, j) * 3 + 1\n"
      "  else g(i-1, j) * 3 + g(i, j-1)\n");
  ASSERT_NE(Fn.bytecode(), nullptr);
  EXPECT_TRUE(readsWith(Fn, codegen::Opcode::TableReadInt));
  EXPECT_FALSE(readsWith(Fn, codegen::Opcode::TableReadRoundInt));
  unsigned Inexact = 0;
  expectCellsMatchOracle(
      Fn, 28, 4,
      [&](int64_t I, int64_t J,
          const std::function<int64_t(int64_t, int64_t)> &Read) {
        int64_t V;
        if (I == 0)
          V = J + 1;
        else if (J == 0)
          V = Read(I - 1, J) * 3 + 1;
        else
          V = Read(I - 1, J) * 3 + Read(I, J - 1);
        double D = static_cast<double>(V);
        Inexact += static_cast<int64_t>(D) != V;
        return D;
      });
  EXPECT_GT(Inexact, 0u) << "no value lost bits in the store";
}

TEST(RoundToInt64Test, MatchesLlroundOnEveryDouble) {
  auto Expect = [](double X) {
    int64_t Got = codegen::pr_round_i64(X);
    // llround is unspecified out of range; x86-64 returns INT64_MIN.
#if defined(__x86_64__)
    int64_t Want = static_cast<int64_t>(std::llround(X));
#else
    int64_t Want = std::isfinite(X) && std::fabs(X) < 0x1p63
                       ? static_cast<int64_t>(std::llround(X))
                       : std::numeric_limits<int64_t>::min();
#endif
    EXPECT_EQ(Got, Want) << std::hexfloat << X;
    return Got == Want;
  };
  double Inf = std::numeric_limits<double>::infinity();
  for (double X : {std::numeric_limits<double>::quiet_NaN(), Inf, -Inf,
                   0x1p63, -0x1p63, 0x1p63 - 1024, -0x1p63 + 1024, 0.0,
                   -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5,
                   0.49999999999999994, -0.49999999999999994,
                   0x1p52 - 0.5, -0x1p52 + 0.5, 0x1p52 + 1, 0x1p53 + 2,
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::lowest()})
    Expect(X);
  // Seeded doubles: raw bit patterns (every exponent, NaN payloads),
  // values of every magnitude up to 2^64, and halves k + 1/2 with their
  // neighbours.
  uint64_t State = 0x9e3779b97f4a7c15ull;
  auto Next = [&] {
    State += 0x9e3779b97f4a7c15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  };
  unsigned Failures = 0;
  for (unsigned N = 0; N != 1200000 && Failures < 10; ++N) {
    uint64_t R = Next();
    double X;
    switch (N % 4) {
    case 0:
      X = std::bit_cast<double>(R);
      break;
    case 1: {
      double Unit = static_cast<double>(R >> 11) * 0x1p-53;
      X = std::ldexp(Unit, static_cast<int>(Next() % 66)) *
          (R & 1 ? -1.0 : 1.0);
      break;
    }
    default: {
      double Half = static_cast<double>(static_cast<int64_t>(R) >>
                                        (11 + Next() % 52)) +
                    0.5;
      X = N % 4 == 2 ? Half
                     : std::nextafter(Half, (R & 2) ? Inf : -Inf);
      break;
    }
    }
    Failures += !Expect(X);
  }
}

//===----------------------------------------------------------------------===//
// Register operations at the edges: folded bits are executed bits
//===----------------------------------------------------------------------===//

namespace {

/// Int operands: 0, 1, -1, INT64_MAX and INT64_MIN.
const std::vector<std::string> IntEdges = {
    "0", "1", "(0 - 1)", "9223372036854775807",
    "(0 - 9223372036854775807 - 1)"};
/// Real operands: 0.0 / 0.0, +inf, -0.0 and 0.0.
const std::vector<std::string> RealEdges = {"(0.0 / 0.0)", "(1.0 / 0.0)",
                                            "((0 - 1.0) * 0.0)", "0.0"};

/// RealEdges' values, computed at run time as the folder computes them
/// (a division folded by the C++ compiler may give another NaN).
std::vector<double> realEdgeValues() {
  volatile double Zero = 0.0, One = 1.0;
  return {Zero / Zero, One / Zero, -One * Zero, Zero};
}

/// "if n == 0 then C0 else if n == 1 then C1 ... else Clast": cell n of
/// the function's table holds case n.
std::string caseChain(const std::vector<std::string> &Cases) {
  std::string S;
  for (size_t N = 0; N + 1 < Cases.size(); ++N)
    S += "if n == " + std::to_string(N) + " then " + Cases[N] + " else ";
  return S + Cases.back();
}

/// The bits of cells 0 .. Cases-1 of \p Fn's table under \p Kind, whose
/// first parameter is `int n`; \p Rest binds the others.
std::vector<uint64_t> caseBits(const CompiledRecurrence &Fn, size_t Cases,
                               const std::vector<ArgValue> &Rest,
                               EvalKind Kind) {
  std::vector<ArgValue> Args = {
      ArgValue::ofInt(static_cast<int64_t>(Cases) - 1)};
  Args.insert(Args.end(), Rest.begin(), Rest.end());
  gpu::Device Dev;
  DiagnosticEngine Diags;
  RunOptions Opts;
  Opts.UseSlidingWindow = false;
  Opts.KeepTable = true;
  Opts.Evaluator = Kind;
  Opts.JitCacheDir = jitCacheDirForTest();
  auto R = Fn.runGpu(Args, Dev, Diags, Opts);
  EXPECT_TRUE(R.has_value() && R->Table) << Diags.str();
  // The raw storage: get() reads one cell.
  auto *Table = R ? dynamic_cast<exec::DpTable *>(R->Table.get()) : nullptr;
  std::vector<uint64_t> Bits;
  for (size_t N = 0; Table && N != Cases; ++N)
    Bits.push_back(std::bit_cast<uint64_t>(Table->rawData()[N]));
  return Bits;
}

/// Instructions of \p Fn's program that compute a register operation.
size_t registerOps(const CompiledRecurrence &Fn) {
  size_t N = 0;
  for (const codegen::Instr &I : Fn.bytecode()->Code)
    switch (I.Op) {
#define PARREC_UNARY(Name, Res, Opnd, Form, What) case codegen::Opcode::Name:
#define PARREC_BINARY(Name, Res, Opnd, Form, What) case codegen::Opcode::Name:
#include "codegen/Opcodes.def"
      ++N;
      break;
    default:
      break;
    }
  return N;
}

/// Cases that each apply one register operation (Ops[K]) to literals
/// (Literal[K]) and to values the evaluators compute (Param[K]).
struct EdgeCases {
  std::vector<std::string> Literal, Param;
  std::vector<codegen::Opcode> Ops;

  void add(codegen::Opcode Op, std::string Lit, std::string Par) {
    Ops.push_back(Op);
    Literal.push_back(std::move(Lit));
    Param.push_back(std::move(Par));
  }
};

/// Compiles `<LitHead> = <C.Literal>`, which the folder computes whole
/// (its only register operation left is the case selector's one per
/// case), and `<ParHead> = <C.Param>`, which runs every operation. Then
/// checks the AST walker on the first, and the AST walker, the VM and the
/// JIT on the second, against the folded values bit for bit, cell by
/// cell. \p LitArgs and \p ParArgs bind the parameters after n.
void expectFoldedIsExecuted(const std::string &LitHead,
                            const std::vector<ArgValue> &LitArgs,
                            const std::string &ParHead,
                            const std::vector<ArgValue> &ParArgs,
                            const EdgeCases &C) {
  CompiledRecurrence Lit =
      compileOrDie((LitHead + " = " + caseChain(C.Literal)).c_str());
  CompiledRecurrence Par =
      compileOrDie((ParHead + " = " + caseChain(C.Param)).c_str());
  ASSERT_NE(Lit.bytecode(), nullptr) << LitHead;
  ASSERT_NE(Par.bytecode(), nullptr) << ParHead;
  size_t Cases = C.Ops.size();
  EXPECT_EQ(registerOps(Lit), Cases - 1)
      << LitHead << ": a case was not folded";
  for (codegen::Opcode Op : C.Ops)
    EXPECT_TRUE(readsWith(Par, Op))
        << ParHead << " runs no opcode " << static_cast<int>(Op);
  uint64_t FallbacksBefore =
      obs::MetricsRegistry::global().snapshot().counter("jit.fallbacks");
  // The VM runs the folded program's constants.
  std::vector<uint64_t> Folded = caseBits(Lit, Cases, LitArgs, EvalKind::Vm);
  ASSERT_EQ(Folded.size(), Cases);
  std::pair<const char *, std::vector<uint64_t>> Runs[] = {
      {"AST walker on literals", caseBits(Lit, Cases, LitArgs, EvalKind::Ast)},
      {"AST walker", caseBits(Par, Cases, ParArgs, EvalKind::Ast)},
      {"VM", caseBits(Par, Cases, ParArgs, EvalKind::Vm)},
      {"JIT", caseBits(Par, Cases, ParArgs, EvalKind::Jit)}};
  for (const auto &[Name, Bits] : Runs) {
    ASSERT_EQ(Bits.size(), Cases) << Name;
    for (size_t N = 0; N != Cases; ++N)
      EXPECT_EQ(Bits[N], Folded[N])
          << Name << ", case " << N << ": " << C.Param[N] << " gives "
          << std::bit_cast<double>(Bits[N]) << ", the folder "
          << std::bit_cast<double>(Folded[N]) << " for " << C.Literal[N];
  }
  EXPECT_EQ(
      obs::MetricsRegistry::global().snapshot().counter("jit.fallbacks"),
      FallbacksBefore)
      << ParHead << ": the JIT fell back to the VM";
}

} // namespace

TEST(DifferentialTest, FoldedOperationsMatchExecutedOnesAtTheEdges) {
  using codegen::Opcode;
  // Int + - * / min max over every pair of edges. An int parameter is a
  // recursion dimension, so the executed operands are n - n + edge. A
  // cell holds the high or the low 32 bits of a result, which a double
  // holds exactly, where the whole result may lose bits.
  const std::pair<const char *, Opcode> IntOps[] = {
      {"+", Opcode::AddInt},   {"-", Opcode::SubInt},
      {"*", Opcode::MulInt},   {"/", Opcode::DivInt},
      {"min", Opcode::MinInt}, {"max", Opcode::MaxInt}};
  EdgeCases Ints;
  for (const auto &[Spelling, Op] : IntOps)
    for (const std::string &A : IntEdges)
      for (const std::string &B : IntEdges) {
        std::string Lit = "(" + A + " " + Spelling + " " + B + ")";
        std::string Par = "((n - n + " + A + ") " + Spelling + " (n - n + " +
                          B + "))";
        Ints.add(Op, Lit + " / 4294967296", Par + " / 4294967296");
        Ints.add(Op, Lit + " - " + Lit + " / 4294967296 * 4294967296",
                 Par + " - " + Par + " / 4294967296 * 4294967296");
      }
  expectFoldedIsExecuted("int f(int n)", {}, "int f(int n)", {}, Ints);

  // Int comparisons over every pair of edges, as int64 values.
  const std::pair<const char *, Opcode> IntCompares[] = {
      {"<", Opcode::CmpLtInt},  {"<=", Opcode::CmpLeInt},
      {">", Opcode::CmpGtInt},  {">=", Opcode::CmpGeInt},
      {"==", Opcode::CmpEqInt}, {"!=", Opcode::CmpNeInt}};
  EdgeCases IntBools;
  for (const auto &[Spelling, Op] : IntCompares)
    for (const std::string &A : IntEdges)
      for (const std::string &B : IntEdges)
        IntBools.add(Op, A + " " + Spelling + " " + B,
                     "(n - n + " + A + ") " + Spelling + " (n - n + " + B +
                         ")");
  expectFoldedIsExecuted("bool f(int n)", {}, "bool f(int n)", {}, IntBools);

  // Real + - * / min max and the comparisons over every pair of edges,
  // bound to the parameters e0 .. e3 where the evaluators compute.
  std::vector<ArgValue> Edges;
  for (double V : realEdgeValues())
    Edges.push_back(ArgValue::ofReal(V));
  const std::string EdgeParams = ", float e0, float e1, float e2, float e3";
  auto E = [](size_t I) { return "e" + std::to_string(I); };
  const std::pair<const char *, Opcode> RealOps[] = {
      {"+", Opcode::AddReal},   {"-", Opcode::SubReal},
      {"*", Opcode::MulReal},   {"/", Opcode::DivReal},
      {"min", Opcode::MinReal}, {"max", Opcode::MaxReal}};
  const std::pair<const char *, Opcode> Compares[] = {
      {"<", Opcode::CmpLtReal},  {"<=", Opcode::CmpLeReal},
      {">", Opcode::CmpGtReal},  {">=", Opcode::CmpGeReal},
      {"==", Opcode::CmpEqReal}, {"!=", Opcode::CmpNeReal}};
  EdgeCases Reals, Bools;
  for (size_t I = 0; I != RealEdges.size(); ++I)
    for (size_t J = 0; J != RealEdges.size(); ++J) {
      for (const auto &[Spelling, Op] : RealOps)
        Reals.add(Op, RealEdges[I] + " " + Spelling + " " + RealEdges[J],
                  E(I) + " " + Spelling + " " + E(J));
      for (const auto &[Spelling, Op] : Compares)
        Bools.add(Op, RealEdges[I] + " " + Spelling + " " + RealEdges[J],
                  E(I) + " " + Spelling + " " + E(J));
    }
  expectFoldedIsExecuted("float f(int n)", {}, "float f(int n" + EdgeParams +
                         ")", Edges, Reals);
  expectFoldedIsExecuted("bool f(int n)", {}, "bool f(int n" + EdgeParams +
                         ")", Edges, Bools);

  // Int -> real, and int -> log and real -> log: a prob-typed if converts
  // its non-prob branches with pr_tolog, so the chain ends in the prob p.
  EdgeCases ToReal, ToLog;
  for (const std::string &A : IntEdges) {
    ToReal.add(Opcode::IntToReal, A + " * 1.0", "(n - n + " + A + ") * 1.0");
    ToLog.add(Opcode::LogOf, A, "(n - n + " + A + ")");
  }
  for (size_t I = 0; I != RealEdges.size(); ++I)
    ToLog.add(Opcode::LogOf, RealEdges[I], E(I));
  ToLog.add(Opcode::LogOf, "p", "p");
  expectFoldedIsExecuted("float f(int n)", {}, "float f(int n)", {}, ToReal);
  std::vector<ArgValue> PEdges = {ArgValue::ofReal(0.0)};
  PEdges.insert(PEdges.end(), Edges.begin(), Edges.end());
  expectFoldedIsExecuted("prob f(int n, prob p)", {ArgValue::ofReal(0.0)},
                         "prob f(int n, prob p" + EdgeParams + ")", PEdges,
                         ToLog);

  // == and != on chars, read from a sequence where the evaluators
  // compute, and on bools.
  bio::Sequence Letters("s", "ab");
  auto Char = [](const char *C) {
    return std::string(C[1] == 'a' ? "s[0]" : "s[1]");
  };
  auto Bool = [](const char *B) {
    return std::string(B[0] == 't' ? "(n == n)" : "(n != n)");
  };
  EdgeCases Equalities;
  for (const char *Spelling : {"==", "!="}) {
    Opcode Op = Spelling[0] == '=' ? Opcode::CmpEqInt : Opcode::CmpNeInt;
    for (const char *X : {"'a'", "'b'"})
      for (const char *Y : {"'a'", "'b'"})
        Equalities.add(Op, std::string(X) + " " + Spelling + " " + Y,
                       Char(X) + " " + Spelling + " " + Char(Y));
    for (const char *X : {"true", "false"})
      for (const char *Y : {"true", "false"})
        Equalities.add(Op, std::string(X) + " " + Spelling + " " + Y,
                       Bool(X) + " " + Spelling + " " + Bool(Y));
  }
  expectFoldedIsExecuted("bool f(int n)", {}, "bool f(int n, seq[en] s)",
                         {ArgValue::ofSeq(&Letters)}, Equalities);

  // Prob * / + min max. No prob value is a literal, so the folder never
  // meets one; the evaluators' bits are checked against evalRegOp, which
  // the folder calls, over the same edges taken as log-space values.
  const std::pair<const char *, Opcode> ProbOps[] = {
      {"*", Opcode::LogMul},    {"/", Opcode::LogDiv},
      {"+", Opcode::LogSum},    {"min", Opcode::MinReal},
      {"max", Opcode::MaxReal}};
  std::vector<std::string> ProbCases;
  std::vector<uint64_t> Want;
  for (size_t I = 0; I != Edges.size(); ++I)
    for (size_t J = 0; J != Edges.size(); ++J)
      for (const auto &[Spelling, Op] : ProbOps) {
        ProbCases.push_back(E(I) + " " + Spelling + " " + E(J));
        codegen::RegValue X, Y;
        X.D = Edges[I].Real;
        Y.D = Edges[J].Real;
        Want.push_back(std::bit_cast<uint64_t>(codegen::evalRegOp(Op, X, Y).D));
      }
  CompiledRecurrence Probs = compileOrDie(
      ("prob f(int n, prob e0, prob e1, prob e2, prob e3) = " +
       caseChain(ProbCases))
          .c_str());
  for (EvalKind Kind : {EvalKind::Ast, EvalKind::Vm, EvalKind::Jit}) {
    std::vector<uint64_t> Bits =
        caseBits(Probs, ProbCases.size(), Edges, Kind);
    ASSERT_EQ(Bits.size(), Want.size());
    for (size_t N = 0; N != Want.size(); ++N)
      EXPECT_EQ(Bits[N], Want[N])
          << "evaluator " << static_cast<int>(Kind) << ", " << ProbCases[N];
  }
}

//===----------------------------------------------------------------------===//
// Lanes: a batch's same-shaped problems scanned four at a time
//===----------------------------------------------------------------------===//

namespace {

/// Every field of a RunResult that a run fills: value, table maximum,
/// cells, partitions, cost, cycles and schedule, the GPU metrics, and
/// the timeline sample by sample.
void expectSameResult(const RunResult &Want, const RunResult &Got,
                      const char *Name, const std::string &Where) {
  expectRunsIdentical(Want, Got, Name, Where);
  EXPECT_TRUE(Want.UsedSchedule == Got.UsedSchedule) << Name << Where;
  const gpu::GpuRunMetrics &A = Want.Metrics, &B = Got.Metrics;
  EXPECT_EQ(A.Cycles, B.Cycles) << Name << Where;
  EXPECT_EQ(A.Partitions, B.Partitions) << Name << Where;
  EXPECT_EQ(A.CellsComputed, B.CellsComputed) << Name << Where;
  EXPECT_EQ(A.SharedAccesses, B.SharedAccesses) << Name << Where;
  EXPECT_EQ(A.GlobalAccesses, B.GlobalAccesses) << Name << Where;
  EXPECT_EQ(A.TableBytes, B.TableBytes) << Name << Where;
  EXPECT_EQ(A.BarrierCycles, B.BarrierCycles) << Name << Where;
  EXPECT_EQ(A.ThreadCycles, B.ThreadCycles) << Name << Where;
  EXPECT_EQ(A.CriticalCycles, B.CriticalCycles) << Name << Where;
  EXPECT_EQ(A.Threads, B.Threads) << Name << Where;
  ASSERT_EQ(Want.Timeline == nullptr, Got.Timeline == nullptr)
      << Name << Where;
  if (!Want.Timeline)
    return;
  ASSERT_EQ(Want.Timeline->size(), Got.Timeline->size()) << Name << Where;
  for (size_t S = 0; S != Want.Timeline->size(); ++S) {
    const gpu::PartitionSample &X = (*Want.Timeline)[S];
    const gpu::PartitionSample &Y = (*Got.Timeline)[S];
    EXPECT_TRUE(X.Partition == Y.Partition && X.Cells == Y.Cells &&
                X.MaxThreadCycles == Y.MaxThreadCycles &&
                X.SumThreadCycles == Y.SumThreadCycles &&
                X.BarrierCycles == Y.BarrierCycles &&
                X.ActiveThreads == Y.ActiveThreads && X.Threads == Y.Threads)
        << Name << Where << " timeline sample " << S;
  }
}

uint64_t lanesRuns() {
  return obs::MetricsRegistry::global().snapshot().labelled(
      "exec.runs_by_evaluator",
      obs::Labels{{"evaluator", "jit_lanes"}}.render());
}

/// Members a batch of \p Members problems of one key runs in lanes on
/// \p Workers batch workers: full groups of four, and only when every
/// worker gets one.
uint64_t expectedLanes(size_t Members, unsigned Workers) {
  if (!codegen::hostRunsLanes())
    return 0;
  size_t Groups = Members / codegen::JitLanes;
  return Groups >= Workers ? Groups * codegen::JitLanes : 0;
}

/// Runs \p Problems as one JIT batch under \p Opts, where full groups of
/// same-shaped problems scan in lanes, and checks every member against
/// the VM and the AST walker (the same batch) and the scalar JIT (the
/// problem alone through runGpu), in every field. Returns the members
/// that ran in lanes.
uint64_t expectLanesAgree(const CompiledRecurrence &Fn,
                          const std::vector<std::vector<ArgValue>> &Problems,
                          RunOptions Opts, const std::string &Where) {
  gpu::Device Dev;
  DiagnosticEngine Diags;
  Opts.Evaluator = EvalKind::Jit;
  Opts.JitCacheDir = jitCacheDirForTest();
  uint64_t Before = lanesRuns();
  auto Lanes = Fn.runGpuBatch(Problems, Dev, Diags, Opts);
  uint64_t Ran = lanesRuns() - Before;
  RunOptions VmOpts = Opts, AstOpts = Opts;
  VmOpts.Evaluator = EvalKind::Vm;
  AstOpts.Evaluator = EvalKind::Ast;
  auto Vm = Fn.runGpuBatch(Problems, Dev, Diags, VmOpts);
  auto Ast = Fn.runGpuBatch(Problems, Dev, Diags, AstOpts);
  EXPECT_TRUE(Lanes && Vm && Ast) << Diags.str();
  if (!Lanes || !Vm || !Ast)
    return Ran;
  EXPECT_EQ(Lanes->Problems.size(), Problems.size());
  for (size_t I = 0; I != Problems.size(); ++I) {
    std::string At = Where + " member " + std::to_string(I);
    auto Scalar = Fn.runGpu(Problems[I], Dev, Diags, Opts);
    EXPECT_TRUE(Scalar.has_value()) << Diags.str();
    expectSameResult(Vm->Problems[I], Lanes->Problems[I], "lanes", At);
    expectSameResult(Ast->Problems[I], Lanes->Problems[I], "lanes", At);
    if (Scalar)
      expectSameResult(*Scalar, Lanes->Problems[I], "lanes", At);
  }
  EXPECT_EQ(Vm->TotalCycles, Lanes->TotalCycles) << Where;
  EXPECT_EQ(Vm->CompletionCycles, Lanes->CompletionCycles) << Where;
  EXPECT_EQ(Vm->OverlapCycles, Lanes->OverlapCycles) << Where;
  EXPECT_EQ(Vm->IdleCycles, Lanes->IdleCycles) << Where;
  return Ran;
}

/// Batches of 4, 5, 8, 9 and 64 same-length problems on 1 and 2 batch
/// workers; \p Problem(K) is the K-th problem.
void expectLanesAgreeOnEveryBatchSize(
    const CompiledRecurrence &Fn,
    const std::function<std::vector<ArgValue>(size_t)> &Problem) {
  for (size_t Size : {4, 5, 8, 9, 64})
    for (unsigned Workers : {1u, 2u}) {
      std::vector<std::vector<ArgValue>> Problems;
      for (size_t K = 0; K != Size; ++K)
        Problems.push_back(Problem(K));
      RunOptions Opts;
      Opts.BatchWorkers = Workers;
      std::string Where = " (batch of " + std::to_string(Size) + " on " +
                          std::to_string(Workers) + " workers)";
      EXPECT_EQ(expectLanesAgree(Fn, Problems, Opts, Where),
                expectedLanes(Size, Workers))
          << Where;
    }
}

/// \p Count sequences of \p Length letters of \p Letters, each its own.
std::deque<bio::Sequence> equalLengthSequences(const std::string &Letters,
                                               size_t Count, size_t Length,
                                               uint64_t Seed) {
  std::deque<bio::Sequence> Seqs;
  for (size_t K = 0; K != Count; ++K)
    Seqs.emplace_back("x" + std::to_string(K),
                      randomString(Letters, Length, Seed + K));
  return Seqs;
}

} // namespace

TEST(DifferentialTest, LanesWideProfileForward) {
  CompiledRecurrence Fn = compileOrDie(ProteinForwardSource);
  auto Wide = makeWideProfile();
  ASSERT_NE(Wide, nullptr);
  auto Reads = equalLengthSequences(bio::Alphabet::protein().letters(), 64,
                                    12, /*Seed=*/31);
  expectLanesAgreeOnEveryBatchSize(Fn, [&](size_t K) {
    return std::vector<ArgValue>{ArgValue::ofHmm(&Wide->Model), ArgValue(),
                                 ArgValue::ofSeq(&Reads[K]), ArgValue()};
  });
}

TEST(DifferentialTest, LanesGeneFinderViterbi) {
  CompiledRecurrence Fn = compileOrDie(DnaViterbiSource);
  bio::Hmm Genes = bio::makeGeneFinderModel();
  auto Reads = equalLengthSequences("acgt", 64, 30, /*Seed=*/41);
  expectLanesAgreeOnEveryBatchSize(Fn, [&](size_t K) {
    return std::vector<ArgValue>{ArgValue::ofHmm(&Genes), ArgValue(),
                                 ArgValue::ofSeq(&Reads[K]), ArgValue()};
  });
}

TEST(DifferentialTest, LanesSmithWatermanEqualLengthSubjects) {
  CompiledRecurrence Fn = compileOrDie(SmithWatermanSource);
  const bio::SubstitutionMatrix M =
      bio::SubstitutionMatrix::matchMismatch(bio::Alphabet::dna(), 2, 1);
  bio::Sequence Query("q", "acgtacgtggtacacgt");
  auto Subjects = equalLengthSequences("acgt", 64, 15, /*Seed=*/51);
  expectLanesAgreeOnEveryBatchSize(Fn, [&](size_t K) {
    return std::vector<ArgValue>{ArgValue::ofMatrix(&M),
                                 ArgValue::ofSeq(&Query), ArgValue(),
                                 ArgValue::ofSeq(&Subjects[K]), ArgValue()};
  });
}

TEST(DifferentialTest, LanesCasinoForward) {
  CompiledRecurrence Fn = compileOrDie(CasinoForwardSource, {"dice"});
  bio::Hmm Casino = bio::makeCasinoModel();
  auto Rolls = equalLengthSequences("abcdef", 64, 40, /*Seed=*/61);
  expectLanesAgreeOnEveryBatchSize(Fn, [&](size_t K) {
    return std::vector<ArgValue>{ArgValue::ofHmm(&Casino), ArgValue(),
                                 ArgValue::ofSeq(&Rolls[K]), ArgValue()};
  });
}

TEST(DifferentialTest, LanesDivideTableReads) {
  // Smith-Waterman with its diagonal term halved and a term divided by
  // the score, which is 2, 0 or -1 and differs from lane to lane: the
  // lanes scan divides table reads by a uniform and a varying divisor.
  CompiledRecurrence Fn = compileOrDie(
      "int sw(matrix[dna] m, seq[dna] a, index[a] i, seq[dna] b, "
      "index[b] j) =\n"
      "  if i == 0 then 0\n"
      "  else if j == 0 then 0\n"
      "  else 0 max (sw(i-1, j-1) + m[a[i-1], b[j-1]]) / 2\n"
      "       max sw(i-1, j-1) / m[a[i-1], b[j-1]]\n"
      "       max (sw(i-1, j) - 1) max (sw(i, j-1) - 1)\n");
  std::vector<int> Scores(16, -1);
  for (unsigned X = 0; X != 4; ++X) {
    Scores[X * 4 + X] = 2;
    Scores[X * 4 + (X + 1) % 4] = 0;
  }
  const bio::SubstitutionMatrix M("zero", bio::Alphabet::dna(), Scores);
  bio::Sequence Query("q", "acgtacgtggtacacgt");
  auto Subjects = equalLengthSequences("acgt", 4, 15, /*Seed=*/57);
  std::vector<std::vector<ArgValue>> Problems;
  for (const bio::Sequence &Subject : Subjects)
    Problems.push_back({ArgValue::ofMatrix(&M), ArgValue::ofSeq(&Query),
                        ArgValue(), ArgValue::ofSeq(&Subject), ArgValue()});
  DiagnosticEngine Diags;
  auto Box = Fn.domainFor(Problems[0], Diags);
  ASSERT_TRUE(Box.has_value()) << Diags.str();
  auto Plan = Fn.planFor(*Box, RunOptions(), nullptr, Diags);
  ASSERT_NE(Plan, nullptr) << Diags.str();
  std::string Kernel = codegen::renderKernelSource(*Plan);
  size_t LanesAt = Kernel.find("void parrec_scan_lanes(");
  ASSERT_NE(LanesAt, std::string::npos);
  EXPECT_NE(Kernel.find("pr_div_i64(", LanesAt), std::string::npos);
  RunOptions Opts;
  Opts.BatchWorkers = 1;
  EXPECT_EQ(expectLanesAgree(Fn, Problems, Opts, " (divisions)"),
            expectedLanes(4, 1));
}

TEST(DifferentialTest, LanesSplitByModel) {
  // Two models of one shape share a plan but not a lanes scan: the batch
  // alternates them, so each model's members group among themselves.
  CompiledRecurrence Fn = compileOrDie(DnaForwardSource);
  DiagnosticEngine Diags;
  std::deque<bio::Hmm> Models;
  for (uint64_t Seed : {11, 12}) {
    auto Profile = bio::eliminateSilentStates(
        bio::makeProfileHmm(/*MatchPositions=*/5, bio::Alphabet::dna(), Seed),
        Diags);
    ASSERT_TRUE(Profile.has_value()) << Diags.str();
    Models.push_back(std::move(*Profile));
  }
  ASSERT_EQ(Models[0].numStates(), Models[1].numStates());
  auto Reads = equalLengthSequences("acgt", 16, 20, /*Seed=*/71);
  std::vector<std::vector<ArgValue>> Problems;
  for (size_t K = 0; K != Reads.size(); ++K)
    Problems.push_back({ArgValue::ofHmm(&Models[K % 2]), ArgValue(),
                        ArgValue::ofSeq(&Reads[K]), ArgValue()});
  for (unsigned Workers : {1u, 2u}) {
    RunOptions Opts;
    Opts.BatchWorkers = Workers;
    std::string Where =
        " (two models on " + std::to_string(Workers) + " workers)";
    // Eight members a model: two groups each.
    EXPECT_EQ(expectLanesAgree(Fn, Problems, Opts, Where),
              expectedLanes(16, 1))
        << Where;
  }
}

TEST(DifferentialTest, LanesUnderTraceAndPipeline) {
  // The planner re-times the batch from each member's timeline, so a
  // lanes scan's shared timeline must be each member's own.
  CompiledRecurrence Fn = compileOrDie(ProteinForwardSource);
  auto Wide = makeWideProfile();
  ASSERT_NE(Wide, nullptr);
  auto Reads = equalLengthSequences(bio::Alphabet::protein().letters(), 9,
                                    10, /*Seed=*/81);
  std::vector<std::vector<ArgValue>> Problems;
  for (const bio::Sequence &Read : Reads)
    Problems.push_back({ArgValue::ofHmm(&Wide->Model), ArgValue(),
                        ArgValue::ofSeq(&Read), ArgValue()});
  for (bool Pipeline : {false, true}) {
    RunOptions Opts;
    Opts.BatchWorkers = 2;
    Opts.Trace = true;
    Opts.Pipeline = Pipeline;
    std::string Where = Pipeline ? " (trace, pipeline)" : " (trace)";
    EXPECT_EQ(expectLanesAgree(Fn, Problems, Opts, Where),
              expectedLanes(9, 2))
        << Where;
  }
}

TEST(DifferentialTest, LanesStayScalarWhereTheyCannotRun) {
  // Three scan workers, a kept table, or fewer groups than batch workers
  // each keep the scalar kernel, with the same results.
  CompiledRecurrence Fn = compileOrDie(ProteinForwardSource);
  auto Wide = makeWideProfile();
  ASSERT_NE(Wide, nullptr);
  auto Reads = equalLengthSequences(bio::Alphabet::protein().letters(), 8,
                                    12, /*Seed=*/91);
  std::vector<std::vector<ArgValue>> Problems;
  for (const bio::Sequence &Read : Reads)
    Problems.push_back({ArgValue::ofHmm(&Wide->Model), ArgValue(),
                        ArgValue::ofSeq(&Read), ArgValue()});
  RunOptions ScanWorkers;
  ScanWorkers.BatchWorkers = 1;
  ScanWorkers.ScanWorkers = 3;
  ScanWorkers.ScanGrainCells = 1;
  EXPECT_EQ(expectLanesAgree(Fn, Problems, ScanWorkers, " (3 scan workers)"),
            0u);
  RunOptions KeepTable;
  KeepTable.BatchWorkers = 1;
  KeepTable.KeepTable = true;
  EXPECT_EQ(expectLanesAgree(Fn, Problems, KeepTable, " (kept table)"), 0u);
  RunOptions Crowded;
  Crowded.BatchWorkers = 3;
  EXPECT_EQ(expectLanesAgree(Fn, Problems, Crowded, " (3 batch workers)"),
            0u);
}

TEST(DifferentialTest, LanesEntryOnlyWhereNoLaneDecidesControlFlow) {
  // Forward, Viterbi and Smith-Waterman branch on coordinates and model
  // flags only; edit distance compares two characters, and the last
  // body compares a table read, so every lane could take its own path.
  const char *TableBranch =
      "int c(seq[dna] a, index[a] i, seq[dna] b, index[b] j) =\n"
      "  if i == 0 then 0\n"
      "  else if j == 0 then 0\n"
      "  else if c(i-1, j-1) == 3 then c(i-1, j)\n"
      "  else c(i, j-1) + 1\n";
  bio::Hmm Genes = bio::makeGeneFinderModel();
  const bio::SubstitutionMatrix M =
      bio::SubstitutionMatrix::matchMismatch(bio::Alphabet::dna(), 2, 1);
  bio::Sequence A("a", "acgtacgt"), B("b", "gtacgtac");
  std::vector<ArgValue> HmmArgs = {ArgValue::ofHmm(&Genes), ArgValue(),
                                   ArgValue::ofSeq(&A), ArgValue()};
  std::vector<ArgValue> PairArgs = {ArgValue::ofSeq(&A), ArgValue(),
                                    ArgValue::ofSeq(&B), ArgValue()};
  std::vector<ArgValue> SwArgs = {ArgValue::ofMatrix(&M), ArgValue::ofSeq(&A),
                                  ArgValue(), ArgValue::ofSeq(&B),
                                  ArgValue()};
  auto HasLanes = [](const char *Source, const std::vector<ArgValue> &Args) {
    CompiledRecurrence Fn = compileOrDie(Source);
    DiagnosticEngine Diags;
    auto Box = Fn.domainFor(Args, Diags);
    EXPECT_TRUE(Box.has_value()) << Diags.str();
    auto Plan = Fn.planFor(*Box, RunOptions(), nullptr, Diags);
    EXPECT_NE(Plan, nullptr) << Diags.str();
    std::string Kernel = codegen::renderKernelSource(*Plan);
    EXPECT_NE(Kernel.find("void parrec_scan("), std::string::npos) << Source;
    return Kernel.find("parrec_scan_lanes") != std::string::npos;
  };
  EXPECT_TRUE(HasLanes(DnaForwardSource, HmmArgs));
  EXPECT_TRUE(HasLanes(DnaViterbiSource, HmmArgs));
  {
    // The forward entry folds its sums with the lane forms and takes
    // their results, log included, from pr_lse_result_lanes. From the
    // steps they share with the scalar forms to the end of that, the
    // text calls no libm function.
    CompiledRecurrence Fn = compileOrDie(DnaForwardSource);
    DiagnosticEngine Diags;
    auto Box = Fn.domainFor(HmmArgs, Diags);
    ASSERT_TRUE(Box.has_value()) << Diags.str();
    auto Plan = Fn.planFor(*Box, RunOptions(), nullptr, Diags);
    ASSERT_NE(Plan, nullptr) << Diags.str();
    std::string Kernel = codegen::renderKernelSource(*Plan);
    size_t Steps = Kernel.find("#define PR_LSE_EXP_REDUCE");
    size_t Result = Kernel.find("pr_lse_result_lanes(pr_v4d *out");
    ASSERT_NE(Steps, std::string::npos);
    ASSERT_NE(Result, std::string::npos);
    ASSERT_LT(Steps, Result);
    std::string Sum =
        Kernel.substr(Steps, Kernel.find("\n}\n", Result) - Steps);
    EXPECT_NE(Sum.find("pr_lse_log_lanes(&l, s);"), std::string::npos);
    EXPECT_EQ(libmCalls(Sum), std::vector<std::string>()) << Sum;
    size_t Entry = Kernel.find("void parrec_scan_lanes(");
    std::string Lanes =
        Kernel.substr(Entry, Kernel.find("\n}\n", Entry) - Entry);
    EXPECT_NE(Lanes.find("pr_lse_add_lanes(&lm, &ls, &q["), std::string::npos)
        << Lanes;
    EXPECT_NE(Lanes.find("].d = pr_lse_result_lanes_out(lm, ls);"),
              std::string::npos)
        << Lanes;
    EXPECT_EQ(Lanes.find("pr_lse_add(&"), std::string::npos) << Lanes;
    EXPECT_EQ(Lanes.find("pr_lse_result("), std::string::npos) << Lanes;
    EXPECT_NE(Kernel.find("  pr_lse_result_lanes(&out, &m, &s);"),
              std::string::npos);
  }
  EXPECT_TRUE(HasLanes(SmithWatermanSource, SwArgs));
  EXPECT_FALSE(HasLanes(EditDistanceSource, PairArgs));
  EXPECT_FALSE(HasLanes(TableBranch, PairArgs));
}

//===----------------------------------------------------------------------===//
// Int comparisons beyond 2^53, NaN roots and NaN constants
//===----------------------------------------------------------------------===//

namespace {

/// What \p Script prints under \p Kind, on the simulated GPU or, with
/// \p Gpu false, on the modelled CPU.
std::string printedBy(const std::string &Script, EvalKind Kind,
                      bool Gpu = true) {
  DiagnosticEngine Diags;
  Interpreter::Options Opts;
  Opts.UseGpu = Gpu;
  Opts.Run.Evaluator = Kind;
  Opts.Run.JitCacheDir = jitCacheDirForTest();
  Interpreter Interp(Diags, std::move(Opts));
  std::optional<std::string> Out = Interp.run(Script);
  EXPECT_TRUE(Out.has_value()) << Diags.str();
  return Out.value_or("");
}

/// Expects \p Script to print \p Want under the AST walker, the VM and
/// the JIT, and on the modelled CPU, with no JIT run falling back.
void expectPrintsEverywhere(const std::string &Script,
                            const std::string &Want) {
  uint64_t FallbacksBefore =
      obs::MetricsRegistry::global().snapshot().counter("jit.fallbacks");
  for (EvalKind Kind : {EvalKind::Ast, EvalKind::Vm, EvalKind::Jit})
    EXPECT_EQ(printedBy(Script, Kind), Want)
        << "evaluator " << static_cast<int>(Kind) << ":\n" << Script;
  EXPECT_EQ(printedBy(Script, EvalKind::Vm, /*Gpu=*/false), Want)
      << "cpu:\n" << Script;
  EXPECT_EQ(
      obs::MetricsRegistry::global().snapshot().counter("jit.fallbacks"),
      FallbacksBefore)
      << "the JIT fell back to the VM on\n" << Script;
}

} // namespace

TEST(DifferentialTest, IntsBeyondTwoToThe53CompareExactly) {
  // Each pair rounds to one double, so compared as doubles the two are
  // equal. Computed at run time (n - n + ...) and folded.
  expectPrintsEverywhere("bool g(int n) = (n - n + 9007199254740993) == "
                         "(n - n + 9007199254740992)\n"
                         "print g(0)\n",
                         "g(0) = 0\n");
  expectPrintsEverywhere(
      "bool g(int n) = 9223372036854775807 == 9223372036854775806\n"
      "print g(0)\n",
      "g(0) = 0\n");
  expectPrintsEverywhere("bool g(int n) = (n - n + 9007199254740992) < "
                         "(n - n + 9007199254740993)\n"
                         "print g(0)\n",
                         "g(0) = 1\n");
  expectPrintsEverywhere("bool g(int n) = (n - n + 9223372036854775807) <= "
                         "(n - n + 9223372036854775806)\n"
                         "print g(0)\n",
                         "g(0) = 0\n");
}

TEST(DifferentialTest, NaNRootsAndConstantsPrintAsTheWindowedFormDoes) {
  // A full table's root that is a computed NaN is no unwritten cell,
  // and a NaN the folder computes is a constant the JIT can spell.
  expectPrintsEverywhere("float f(int n) = 0.0 / 0.0\nprint f(3)\n",
                         "f(3) = -nan\n");
  expectPrintsEverywhere(
      "float f(int n) = if n == 0 then 0.0 / 0.0 else f(n-1) + 1.0\n"
      "print f(3)\n",
      "f(3) = -nan\n");
}

//===----------------------------------------------------------------------===//
// Sequence reads out of range
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, SequenceReadPastTheEndStopsEveryEvaluator) {
  // s[i+40] reads past the end of "kitten": the AST walker and the VM
  // stop on their assertions, both JIT scans on their bounds check, and
  // no value is printed. The children are forked, so they share this
  // process's JIT cache directory, which it removes at exit.
  const std::string &CacheDir = jitCacheDirForTest();
  std::string Script =
      "int f(seq[en] s, index[s] i) =\n"
      "  if i == 0 then 0 else f(i-1) + (if s[i+40] == 'a' then 1 else 2)\n"
      "seq[en] a = load \"data/words.fa\" [0]\n"
      "print f(a)\n";
  for (EvalKind Kind : {EvalKind::Ast, EvalKind::Vm, EvalKind::Jit}) {
    auto Run = [&] {
      DiagnosticEngine Diags;
      Interpreter::Options Opts;
      Opts.BasePath = PARREC_SCRIPTS_DIR;
      Opts.Run.Evaluator = Kind;
      Opts.Run.JitCacheDir = CacheDir;
      Interpreter Interp(Diags, std::move(Opts));
      std::fputs(Interp.run(Script).value_or("").c_str(), stdout);
    };
    EXPECT_DEATH(Run(), "") << "evaluator " << static_cast<int>(Kind);
  }

  // A lanes group shares a plan, and so the lengths of the sequences an
  // index spans, but not those of t, which no index spans: the third
  // member's t is shorter than the reads of f, the others' are not.
  CompiledRecurrence Fn = compileOrDie(
      "int f(matrix[dna] m, seq[dna] s, index[s] i, seq[dna] t) =\n"
      "  if i == 0 then 0 else f(i-1) + m[t[i], s[i-1]]\n");
  const bio::SubstitutionMatrix M =
      bio::SubstitutionMatrix::matchMismatch(bio::Alphabet::dna(), 2, 1);
  bio::Sequence S("s", randomString("acgt", 20, 3));
  std::deque<bio::Sequence> Ts = equalLengthSequences("acgt", 4, 30, 5);
  Ts[2] = bio::Sequence("short", randomString("acgt", 12, 7));
  std::vector<std::vector<ArgValue>> Problems;
  for (const bio::Sequence &T : Ts)
    Problems.push_back({ArgValue::ofMatrix(&M), ArgValue::ofSeq(&S),
                        ArgValue(), ArgValue::ofSeq(&T)});
  for (EvalKind Kind : {EvalKind::Ast, EvalKind::Vm, EvalKind::Jit}) {
    auto Run = [&] {
      gpu::Device Dev;
      DiagnosticEngine Diags;
      RunOptions Opts;
      Opts.BatchWorkers = 1;
      Opts.Evaluator = Kind;
      Opts.JitCacheDir = CacheDir;
      auto Batch = Fn.runGpuBatch(Problems, Dev, Diags, Opts);
      for (size_t I = 0; Batch && I != Batch->Problems.size(); ++I)
        std::printf("%g\n", Batch->Problems[I].RootValue);
    };
    EXPECT_DEATH(Run(), "") << "batch, evaluator " << static_cast<int>(Kind);
  }
}
