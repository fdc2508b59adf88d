//===- bench_ablation_evaluator.cpp - Bytecode VM vs AST walker -------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation: the three cell evaluators — AST tree-walker, register
/// bytecode VM and native JIT kernel — on the per-cell hot path, across
/// the three case-study recursions (Smith-Waterman, gene-finder Viterbi,
/// profile-HMM forward). Reports host wall-clock and cells/second for
/// all three and writes the results, with the host they ran on, to
/// BENCH_evaluator.json.
///
/// Unlike the figure benches this measures *host* time, not modelled GPU
/// time — the two evaluators produce identical cost-model cycles by
/// construction (see tests/DifferentialTest.cpp); what differs is how
/// fast the simulator itself runs.
///
/// Usage: bench_ablation_evaluator [--smoke] [--out=PATH]
///   --smoke     small problem sizes + fewer repetitions (CI gate)
///   --out=PATH  JSON output path (default BENCH_evaluator.json)
///
/// Exits non-zero if any evaluator disagrees on results or costs, if
/// the VM is slower than the AST walker, or if the JIT is slower than
/// the VM, on any case study.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "bio/Fasta.h"
#include "bio/HmmZoo.h"
#include "runtime/CompiledRecurrence.h"
#include "support/Random.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace parrec;
using runtime::CompiledRecurrence;
using runtime::RunOptions;
using runtime::RunResult;
using codegen::ArgValue;

namespace {

const char *SmithWatermanSource =
    "int sw(matrix[protein] m, seq[protein] a, index[a] i,\n"
    "       seq[protein] b, index[b] j) =\n"
    "  if i == 0 then 0\n"
    "  else if j == 0 then 0\n"
    "  else 0 max (sw(i-1, j-1) + m[a[i-1], b[j-1]])\n"
    "       max (sw(i-1, j) - 4) max (sw(i, j-1) - 4)\n";

const char *ViterbiSource =
    "prob viterbi(hmm h, state[h] s, seq[dna] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    max(t in s.transitionsto : t.prob * viterbi(t.start, i - 1))\n";

const char *ForwardSource =
    "prob forward(hmm h, state[h] s, seq[protein] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))\n";

struct Timing {
  double Seconds = 0.0;
  double CellsPerSec = 0.0;
};

struct CaseResult {
  std::string Name;
  uint64_t Cells = 0;
  Timing Ast, Vm, Jit;
  double Speedup = 0.0;    // AST / VM
  double JitSpeedup = 0.0; // VM / JIT
  bool ResultsMatch = false;
};

/// Runs \p Fn on \p Args \p Reps times with \p Options and returns the
/// best (minimum) wall-clock, the standard way to suppress scheduler
/// noise when the quantity of interest is the code's own speed.
Timing timeEvaluator(const CompiledRecurrence &Fn,
                     const std::vector<ArgValue> &Args,
                     const RunOptions &Options, unsigned Reps,
                     const gpu::CostModel &Model, RunResult &Out) {
  DiagnosticEngine Diags;
  double Best = 1e300;
  for (unsigned I = 0; I != Reps; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    std::optional<RunResult> R = Fn.runCpu(Args, Model, Diags, Options);
    auto T1 = std::chrono::steady_clock::now();
    if (!R) {
      std::fprintf(stderr, "bench run failure:\n%s", Diags.str().c_str());
      std::exit(2);
    }
    Out = *R;
    double S = std::chrono::duration<double>(T1 - T0).count();
    if (S < Best)
      Best = S;
  }
  Timing T;
  T.Seconds = Best;
  T.CellsPerSec = Best > 0.0 ? static_cast<double>(Out.Cells) / Best : 0.0;
  return T;
}

CaseResult runCase(const std::string &Name, const CompiledRecurrence &Fn,
                   const std::vector<ArgValue> &Args, unsigned Reps) {
  if (!Fn.bytecode()) {
    std::fprintf(stderr, "%s: recursion did not compile to bytecode\n",
                 Name.c_str());
    std::exit(2);
  }
  gpu::CostModel Model;
  RunOptions VmOpts;
  RunOptions AstOpts;
  AstOpts.Evaluator = exec::EvalKind::Ast;
  RunOptions JitOpts;
  JitOpts.Evaluator = exec::EvalKind::Jit;
  JitOpts.JitCacheDir = "/tmp/parrec-jit-bench";

  // Warm the plan caches so no timed run pays schedule synthesis (or,
  // for the JIT, the one-off native compile).
  {
    DiagnosticEngine Diags;
    (void)Fn.runCpu(Args, Model, Diags, VmOpts);
    (void)Fn.runCpu(Args, Model, Diags, JitOpts);
  }

  CaseResult C;
  C.Name = Name;
  RunResult VmRes, AstRes, JitRes;
  C.Vm = timeEvaluator(Fn, Args, VmOpts, Reps, Model, VmRes);
  C.Ast = timeEvaluator(Fn, Args, AstOpts, Reps, Model, AstRes);
  C.Jit = timeEvaluator(Fn, Args, JitOpts, Reps, Model, JitRes);
  C.Cells = VmRes.Cells;
  C.Speedup = C.Vm.Seconds > 0.0 ? C.Ast.Seconds / C.Vm.Seconds : 0.0;
  C.JitSpeedup = C.Jit.Seconds > 0.0 ? C.Vm.Seconds / C.Jit.Seconds : 0.0;
  C.ResultsMatch = VmRes.RootValue == AstRes.RootValue &&
                   VmRes.TableMax == AstRes.TableMax &&
                   VmRes.Cost == AstRes.Cost &&
                   VmRes.Cycles == AstRes.Cycles &&
                   VmRes.RootValue == JitRes.RootValue &&
                   VmRes.TableMax == JitRes.TableMax &&
                   VmRes.Cost == JitRes.Cost &&
                   VmRes.Cycles == JitRes.Cycles;
  return C;
}

CompiledRecurrence compileOrDie(const char *Source) {
  DiagnosticEngine Diags;
  auto Compiled = CompiledRecurrence::compile(Source, Diags);
  if (!Compiled) {
    std::fprintf(stderr, "bench compile failure:\n%s",
                 Diags.str().c_str());
    std::exit(2);
  }
  return std::move(*Compiled);
}

std::string padSample(const bio::Hmm &Model, uint64_t Seed,
                      size_t Length) {
  SplitMix64 Rng(Seed);
  std::string S = Model.sample(Rng.next(), Length);
  while (S.size() < Length)
    S += Model.alphabet().charAt(
        static_cast<unsigned>(Rng.nextBelow(Model.alphabet().size())));
  S.resize(Length);
  return S;
}

void writeJson(const std::string &Path,
               const std::vector<CaseResult> &Cases, bool Smoke) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    std::exit(2);
  }
  std::fprintf(F, "{\n  \"benchmark\": \"evaluator_ablation\",\n");
  std::fprintf(F, "  \"mode\": \"%s\",\n", Smoke ? "smoke" : "full");
  std::fprintf(F, "  \"host\": %s,\n", parrecbench::hostJson().c_str());
  std::fprintf(F, "  \"cases\": [\n");
  for (size_t I = 0; I != Cases.size(); ++I) {
    const CaseResult &C = Cases[I];
    std::fprintf(F,
                 "    {\n"
                 "      \"name\": \"%s\",\n"
                 "      \"cells\": %llu,\n"
                 "      \"ast\": {\"seconds\": %.9f, \"cells_per_sec\": "
                 "%.1f},\n"
                 "      \"vm\": {\"seconds\": %.9f, \"cells_per_sec\": "
                 "%.1f},\n"
                 "      \"jit\": {\"seconds\": %.9f, \"cells_per_sec\": "
                 "%.1f},\n"
                 "      \"speedup\": %.3f,\n"
                 "      \"jit_speedup\": %.3f,\n"
                 "      \"results_match\": %s\n"
                 "    }%s\n",
                 C.Name.c_str(), static_cast<unsigned long long>(C.Cells),
                 C.Ast.Seconds, C.Ast.CellsPerSec, C.Vm.Seconds,
                 C.Vm.CellsPerSec, C.Jit.Seconds, C.Jit.CellsPerSec,
                 C.Speedup, C.JitSpeedup,
                 C.ResultsMatch ? "true" : "false",
                 I + 1 == Cases.size() ? "" : ",");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  std::string OutPath = "BENCH_evaluator.json";
  for (int I = 1; I != Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strncmp(Argv[I], "--out=", 6) == 0)
      OutPath = Argv[I] + 6;
    else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--out=PATH]\n", Argv[0]);
      return 2;
    }
  }

  const unsigned Reps = Smoke ? 3 : 5;
  const int64_t SwLen = Smoke ? 150 : 700;
  const size_t ViterbiLen = Smoke ? 400 : 4000;
  const size_t ForwardLen = Smoke ? 120 : 500;
  const unsigned ProfilePositions = Smoke ? 10 : 30;

  std::vector<CaseResult> Cases;

  // Case study 1 (Section 6.1): Smith-Waterman, protein x protein.
  {
    CompiledRecurrence Fn = compileOrDie(SmithWatermanSource);
    const bio::SubstitutionMatrix &M = bio::SubstitutionMatrix::blosum62();
    bio::Sequence A = bio::randomSequence(bio::Alphabet::protein(), SwLen,
                                          /*Seed=*/31, "a");
    bio::Sequence B = bio::randomSequence(bio::Alphabet::protein(), SwLen,
                                          /*Seed=*/32, "b");
    Cases.push_back(runCase(
        "smith_waterman", Fn,
        {ArgValue::ofMatrix(&M), ArgValue::ofSeq(&A), ArgValue(),
         ArgValue::ofSeq(&B), ArgValue()},
        Reps));
  }

  // Case study 2 (Section 6.2): Viterbi over the gene-finder model.
  {
    CompiledRecurrence Fn = compileOrDie(ViterbiSource);
    bio::Hmm Genes = bio::makeGeneFinderModel();
    bio::Sequence X("x", padSample(Genes, /*Seed=*/0x6E43, ViterbiLen));
    Cases.push_back(runCase("viterbi_genefinder", Fn,
                            {ArgValue::ofHmm(&Genes), ArgValue(),
                             ArgValue::ofSeq(&X), ArgValue()},
                            Reps));
  }

  // Case study 3 (Section 6.3): forward over a profile HMM.
  {
    CompiledRecurrence Fn = compileOrDie(ForwardSource);
    DiagnosticEngine Diags;
    bio::Hmm Raw = bio::makeProfileHmm(ProfilePositions,
                                       bio::Alphabet::protein(),
                                       /*Seed=*/9);
    auto Profile = bio::eliminateSilentStates(Raw, Diags);
    if (!Profile) {
      std::fprintf(stderr, "profile build failure:\n%s",
                   Diags.str().c_str());
      return 2;
    }
    bio::Sequence X = bio::randomSequence(bio::Alphabet::protein(),
                                          static_cast<int64_t>(ForwardLen),
                                          /*Seed=*/41, "x");
    Cases.push_back(runCase("forward_profile", Fn,
                            {ArgValue::ofHmm(&*Profile), ArgValue(),
                             ArgValue::ofSeq(&X), ArgValue()},
                            Reps));
  }

  std::printf(
      "== Evaluator ablation: AST walker vs bytecode VM vs JIT (%s) ==\n",
      Smoke ? "smoke" : "full");
  std::printf("%20s %12s %14s %14s %14s %9s %9s %6s\n", "case", "cells",
              "ast cells/s", "vm cells/s", "jit cells/s", "vm/ast",
              "jit/vm", "match");
  bool Ok = true;
  for (const CaseResult &C : Cases) {
    std::printf("%20s %12llu %14.0f %14.0f %14.0f %8.2fx %8.2fx %6s\n",
                C.Name.c_str(),
                static_cast<unsigned long long>(C.Cells),
                C.Ast.CellsPerSec, C.Vm.CellsPerSec, C.Jit.CellsPerSec,
                C.Speedup, C.JitSpeedup, C.ResultsMatch ? "yes" : "NO");
    Ok &= C.ResultsMatch;
    if (C.Speedup < 1.0) {
      std::fprintf(stderr, "FAIL: VM slower than AST on %s (%.2fx)\n",
                   C.Name.c_str(), C.Speedup);
      Ok = false;
    }
    // The gate the JIT must hold: at least VM speed on every case
    // study. Profile forward gains least: its time is one `exp` per
    // element of each cell's log-space sum, the same CellMath.h
    // arithmetic in both; only the interpretation around it goes away.
    if (C.JitSpeedup < 1.0) {
      std::fprintf(stderr, "FAIL: JIT slower than VM on %s (%.2fx)\n",
                   C.Name.c_str(), C.JitSpeedup);
      Ok = false;
    }
  }
  writeJson(OutPath, Cases, Smoke);
  std::printf("wrote %s\n", OutPath.c_str());
  return Ok ? 0 : 1;
}
