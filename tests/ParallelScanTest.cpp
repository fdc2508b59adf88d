//===- ParallelScanTest.cpp - Wavefront-parallel scan determinism ------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wavefront-parallel host scan must be invisible in every
/// observable: results, cost counters, modelled cycles, GPU metrics and
/// per-partition timelines are required to be bit-identical between
/// ScanWorkers=1 and any other worker count, for both backends, with
/// and without the sliding window, under the bytecode VM and the AST
/// tree-walker, and when nested inside a parallel batch. Also covers
/// the forkJoin / SpinBarrier primitives directly; the whole file runs
/// under the TSan CI job.
///
//===----------------------------------------------------------------------===//

#include "bio/Fasta.h"
#include "bio/HmmZoo.h"
#include "exec/ParallelFor.h"
#include "obs/Metrics.h"
#include "runtime/CompiledRecurrence.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

using namespace parrec;
using namespace parrec::runtime;
using codegen::ArgValue;

namespace {

const char *SmithWatermanSource =
    "int sw(matrix[dna] m, seq[dna] a, index[a] i, seq[dna] b, index[b] j) =\n"
    "  if i == 0 then 0\n"
    "  else if j == 0 then 0\n"
    "  else 0 max (sw(i-1, j-1) + m[a[i-1], b[j-1]])\n"
    "       max (sw(i-1, j) - 2) max (sw(i, j-1) - 2)\n";

const char *CasinoForwardSource =
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

/// Asserts every observable of two runs is bit-identical — EXPECT_EQ on
/// the doubles deliberately, not EXPECT_DOUBLE_EQ.
void expectBitIdentical(const RunResult &A, const RunResult &B) {
  EXPECT_EQ(A.RootValue, B.RootValue);
  EXPECT_EQ(A.TableMax, B.TableMax);
  EXPECT_EQ(A.Cells, B.Cells);
  EXPECT_EQ(A.Partitions, B.Partitions);
  EXPECT_TRUE(A.Cost == B.Cost);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_TRUE(A.Metrics == B.Metrics);
  EXPECT_TRUE(A.UsedSchedule == B.UsedSchedule);
  ASSERT_EQ(A.Timeline != nullptr, B.Timeline != nullptr);
  if (A.Timeline) {
    EXPECT_TRUE(*A.Timeline == *B.Timeline);
  }
}

/// Runs one Smith-Waterman problem with the given options.
RunResult runSw(const CompiledRecurrence &Fn, const RunOptions &Options,
                bool OnCpu, int64_t LenA = 96, int64_t LenB = 133) {
  static const bio::SubstitutionMatrix Matrix =
      bio::SubstitutionMatrix::matchMismatch(bio::Alphabet::dna(), 2, -1);
  bio::SequenceDatabase Db = bio::randomDatabase(
      bio::Alphabet::dna(), 2, std::min(LenA, LenB),
      std::max(LenA, LenB), /*Seed=*/0x5EED);
  std::vector<ArgValue> Args = {ArgValue::ofMatrix(&Matrix),
                                ArgValue::ofSeq(&Db[0]), ArgValue(),
                                ArgValue::ofSeq(&Db[1]), ArgValue()};
  DiagnosticEngine Diags;
  std::optional<RunResult> R;
  if (OnCpu) {
    R = Fn.runCpu(Args, gpu::CostModel(), Diags, Options);
  } else {
    gpu::Device Dev;
    R = Fn.runGpu(Args, Dev, Diags, Options);
  }
  EXPECT_TRUE(R.has_value()) << Diags.str();
  return *R;
}

/// Options that force the parallel machinery on: every partition above
/// one cell forks, and the timeline is recorded for comparison.
RunOptions scanOptions(unsigned Workers) {
  RunOptions Options;
  Options.ScanWorkers = Workers;
  Options.ScanGrainCells = 1;
  Options.Trace = true;
  return Options;
}

} // namespace

//===----------------------------------------------------------------------===//
// forkJoin / SpinBarrier primitives
//===----------------------------------------------------------------------===//

TEST(ForkJoinTest, RunsEveryWorker) {
  std::vector<std::atomic<int>> Hits(4);
  for (auto &H : Hits)
    H = 0;
  exec::forkJoin(4, [&](unsigned W) { Hits[W].fetch_add(1); });
  for (unsigned W = 0; W != 4; ++W)
    EXPECT_EQ(Hits[W].load(), 1) << "worker " << W;
}

TEST(ForkJoinTest, SingleWorkerRunsInline) {
  unsigned Calls = 0;
  exec::forkJoin(1, [&](unsigned W) {
    EXPECT_EQ(W, 0u);
    ++Calls;
  });
  EXPECT_EQ(Calls, 1u);
}

TEST(ForkJoinTest, PropagatesTaskExceptions) {
  EXPECT_THROW(exec::forkJoin(3,
                              [](unsigned W) {
                                if (W == 2)
                                  throw std::runtime_error("boom");
                              }),
               std::runtime_error);
  // A failed task leaves nothing behind for the next fork-join.
  std::atomic<int> Count{0};
  exec::forkJoin(3, [&](unsigned) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 3);
}

TEST(SpinBarrierTest, OrdersWritesAcrossPhases) {
  constexpr unsigned Workers = 3;
  constexpr int Rounds = 200;
  exec::SpinBarrier Barrier(Workers);
  // Plain (non-atomic) slots: the barrier itself must provide the
  // ordering that makes every phase-R write visible to every reader.
  std::vector<int64_t> Slot(Workers, -1);
  std::atomic<bool> Stale{false};
  exec::forkJoin(Workers, [&](unsigned W) {
    for (int R = 0; R != Rounds; ++R) {
      Slot[W] = R;
      Barrier.arriveAndWait();
      for (unsigned Other = 0; Other != Workers; ++Other)
        if (Slot[Other] != R)
          Stale.store(true);
      Barrier.arriveAndWait();
    }
  });
  EXPECT_FALSE(Stale.load());
}

//===----------------------------------------------------------------------===//
// Bit-identical scans across worker counts
//===----------------------------------------------------------------------===//

TEST(ParallelScanTest, GpuSmithWatermanIdenticalAcrossWorkerCounts) {
  CompiledRecurrence Fn = compileOrDie(SmithWatermanSource);
  RunResult Serial = runSw(Fn, scanOptions(1), /*OnCpu=*/false);
  EXPECT_GT(Serial.Cells, 0u);
  for (unsigned Workers : {2u, 3u, 8u}) {
    RunResult Parallel = runSw(Fn, scanOptions(Workers), /*OnCpu=*/false);
    expectBitIdentical(Serial, Parallel);
  }
}

TEST(ParallelScanTest, FullTableIdenticalAcrossWorkerCounts) {
  CompiledRecurrence Fn = compileOrDie(SmithWatermanSource);
  RunOptions Base = scanOptions(1);
  Base.UseSlidingWindow = false;
  RunResult Serial = runSw(Fn, Base, /*OnCpu=*/false);
  for (unsigned Workers : {2u, 3u, 8u}) {
    RunOptions Opt = scanOptions(Workers);
    Opt.UseSlidingWindow = false;
    expectBitIdentical(Serial, runSw(Fn, Opt, /*OnCpu=*/false));
  }
}

TEST(ParallelScanTest, AstEvaluatorIdenticalAcrossWorkerCounts) {
  CompiledRecurrence Fn = compileOrDie(SmithWatermanSource);
  RunOptions Base = scanOptions(1);
  Base.Evaluator = EvalKind::Ast;
  RunResult Serial = runSw(Fn, Base, /*OnCpu=*/false);
  for (unsigned Workers : {2u, 8u}) {
    RunOptions Opt = scanOptions(Workers);
    Opt.Evaluator = EvalKind::Ast;
    expectBitIdentical(Serial, runSw(Fn, Opt, /*OnCpu=*/false));
  }
}

TEST(ParallelScanTest, CpuBackendIdenticalAcrossWorkerCounts) {
  // The CPU reference has one simulated thread, so any requested worker
  // count clamps to a serial scan — results must still be identical.
  CompiledRecurrence Fn = compileOrDie(SmithWatermanSource);
  RunResult Serial = runSw(Fn, scanOptions(1), /*OnCpu=*/true);
  for (unsigned Workers : {2u, 8u})
    expectBitIdentical(Serial, runSw(Fn, scanOptions(Workers),
                                     /*OnCpu=*/true));
}

TEST(ParallelScanTest, LogSpaceForwardIdenticalAcrossWorkerCounts) {
  // The forward algorithm exercises reductions, log-space arithmetic
  // and HMM model reads — a different cost/value profile than SW.
  CompiledRecurrence Fn = compileOrDie(CasinoForwardSource, {"dice"});
  bio::Hmm Casino = bio::makeCasinoModel();
  std::string Rolls;
  for (int I = 0; I != 160; ++I)
    Rolls.push_back(static_cast<char>('1' + (I * 5 + I / 7) % 6));
  bio::Sequence X("x", Rolls);
  std::vector<ArgValue> Args = {ArgValue::ofHmm(&Casino), ArgValue(),
                                ArgValue::ofSeq(&X), ArgValue()};
  gpu::Device Dev;
  DiagnosticEngine Diags;

  auto Serial = Fn.runGpu(Args, Dev, Diags, scanOptions(1));
  ASSERT_TRUE(Serial.has_value()) << Diags.str();
  EXPECT_GT(Serial->Cells, 100u) << "sampled roll sequence too short";
  for (unsigned Workers : {2u, 3u, 8u}) {
    auto Parallel = Fn.runGpu(Args, Dev, Diags, scanOptions(Workers));
    ASSERT_TRUE(Parallel.has_value()) << Diags.str();
    expectBitIdentical(*Serial, *Parallel);
  }
}

TEST(ParallelScanTest, ThreadCountVariantsStayIdentical) {
  // Worker counts that do not divide the simulated block width, and a
  // block narrower than the worker count.
  CompiledRecurrence Fn = compileOrDie(SmithWatermanSource);
  for (unsigned Threads : {5u, 32u}) {
    RunOptions Base = scanOptions(1);
    Base.Threads = Threads;
    RunResult Serial = runSw(Fn, Base, /*OnCpu=*/false);
    for (unsigned Workers : {3u, 7u, 64u}) {
      RunOptions Opt = scanOptions(Workers);
      Opt.Threads = Threads;
      expectBitIdentical(Serial, runSw(Fn, Opt, /*OnCpu=*/false));
    }
  }
}

TEST(ParallelScanTest, SmallDomainsFallBackToSerial) {
  // A domain below 4x the grain never forks: the fork-join counter must
  // not move, and the result still matches the serial run.
  CompiledRecurrence Fn = compileOrDie(SmithWatermanSource);
  RunOptions Serial, Parallel;
  Serial.ScanWorkers = 1;
  Parallel.ScanWorkers = 8; // Default grain: 16x16 is far below 4x256.
  uint64_t ForksBefore = obs::MetricsRegistry::global()
                             .snapshot()
                             .counter("exec.scan_fork_joins");
  RunResult A = runSw(Fn, Serial, /*OnCpu=*/false, 16, 16);
  RunResult B = runSw(Fn, Parallel, /*OnCpu=*/false, 16, 16);
  uint64_t ForksAfter = obs::MetricsRegistry::global()
                            .snapshot()
                            .counter("exec.scan_fork_joins");
  EXPECT_EQ(ForksBefore, ForksAfter);
  EXPECT_EQ(A.RootValue, B.RootValue);
  EXPECT_EQ(A.TableMax, B.TableMax);
  EXPECT_EQ(A.Cycles, B.Cycles);
}

//===----------------------------------------------------------------------===//
// Batch x scan nesting
//===----------------------------------------------------------------------===//

TEST(ParallelScanTest, NestedBatchAndScanDeterministic) {
  CompiledRecurrence Fn = compileOrDie(SmithWatermanSource);
  const auto &Matrix = bio::SubstitutionMatrix::matchMismatch(
      bio::Alphabet::dna(), 2, -1);
  bio::SequenceDatabase Db = bio::randomDatabase(
      bio::Alphabet::dna(), 7, /*MinLength=*/40, /*MaxLength=*/120,
      /*Seed=*/0xBA7C4);
  std::vector<std::vector<ArgValue>> Problems;
  for (size_t I = 1; I != Db.size(); ++I)
    Problems.push_back({ArgValue::ofMatrix(&Matrix),
                        ArgValue::ofSeq(&Db[0]), ArgValue(),
                        ArgValue::ofSeq(&Db[I]), ArgValue()});

  gpu::Device Dev;
  DiagnosticEngine Diags;
  RunOptions Reference;
  Reference.BatchWorkers = 1;
  Reference.ScanWorkers = 1;
  auto Ref = Fn.runGpuBatch(Problems, Dev, Diags, Reference);
  ASSERT_TRUE(Ref.has_value()) << Diags.str();

  const std::pair<unsigned, unsigned> Grid[] = {{1, 3}, {3, 1}, {3, 2},
                                                {2, 8}};
  for (auto [BatchW, ScanW] : Grid) {
    RunOptions Nested;
    Nested.BatchWorkers = BatchW;
    Nested.ScanWorkers = ScanW;
    Nested.ScanGrainCells = 1;
    auto Out = Fn.runGpuBatch(Problems, Dev, Diags, Nested);
    ASSERT_TRUE(Out.has_value()) << Diags.str();
    EXPECT_EQ(Ref->TotalCycles, Out->TotalCycles);
    ASSERT_EQ(Ref->Problems.size(), Out->Problems.size());
    for (size_t I = 0; I != Ref->Problems.size(); ++I) {
      const RunResult &A = Ref->Problems[I];
      const RunResult &B = Out->Problems[I];
      EXPECT_EQ(A.RootValue, B.RootValue) << I;
      EXPECT_EQ(A.TableMax, B.TableMax) << I;
      EXPECT_EQ(A.Cells, B.Cells) << I;
      EXPECT_EQ(A.Cycles, B.Cycles) << I;
      EXPECT_TRUE(A.Cost == B.Cost) << I;
      EXPECT_TRUE(A.Metrics == B.Metrics) << I;
    }
  }
}
