//===- PipelineExecTest.cpp - Systolic batch pipelining tests ----------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pipelined batch dispatcher's contract: RunOptions::Pipeline
/// changes only the modelled wall clock. Per-problem results, costs,
/// cycle totals, metrics and schedules are bit-identical to the barrier
/// path across every evaluator, window choice and scan-worker count; on
/// a saturated device the pipelined makespan drops strictly and the
/// overlap/idle accounting and trace slices expose why.
///
//===----------------------------------------------------------------------===//

#include "bio/Fasta.h"
#include "bio/SubstitutionMatrix.h"
#include "gpu/Pipeline.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "runtime/CompiledRecurrence.h"
#include "TempPath.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

using namespace parrec;
using namespace parrec::runtime;
using codegen::ArgValue;

namespace {

const char *SwSource =
    "int sw(matrix[protein] m, seq[protein] a, index[a] i,\n"
    "       seq[protein] b, index[b] j) =\n"
    "  if i == 0 then 0\n"
    "  else if j == 0 then 0\n"
    "  else 0 max (sw(i-1, j-1) + m[a[i-1], b[j-1]])\n"
    "       max (sw(i-1, j) - 4) max (sw(i, j-1) - 4)\n";

CompiledRecurrence compileOrDie(const char *Source) {
  DiagnosticEngine Diags;
  auto Compiled = CompiledRecurrence::compile(Source, Diags);
  EXPECT_TRUE(Compiled.has_value()) << Diags.str();
  return std::move(*Compiled);
}

/// A Smith-Waterman batch: one query against subjects of the given
/// lengths. Sequences live in a deque so ArgValue pointers stay valid.
struct SwBatch {
  CompiledRecurrence Sw = compileOrDie(SwSource);
  std::deque<bio::Sequence> Seqs;
  std::vector<std::vector<ArgValue>> Problems;

  SwBatch(int64_t QueryLen, const std::vector<int64_t> &SubjectLens) {
    const bio::SubstitutionMatrix &Blosum =
        bio::SubstitutionMatrix::blosum62();
    Seqs.push_back(bio::randomSequence(bio::Alphabet::protein(),
                                       QueryLen, /*Seed=*/0xA11CE,
                                       "query"));
    const bio::Sequence *Query = &Seqs.back();
    for (size_t I = 0; I != SubjectLens.size(); ++I) {
      Seqs.push_back(bio::randomSequence(bio::Alphabet::protein(),
                                         SubjectLens[I], 100 + I,
                                         "s" + std::to_string(I)));
      Problems.push_back({ArgValue::ofMatrix(&Blosum),
                          ArgValue::ofSeq(Query), ArgValue(),
                          ArgValue::ofSeq(&Seqs.back()), ArgValue()});
    }
  }
};

/// Every per-problem observable must match bit-for-bit; pipelining only
/// re-times work that already happened.
void expectIdentical(const RunResult &Barrier, const RunResult &Piped) {
  EXPECT_EQ(Barrier.RootValue, Piped.RootValue);
  EXPECT_EQ(Barrier.TableMax, Piped.TableMax);
  EXPECT_EQ(Barrier.Cells, Piped.Cells);
  EXPECT_EQ(Barrier.Partitions, Piped.Partitions);
  EXPECT_TRUE(Barrier.Cost == Piped.Cost);
  EXPECT_EQ(Barrier.Cycles, Piped.Cycles);
  EXPECT_TRUE(Barrier.Metrics == Piped.Metrics);
  EXPECT_EQ(Barrier.UsedSchedule, Piped.UsedSchedule);
}

gpu::Device saturatedDevice() {
  gpu::CostModel Model;
  Model.NumMultiprocessors = 2; // Batches larger than 2 must share.
  return gpu::Device(Model);
}

/// A synthetic profile of \p StageCycles.size() partitions, each costing
/// its entry (no barrier), on a \p Threads-wide block.
gpu::PipelineProfile makeProfile(const std::vector<uint64_t> &StageCycles,
                                 unsigned Threads) {
  std::vector<gpu::PartitionSample> T;
  uint64_t Total = 0;
  for (size_t I = 0; I != StageCycles.size(); ++I) {
    gpu::PartitionSample S;
    S.Partition = static_cast<int64_t>(I);
    S.Cells = Threads;
    S.MaxThreadCycles = StageCycles[I];
    S.SumThreadCycles = StageCycles[I] * Threads;
    S.ActiveThreads = Threads;
    S.Threads = Threads;
    Total += StageCycles[I];
    T.push_back(S);
  }
  return gpu::PipelineProfile::make(
      std::make_shared<const std::vector<gpu::PartitionSample>>(
          std::move(T)),
      Total);
}

} // namespace

//===----------------------------------------------------------------------===//
// Planner unit tests: mixed stage counts on one multiprocessor
//===----------------------------------------------------------------------===//

TEST(PipelineExecTest, ShortLaunchNeverRegressesMultiprocessorFinish) {
  // A 1-stage launch landing behind a 4-stage one on the same (only)
  // multiprocessor drains at cycle 110 while the predecessor runs to
  // 400. The multiprocessor's finish — and so the batch makespan — must
  // not regress to the short launch's finish.
  gpu::CostModel Model;
  Model.NumMultiprocessors = 1;
  uint64_t Launch = Model.KernelLaunchCycles;

  gpu::PipelinePlanner Planner(Model, /*RecordStageStarts=*/false);
  Planner.add(makeProfile({100, 100, 100, 100}, 32));
  Planner.add(makeProfile({10}, 32));
  Planner.finish();

  EXPECT_EQ(Planner.placement(0).CompletionCycles, 400 + Launch);
  EXPECT_EQ(Planner.placement(1).CompletionCycles, 110 + Launch);
  EXPECT_EQ(Planner.stats().MakespanCycles, 400 + Launch);
  for (size_t I = 0; I != Planner.numProblems(); ++I)
    EXPECT_LE(Planner.placement(I).CompletionCycles,
              Planner.stats().MakespanCycles);
}

TEST(PipelineExecTest, DeepLaunchWaitsOnCarriedPredecessorStages) {
  // Deep, short, deep on one multiprocessor: the second deep launch must
  // still wait on the *first* deep launch's stages 1..3 even though the
  // short launch in between never occupied them, so its stages finish at
  // 210/310/410/510 and the overlap accounting stays exact (no
  // underflow).
  gpu::CostModel Model;
  Model.NumMultiprocessors = 1;
  uint64_t Launch = Model.KernelLaunchCycles;

  gpu::PipelinePlanner Planner(Model, /*RecordStageStarts=*/false);
  Planner.add(makeProfile({100, 100, 100, 100}, 32));
  Planner.add(makeProfile({10}, 32));
  Planner.add(makeProfile({100, 100, 100, 100}, 32));
  Planner.finish();

  EXPECT_EQ(Planner.placement(2).CompletionCycles, 510 + Launch);
  EXPECT_EQ(Planner.stats().MakespanCycles, 510 + Launch);
  // Serial dispatch would take 400 + 10 + 400 = 810 cycles.
  EXPECT_EQ(Planner.stats().OverlapCycles, 810 - 510);
  for (size_t I = 0; I != Planner.numProblems(); ++I)
    EXPECT_LE(Planner.placement(I).CompletionCycles,
              Planner.stats().MakespanCycles);
}

//===----------------------------------------------------------------------===//
// Bit-identity sweep: evaluators x window x scan workers
//===----------------------------------------------------------------------===//

TEST(PipelineExecTest, PipelinedBatchBitIdenticalAcrossSweep) {
  SwBatch B(/*QueryLen=*/32, {20, 28, 20, 28, 28, 36});
  gpu::Device Device;
  TempPath JitDir("pipeline-jit");
  const std::string &JitCache = JitDir.str();

  // The serial CPU backend is the cross-backend oracle for the values.
  std::vector<double> OracleRoot, OracleMax;
  for (const auto &Args : B.Problems) {
    DiagnosticEngine Diags;
    auto R = B.Sw.runCpu(Args, Device.costModel(), Diags);
    ASSERT_TRUE(R.has_value()) << Diags.str();
    OracleRoot.push_back(R->RootValue);
    OracleMax.push_back(R->TableMax);
  }

  for (exec::EvalKind Eval :
       {exec::EvalKind::Ast, exec::EvalKind::Vm, exec::EvalKind::Jit}) {
    for (bool Window : {true, false}) {
      for (unsigned ScanWorkers : {1u, 3u}) {
        RunOptions Base;
        Base.Evaluator = Eval;
        Base.UseSlidingWindow = Window;
        Base.ScanWorkers = ScanWorkers;
        Base.JitCacheDir = JitCache;

        DiagnosticEngine Diags;
        auto Barrier = B.Sw.runGpuBatch(B.Problems, Device, Diags, Base);
        ASSERT_TRUE(Barrier.has_value()) << Diags.str();

        RunOptions Piped = Base;
        Piped.Pipeline = true;
        auto Pipelined = B.Sw.runGpuBatch(B.Problems, Device, Diags, Piped);
        ASSERT_TRUE(Pipelined.has_value()) << Diags.str();

        SCOPED_TRACE("eval=" + std::to_string(int(Eval)) +
                     " window=" + std::to_string(Window) +
                     " scan=" + std::to_string(ScanWorkers));
        ASSERT_EQ(Barrier->Problems.size(), B.Problems.size());
        ASSERT_EQ(Pipelined->Problems.size(), B.Problems.size());
        for (size_t I = 0; I != B.Problems.size(); ++I) {
          expectIdentical(Barrier->Problems[I], Pipelined->Problems[I]);
          EXPECT_EQ(Barrier->Problems[I].RootValue, OracleRoot[I]);
          EXPECT_EQ(Barrier->Problems[I].TableMax, OracleMax[I]);
          // No tracing was requested: the pipeline planner's internal
          // timelines must not leak into the result shape.
          EXPECT_EQ(Barrier->Problems[I].Timeline, nullptr);
          EXPECT_EQ(Pipelined->Problems[I].Timeline, nullptr);
        }

        // Barrier semantics: everything completes at batch end.
        ASSERT_EQ(Barrier->CompletionCycles.size(), B.Problems.size());
        for (uint64_t C : Barrier->CompletionCycles)
          EXPECT_EQ(C, Barrier->TotalCycles);
        EXPECT_EQ(Barrier->OverlapCycles, 0u);

        // Pipelined semantics: the last completion is the makespan and
        // nothing takes longer than back-to-back dispatch (each
        // problem has its own multiprocessor here, so the makespans
        // are in fact equal).
        ASSERT_EQ(Pipelined->CompletionCycles.size(), B.Problems.size());
        EXPECT_EQ(*std::max_element(Pipelined->CompletionCycles.begin(),
                                    Pipelined->CompletionCycles.end()),
                  Pipelined->TotalCycles);
        EXPECT_LE(Pipelined->TotalCycles, Barrier->TotalCycles);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Saturated device: strict overlap, early completions, accounting
//===----------------------------------------------------------------------===//

TEST(PipelineExecTest, SaturatedDeviceOverlapsStrictly) {
  SwBatch B(/*QueryLen=*/32, {24, 24, 24, 24, 24, 24});
  gpu::Device Device = saturatedDevice();

  DiagnosticEngine Diags;
  auto Barrier = B.Sw.runGpuBatch(B.Problems, Device, Diags, {});
  ASSERT_TRUE(Barrier.has_value()) << Diags.str();

  RunOptions Piped;
  Piped.Pipeline = true;
  auto Pipelined = B.Sw.runGpuBatch(B.Problems, Device, Diags, Piped);
  ASSERT_TRUE(Pipelined.has_value()) << Diags.str();

  for (size_t I = 0; I != B.Problems.size(); ++I)
    expectIdentical(Barrier->Problems[I], Pipelined->Problems[I]);

  // Three multi-partition problems per multiprocessor: every handoff
  // overlaps at least one barrier's worth of cycles, so the drop is
  // strict and the per-multiprocessor accounting sees it.
  EXPECT_LT(Pipelined->TotalCycles, Barrier->TotalCycles);
  EXPECT_GT(Pipelined->OverlapCycles, 0u);

  const auto &Completions = Pipelined->CompletionCycles;
  uint64_t Launch = Device.costModel().KernelLaunchCycles;
  EXPECT_EQ(*std::max_element(Completions.begin(), Completions.end()),
            Pipelined->TotalCycles);
  EXPECT_LT(*std::min_element(Completions.begin(), Completions.end()),
            Pipelined->TotalCycles);
  for (size_t I = 0; I != Completions.size(); ++I)
    EXPECT_GE(Completions[I], Pipelined->Problems[I].Cycles + Launch);
}

TEST(PipelineExecTest, MixedDepthBatchKeepsCompletionsWithinMakespan) {
  // Long and short subjects interleaved (different partition counts) on
  // a saturated two-multiprocessor device: short launches land behind
  // long ones, the configuration where a regressing multiprocessor
  // finish would publish a completion past the reported makespan.
  SwBatch B(/*QueryLen=*/32, {48, 8, 48, 8, 8, 40, 8, 8});
  gpu::Device Device = saturatedDevice();

  DiagnosticEngine Diags;
  auto Barrier = B.Sw.runGpuBatch(B.Problems, Device, Diags, {});
  ASSERT_TRUE(Barrier.has_value()) << Diags.str();

  uint64_t Launch = Device.costModel().KernelLaunchCycles;
  RunOptions Piped;
  Piped.Pipeline = true;
  auto Pipelined = B.Sw.runGpuBatch(B.Problems, Device, Diags, Piped);
  ASSERT_TRUE(Pipelined.has_value()) << Diags.str();

  uint64_t Longest = 0;
  for (size_t I = 0; I != B.Problems.size(); ++I) {
    expectIdentical(Barrier->Problems[I], Pipelined->Problems[I]);
    Longest = std::max(Longest, Pipelined->Problems[I].Cycles);
  }

  // The makespan covers every member: no completion may exceed it,
  // the last completion is the makespan, and the busiest device runs
  // at least the longest single problem.
  ASSERT_EQ(Pipelined->CompletionCycles.size(), B.Problems.size());
  for (uint64_t C : Pipelined->CompletionCycles)
    EXPECT_LE(C, Pipelined->TotalCycles);
  EXPECT_EQ(*std::max_element(Pipelined->CompletionCycles.begin(),
                              Pipelined->CompletionCycles.end()),
            Pipelined->TotalCycles);
  EXPECT_GE(Pipelined->TotalCycles, Longest + Launch);
  EXPECT_LE(Pipelined->TotalCycles, Barrier->TotalCycles);
}

TEST(PipelineExecTest, PipeliningBeatsBarrierOnUnderfilledBlocks) {
  // Short sequences against a short query: each problem's widest
  // partition holds ~9 active threads of a 32-wide block.
  SwBatch B(/*QueryLen=*/12, {8, 8, 8, 8});
  gpu::Device Device = saturatedDevice();

  DiagnosticEngine Diags;
  auto Barrier = B.Sw.runGpuBatch(B.Problems, Device, Diags, {});
  ASSERT_TRUE(Barrier.has_value()) << Diags.str();

  RunOptions Piped;
  Piped.Pipeline = true;
  auto Pipelined = B.Sw.runGpuBatch(B.Problems, Device, Diags, Piped);
  ASSERT_TRUE(Pipelined.has_value()) << Diags.str();

  for (size_t I = 0; I != B.Problems.size(); ++I)
    expectIdentical(Barrier->Problems[I], Pipelined->Problems[I]);
  // Two underfilled launches share each multiprocessor: the pipelined
  // makespan drops below the barrier one.
  EXPECT_LT(Pipelined->TotalCycles, Barrier->TotalCycles);
}

TEST(PipelineExecTest, OverlapAndIdleHistogramsPopulated) {
  SwBatch B(/*QueryLen=*/32, {24, 24, 24, 24});
  gpu::Device Device = saturatedDevice();

  obs::MetricsSnapshot Before = obs::MetricsRegistry::global().snapshot();
  uint64_t OverlapBefore =
      Before.histogramTotal("exec.pipeline_overlap_cycles").Count;
  uint64_t IdleBefore =
      Before.histogramTotal("exec.device_idle_cycles").Count;

  RunOptions Piped;
  Piped.Pipeline = true;
  DiagnosticEngine Diags;
  auto R = B.Sw.runGpuBatch(B.Problems, Device, Diags, Piped);
  ASSERT_TRUE(R.has_value()) << Diags.str();

  obs::MetricsSnapshot After = obs::MetricsRegistry::global().snapshot();
  // One observation per used multiprocessor: both were used.
  EXPECT_EQ(After.histogramTotal("exec.pipeline_overlap_cycles").Count,
            OverlapBefore + 2);
  EXPECT_EQ(After.histogramTotal("exec.device_idle_cycles").Count,
            IdleBefore + 2);
}

//===----------------------------------------------------------------------===//
// Trace: overlapped partition slices on the device lanes
//===----------------------------------------------------------------------===//

namespace {

const std::string *argValue(const obs::DeviceSlice &S, const char *Key) {
  for (const obs::TraceArg &A : S.Args)
    if (A.Key == Key)
      return &A.Json;
  return nullptr;
}

} // namespace

TEST(PipelineExecTest, TraceShowsOverlappedPartitionSlices) {
  SwBatch B(/*QueryLen=*/32, {24, 24, 24, 24});
  gpu::Device Device = saturatedDevice();

  obs::Tracer::instance().disable();
  obs::Tracer::instance().reset();
  obs::Tracer::instance().enable();
  RunOptions Piped;
  Piped.Pipeline = true;
  DiagnosticEngine Diags;
  auto R = B.Sw.runGpuBatch(B.Problems, Device, Diags, Piped);
  obs::Tracer::instance().disable();
  std::vector<obs::DeviceSlice> Slices =
      obs::Tracer::instance().deviceSlices();
  obs::Tracer::instance().reset();
  ASSERT_TRUE(R.has_value()) << Diags.str();

  // Per (block, problem): the executed cycle range of its partition
  // slices.
  std::map<std::pair<uint32_t, std::string>,
           std::pair<uint64_t, uint64_t>>
      Ranges;
  for (const obs::DeviceSlice &S : Slices) {
    const std::string *Problem = argValue(S, "problem");
    if (!Problem || !argValue(S, "partition"))
      continue;
    auto Key = std::make_pair(S.Block, *Problem);
    auto [It, Fresh] = Ranges.emplace(
        Key, std::make_pair(S.StartCycles, S.StartCycles + S.DurCycles));
    if (!Fresh) {
      It->second.first = std::min(It->second.first, S.StartCycles);
      It->second.second =
          std::max(It->second.second, S.StartCycles + S.DurCycles);
    }
  }
  ASSERT_EQ(Ranges.size(), B.Problems.size());

  // Two problems sharing a multiprocessor must have interleaved — not
  // back-to-back — cycle ranges somewhere.
  bool Overlapped = false;
  for (auto AIt = Ranges.begin(); AIt != Ranges.end(); ++AIt)
    for (auto BIt = std::next(AIt); BIt != Ranges.end(); ++BIt) {
      if (AIt->first.first != BIt->first.first)
        continue;
      uint64_t Lo = std::max(AIt->second.first, BIt->second.first);
      uint64_t Hi = std::min(AIt->second.second, BIt->second.second);
      Overlapped |= Lo < Hi;
    }
  EXPECT_TRUE(Overlapped);
}

//===----------------------------------------------------------------------===//
// Timeline rule: a member keeps its timeline only if it asked for one
//===----------------------------------------------------------------------===//

TEST(PipelineExecTest, MembersKeepTimelinesOnlyWhenTheyAskUnderTracer) {
  SwBatch B(/*QueryLen=*/16, {12, 16, 12});
  gpu::Device Device = saturatedDevice();

  // The enabled tracer records every member's timeline for its device
  // slices, under either dispatch policy; only a member whose own
  // options set Trace may carry the timeline back.
  obs::Tracer::instance().disable();
  obs::Tracer::instance().reset();
  obs::Tracer::instance().enable();
  std::vector<std::string> Failures;
  for (bool Pipeline : {false, true}) {
    for (bool Trace : {false, true}) {
      std::string Config = "pipeline=" + std::to_string(Pipeline) +
                           " trace=" + std::to_string(Trace);
      size_t SlicesBefore = obs::Tracer::instance().deviceSlices().size();
      RunOptions Opts;
      Opts.Pipeline = Pipeline;
      Opts.Trace = Trace;
      DiagnosticEngine Diags;
      auto R = B.Sw.runGpuBatch(B.Problems, Device, Diags, Opts);
      if (!R) {
        Failures.push_back(Config + ": " + Diags.str());
        continue;
      }
      for (size_t I = 0; I != R->Problems.size(); ++I)
        if ((R->Problems[I].Timeline != nullptr) != Trace)
          Failures.push_back(Config + ": member " + std::to_string(I) +
                             (Trace ? " lost" : " leaked") + " its timeline");
      // The device slices are emitted before any timeline is dropped.
      if (obs::Tracer::instance().deviceSlices().size() <= SlicesBefore)
        Failures.push_back(Config + ": no device slices emitted");
    }
  }
  obs::Tracer::instance().disable();
  obs::Tracer::instance().reset();
  for (const std::string &F : Failures)
    ADD_FAILURE() << F;
}
