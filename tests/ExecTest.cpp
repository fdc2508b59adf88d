//===- ExecTest.cpp - Tests for the plan/backend execution layer -------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the staged execution architecture: the PlanCache (LRU
/// behaviour, and that a second same-shaped run performs zero schedule
/// synthesis or loop generation), bit-identical results between full
/// and sliding-window tables on the shipped .rdsl example recursions,
/// and determinism of the parallel batch across worker counts.
///
//===----------------------------------------------------------------------===//

#include "bio/Fasta.h"
#include "bio/HmmZoo.h"
#include "exec/ParallelFor.h"
#include "runtime/CompiledRecurrence.h"
#include "runtime/Interpreter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

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

/// Runs one problem on the GPU simulator with the sliding window on and
/// off and asserts the observable values are bit-identical.
void expectWindowInvariant(const CompiledRecurrence &Fn,
                           const std::vector<ArgValue> &Args) {
  gpu::Device Dev;
  DiagnosticEngine Diags;
  RunOptions WithWindow, NoWindow;
  WithWindow.UseSlidingWindow = true;
  NoWindow.UseSlidingWindow = false;
  auto A = Fn.runGpu(Args, Dev, Diags, WithWindow);
  auto B = Fn.runGpu(Args, Dev, Diags, NoWindow);
  ASSERT_TRUE(A.has_value()) << Diags.str();
  ASSERT_TRUE(B.has_value()) << Diags.str();
  // Bit-identical, not approximately equal: both runs evaluate the same
  // cells in the same partition order.
  EXPECT_EQ(A->RootValue, B->RootValue);
  EXPECT_EQ(A->TableMax, B->TableMax);
  EXPECT_EQ(A->Cells, B->Cells);
  EXPECT_EQ(A->UsedSchedule, B->UsedSchedule);
  // The window run must actually have used the compressed table.
  EXPECT_LT(A->Metrics.TableBytes, B->Metrics.TableBytes);
}

} // namespace

//===----------------------------------------------------------------------===//
// PlanCache unit behaviour
//===----------------------------------------------------------------------===//

TEST(PlanCacheTest, LruEvictionAndStats) {
  exec::PlanCache Cache(/*Capacity=*/2);
  auto keyFor = [](int64_t Upper) {
    exec::PlanKey Key;
    Key.Lower = {0, 0};
    Key.Upper = {Upper, Upper};
    return Key;
  };
  auto Plan = std::make_shared<const exec::ExecutablePlan>();

  EXPECT_EQ(Cache.lookup(keyFor(1)), nullptr);
  Cache.insert(keyFor(1), Plan);
  Cache.insert(keyFor(2), Plan);
  EXPECT_NE(Cache.lookup(keyFor(1)), nullptr);

  // Key 2 is now least recently used; inserting a third evicts it.
  Cache.insert(keyFor(3), Plan);
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.lookup(keyFor(2)), nullptr);
  EXPECT_NE(Cache.lookup(keyFor(1)), nullptr);
  EXPECT_NE(Cache.lookup(keyFor(3)), nullptr);

  exec::PlanCache::Stats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, 3u);
  EXPECT_EQ(Stats.Misses, 2u);
  EXPECT_EQ(Stats.Evictions, 1u);

  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.stats().Hits, 0u);
}

TEST(PlanCacheTest, KeyDistinguishesOptionsAndSchedule) {
  solver::DomainBox Box = solver::DomainBox::fromExtents({4, 4});
  solver::Schedule S{{1, 2}};
  exec::PlanKey Minimal = exec::PlanKey::make(Box, true, false, nullptr);
  exec::PlanKey Forced = exec::PlanKey::make(Box, true, false, &S);
  exec::PlanKey NoWindow = exec::PlanKey::make(Box, false, false, nullptr);
  exec::PlanKey Kept = exec::PlanKey::make(Box, true, true, nullptr);
  exec::PlanKey Jit =
      exec::PlanKey::make(Box, true, false, nullptr, /*Jit=*/true);
  EXPECT_FALSE(Minimal == Forced);
  EXPECT_FALSE(Minimal == NoWindow);
  EXPECT_FALSE(Minimal == Kept);
  EXPECT_FALSE(Minimal == Jit);
  EXPECT_NE(Minimal.hash(), Jit.hash());
  EXPECT_TRUE(Minimal == exec::PlanKey::make(Box, true, false, nullptr));

  // The hash values are pinned: serve::Router places requests on shards
  // by them, so any drift would silently move every tenant's traffic.
  EXPECT_EQ(Minimal.hash(), 0xf9f745bf28877918ull);
  EXPECT_EQ(Forced.hash(), 0xccdaad3c6652d703ull);
  EXPECT_EQ(NoWindow.hash(), 0xf9f747bf28877c7eull);
  EXPECT_EQ(Kept.hash(), 0xf9f746bf28877acbull);
  EXPECT_EQ(Jit.hash(), 0xf9f73dbf28876b80ull);
}

TEST(PlanCacheTest, ConcurrentHammerKeepsCountersConsistent) {
  // Many threads, few fingerprints, a capacity below the key count so
  // eviction churns constantly. The cache is internally synchronised;
  // under TSan this doubles as a data-race check, and the counters must
  // balance exactly against what the threads observed.
  exec::PlanCache Cache(/*Capacity=*/4);
  auto Plan = std::make_shared<const exec::ExecutablePlan>();
  constexpr unsigned Threads = 8;
  constexpr unsigned Iterations = 2000;
  constexpr unsigned Keys = 6;
  auto keyFor = [](unsigned K) {
    exec::PlanKey Key;
    Key.Lower = {0, 0};
    Key.Upper = {static_cast<int64_t>(K + 1),
                 static_cast<int64_t>(2 * K + 1)};
    return Key;
  };

  std::atomic<uint64_t> ObservedHits{0}, ObservedMisses{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      uint64_t Hits = 0, Misses = 0;
      for (unsigned I = 0; I != Iterations; ++I) {
        unsigned K = (T * 7 + I * 13) % Keys;
        if (Cache.lookup(keyFor(K))) {
          ++Hits;
        } else {
          ++Misses;
          Cache.insert(keyFor(K), Plan);
        }
      }
      ObservedHits += Hits;
      ObservedMisses += Misses;
    });
  for (std::thread &T : Pool)
    T.join();

  exec::PlanCache::Stats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, ObservedHits.load());
  EXPECT_EQ(Stats.Misses, ObservedMisses.load());
  EXPECT_EQ(Stats.Hits + Stats.Misses,
            static_cast<uint64_t>(Threads) * Iterations);
  // Inserts only follow misses, and only a full cache evicts.
  EXPECT_LE(Stats.Evictions, Stats.Misses);
  EXPECT_GT(Stats.Evictions, 0u);
  EXPECT_LE(Cache.size(), Cache.capacity());
}

//===----------------------------------------------------------------------===//
// Plan cache on the run path: second run does zero synthesis work
//===----------------------------------------------------------------------===//

TEST(PlanCachePipelineTest, SecondRunHitsCacheAndMatchesFreshSynthesis) {
  CompiledRecurrence Fn = compileOrDie(ShippedEditDistanceSource);
  bio::Sequence S("s", "kitten");
  bio::Sequence T("t", "sitting");
  std::vector<ArgValue> Args = {ArgValue::ofSeq(&S), ArgValue(),
                                ArgValue::ofSeq(&T), ArgValue()};
  gpu::Device Dev;
  DiagnosticEngine Diags;

  auto First = Fn.runGpu(Args, Dev, Diags);
  ASSERT_TRUE(First.has_value()) << Diags.str();
  exec::PlanCache::Stats AfterFirst = Fn.planCacheStats();
  EXPECT_EQ(AfterFirst.Misses, 1u);
  EXPECT_EQ(AfterFirst.Hits, 0u);

  // The second same-shaped run must be served entirely from the plan
  // cache: no schedule synthesis, no loop generation.
  auto Second = Fn.runGpu(Args, Dev, Diags);
  ASSERT_TRUE(Second.has_value()) << Diags.str();
  exec::PlanCache::Stats AfterSecond = Fn.planCacheStats();
  EXPECT_EQ(AfterSecond.Misses, 1u);
  EXPECT_EQ(AfterSecond.Hits, 1u);

  // And the cached plan's schedule is exactly what a fresh synthesis
  // derives for the box.
  EXPECT_EQ(First->UsedSchedule, Second->UsedSchedule);
  EXPECT_EQ(First->Cycles, Second->Cycles);
  auto Box = Fn.domainFor(Args, Diags);
  ASSERT_TRUE(Box.has_value());
  auto Fresh = Fn.scheduleFor(*Box, Diags);
  ASSERT_TRUE(Fresh.has_value()) << Diags.str();
  EXPECT_TRUE(*Fresh == Second->UsedSchedule);

  // A different shape misses; clearing resets the counters.
  bio::Sequence U("u", "weekends");
  std::vector<ArgValue> Other = {ArgValue::ofSeq(&S), ArgValue(),
                                 ArgValue::ofSeq(&U), ArgValue()};
  ASSERT_TRUE(Fn.runGpu(Other, Dev, Diags).has_value());
  EXPECT_EQ(Fn.planCacheStats().Misses, 2u);
  Fn.clearPlanCache();
  EXPECT_EQ(Fn.planCacheStats().Misses, 0u);
}

TEST(PlanCachePipelineTest, BatchSharesOnePlanAcrossSameShapedProblems) {
  CompiledRecurrence Fn = compileOrDie(ShippedEditDistanceSource);
  bio::SequenceDatabase Db = bio::randomDatabase(
      bio::Alphabet::english(), 9, /*MinLength=*/24, /*MaxLength=*/24,
      /*Seed=*/7);
  std::vector<std::vector<ArgValue>> Problems;
  for (size_t I = 1; I != Db.size(); ++I)
    Problems.push_back({ArgValue::ofSeq(&Db[0]), ArgValue(),
                        ArgValue::ofSeq(&Db[I]), ArgValue()});

  gpu::Device Dev;
  DiagnosticEngine Diags;
  auto Batch = Fn.runGpuBatch(Problems, Dev, Diags);
  ASSERT_TRUE(Batch.has_value()) << Diags.str();
  // All 8 problems have the same shape: one plan built, seven cache hits.
  exec::PlanCache::Stats Stats = Fn.planCacheStats();
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Hits, 7u);
}

//===----------------------------------------------------------------------===//
// Shipped examples: sliding window vs full table, bit for bit
//===----------------------------------------------------------------------===//

TEST(ShippedScriptsTest, SmithWatermanWindowInvariant) {
  DiagnosticEngine Diags;
  auto Matrix = bio::SubstitutionMatrix::parse(
      readFileOrDie(scriptsPath("data/dna_scores.txt")), Diags);
  ASSERT_TRUE(Matrix.has_value()) << Diags.str();
  auto Db = bio::readFastaFile(scriptsPath("data/reads.fa"), Diags);
  ASSERT_TRUE(Db.has_value() && Db->size() >= 2) << Diags.str();

  CompiledRecurrence Fn = compileOrDie(ShippedSmithWatermanSource);
  for (const bio::Sequence &Subject : *Db)
    expectWindowInvariant(
        Fn, {ArgValue::ofMatrix(&*Matrix), ArgValue::ofSeq(&(*Db)[0]),
             ArgValue(), ArgValue::ofSeq(&Subject), ArgValue()});
}

TEST(ShippedScriptsTest, EditDistanceWindowInvariant) {
  DiagnosticEngine Diags;
  auto Db = bio::readFastaFile(scriptsPath("data/words.fa"), Diags);
  ASSERT_TRUE(Db.has_value() && Db->size() >= 2) << Diags.str();

  CompiledRecurrence Fn = compileOrDie(ShippedEditDistanceSource);
  expectWindowInvariant(Fn,
                        {ArgValue::ofSeq(&(*Db)[0]), ArgValue(),
                         ArgValue::ofSeq(&(*Db)[1]), ArgValue()});
}

TEST(ShippedScriptsTest, CasinoForwardWindowInvariant) {
  DiagnosticEngine Diags;
  auto Db = bio::readFastaFile(scriptsPath("data/rolls.fa"), Diags);
  ASSERT_TRUE(Db.has_value() && !Db->empty()) << Diags.str();
  bio::Hmm Casino = bio::makeCasinoModel();

  CompiledRecurrence Fn =
      compileOrDie(ShippedCasinoForwardSource, {"dice"});
  for (const bio::Sequence &Rolls : *Db)
    expectWindowInvariant(Fn, {ArgValue::ofHmm(&Casino), ArgValue(),
                               ArgValue::ofSeq(&Rolls), ArgValue()});
}

/// The whole shipped scripts, through the interpreter, on the modelled
/// CPU (whose cycle accounting is residency-independent): output must be
/// byte-identical with the window on and off.
TEST(ShippedScriptsTest, ScriptOutputsWindowInvariant) {
  for (const char *Script :
       {"smith_waterman.rdsl", "edit_distance.rdsl", "casino.rdsl"}) {
    std::string Source = readFileOrDie(scriptsPath(Script));
    std::string Outputs[2];
    for (int Pass = 0; Pass != 2; ++Pass) {
      DiagnosticEngine Diags;
      Interpreter::Options Opts;
      Opts.UseGpu = false;
      Opts.BasePath = PARREC_SCRIPTS_DIR;
      Opts.Run.UseSlidingWindow = Pass == 0;
      Interpreter Interp(Diags, std::move(Opts));
      auto Output = Interp.run(Source);
      ASSERT_TRUE(Output.has_value()) << Script << ": " << Diags.str();
      Outputs[Pass] = *Output;
    }
    EXPECT_EQ(Outputs[0], Outputs[1]) << Script;
  }
}

//===----------------------------------------------------------------------===//
// Parallel batch: deterministic for any worker count
//===----------------------------------------------------------------------===//

TEST(ParallelBatchTest, DeterministicAcrossWorkerCounts) {
  CompiledRecurrence Fn = compileOrDie(ShippedSmithWatermanSource);
  const auto &Matrix = bio::SubstitutionMatrix::matchMismatch(
      bio::Alphabet::dna(), 2, -1);
  bio::SequenceDatabase Db = bio::randomDatabase(
      bio::Alphabet::dna(), 12, /*MinLength=*/20, /*MaxLength=*/90,
      /*Seed=*/0xD1CE);
  std::vector<std::vector<ArgValue>> Problems;
  for (size_t I = 1; I != Db.size(); ++I)
    Problems.push_back({ArgValue::ofMatrix(&Matrix),
                        ArgValue::ofSeq(&Db[0]), ArgValue(),
                        ArgValue::ofSeq(&Db[I]), ArgValue()});
  ASSERT_GE(Problems.size(), 8u);

  gpu::Device Dev;
  DiagnosticEngine Diags;
  RunOptions Serial, Parallel;
  Serial.BatchWorkers = 1;
  Parallel.BatchWorkers = std::max(2u, std::thread::hardware_concurrency());

  auto A = Fn.runGpuBatch(Problems, Dev, Diags, Serial);
  auto B = Fn.runGpuBatch(Problems, Dev, Diags, Parallel);
  ASSERT_TRUE(A.has_value()) << Diags.str();
  ASSERT_TRUE(B.has_value()) << Diags.str();

  EXPECT_EQ(A->TotalCycles, B->TotalCycles);
  ASSERT_EQ(A->Problems.size(), B->Problems.size());
  for (size_t I = 0; I != A->Problems.size(); ++I) {
    EXPECT_EQ(A->Problems[I].RootValue, B->Problems[I].RootValue) << I;
    EXPECT_EQ(A->Problems[I].TableMax, B->Problems[I].TableMax) << I;
    EXPECT_EQ(A->Problems[I].Cycles, B->Problems[I].Cycles) << I;
    EXPECT_EQ(A->Problems[I].Cells, B->Problems[I].Cells) << I;
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> Counts(101);
  for (auto &C : Counts)
    C = 0;
  exec::parallelFor(7, Counts.size(),
                    [&](size_t I) { Counts[I].fetch_add(1); });
  for (size_t I = 0; I != Counts.size(); ++I)
    EXPECT_EQ(Counts[I].load(), 1) << I;
}

TEST(ParallelForTest, NoWorkerIdlesWhileIndicesRemain) {
  // Index 0 holds its worker until every other index has run. The other
  // worker must run all seven; with a fixed share per worker, index 0's
  // own worker would hold some of them and the wait would time out.
  constexpr size_t Jobs = 8;
  std::mutex Mutex;
  std::condition_variable Cv;
  size_t Ran = 0; // Guarded by Mutex.
  bool Released = false;
  exec::parallelFor(2, Jobs, [&](size_t I) {
    std::unique_lock<std::mutex> Lock(Mutex);
    if (I != 0) {
      ++Ran;
      Cv.notify_all();
      return;
    }
    Released = Cv.wait_for(Lock, std::chrono::seconds(20),
                           [&] { return Ran == Jobs - 1; });
  });
  EXPECT_TRUE(Released);
}

TEST(ParallelForTest, PropagatesWorkerExceptions) {
  EXPECT_THROW(exec::parallelFor(4, 16,
                                 [](size_t I) {
                                   if (I == 9)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ParallelForTest, ResolvesWorkerCounts) {
  EXPECT_EQ(exec::resolveWorkerCount(4, 100), 4u);
  EXPECT_EQ(exec::resolveWorkerCount(16, 3), 3u);
  EXPECT_GE(exec::resolveWorkerCount(0, 100), 1u);
  EXPECT_EQ(exec::resolveWorkerCount(8, 0), 1u);
}
