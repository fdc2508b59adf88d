//===- ServeTest.cpp - Tests for the serving engine --------------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving engine's contract: results routed through submit/coalesce/
/// dispatch are bit-identical to direct CompiledRecurrence runs across
/// device counts and coalescing modes; backpressure, deadline shedding,
/// Drain-vs-Abort shutdown and batch composition are deterministic on the
/// virtual clock (StartPaused + shutdown make every schedule reproducible);
/// a hot VM key moves to the JIT without a serving thread
/// waiting on the compiler; and workload specs parse, materialise and
/// replay deterministically.
///
//===----------------------------------------------------------------------===//

#include "bio/Fasta.h"
#include "bio/HmmZoo.h"
#include "bio/SubstitutionMatrix.h"
#include "codegen/NativeJit.h"
#include "exec/ParallelFor.h"
#include "obs/Export.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "runtime/CompiledRecurrence.h"
#include "serve/Engine.h"
#include "serve/Workload.h"
#include "TempPath.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include <sys/wait.h>

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

const char *DnaForwardSource =
    "prob forward(hmm h, state[h] s, seq[dna] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))\n";

CompiledRecurrence compileOrDie(const char *Source) {
  DiagnosticEngine Diags;
  auto Compiled = CompiledRecurrence::compile(Source, Diags);
  EXPECT_TRUE(Compiled.has_value()) << Diags.str();
  return std::move(*Compiled);
}

/// Every observable of a served result must match the direct run
/// bit-for-bit; the engine changes when and where work runs, never what
/// it computes.
void expectIdentical(const RunResult &Direct, const RunResult &Served) {
  EXPECT_EQ(Direct.RootValue, Served.RootValue);
  EXPECT_EQ(Direct.TableMax, Served.TableMax);
  EXPECT_EQ(Direct.Cells, Served.Cells);
  EXPECT_EQ(Direct.Partitions, Served.Partitions);
  EXPECT_TRUE(Direct.Cost == Served.Cost);
  EXPECT_EQ(Direct.Cycles, Served.Cycles);
  EXPECT_TRUE(Direct.Metrics == Served.Metrics);
  EXPECT_EQ(Direct.UsedSchedule, Served.UsedSchedule);
}

/// A mixed Smith-Waterman / forward problem set with repeated shapes
/// (repeats are what coalescing batches together). Sequences live in
/// deques so ArgValue pointers stay valid for the fixture's lifetime.
struct MixedProblems {
  CompiledRecurrence Sw = compileOrDie(SwSource);
  CompiledRecurrence Forward = compileOrDie(DnaForwardSource);
  bio::Hmm Genes = bio::makeGeneFinderModel();
  std::deque<bio::Sequence> Seqs;
  std::vector<const CompiledRecurrence *> Fns;
  std::vector<std::vector<ArgValue>> Args;

  MixedProblems() {
    const bio::SubstitutionMatrix &Blosum =
        bio::SubstitutionMatrix::blosum62();
    Seqs.push_back(bio::randomSequence(bio::Alphabet::protein(), 32,
                                       /*Seed=*/0xA11CE, "query"));
    const bio::Sequence *Query = &Seqs.back();
    int64_t SubjectLengths[] = {20, 28, 20, 28, 28, 36};
    for (size_t I = 0; I != std::size(SubjectLengths); ++I) {
      Seqs.push_back(bio::randomSequence(bio::Alphabet::protein(),
                                         SubjectLengths[I], 100 + I,
                                         "s" + std::to_string(I)));
      Fns.push_back(&Sw);
      Args.push_back({ArgValue::ofMatrix(&Blosum), ArgValue::ofSeq(Query),
                      ArgValue(), ArgValue::ofSeq(&Seqs.back()),
                      ArgValue()});
    }
    int64_t ObservedLengths[] = {40, 40, 52};
    for (size_t I = 0; I != std::size(ObservedLengths); ++I) {
      std::string Observed = Genes.sample(
          /*Seed=*/7 + I, static_cast<size_t>(ObservedLengths[I]));
      Observed.resize(static_cast<size_t>(ObservedLengths[I]), 'a');
      Seqs.emplace_back("x" + std::to_string(I), std::move(Observed));
      Fns.push_back(&Forward);
      Args.push_back({ArgValue::ofHmm(&Genes), ArgValue(),
                      ArgValue::ofSeq(&Seqs.back()), ArgValue()});
    }
  }

  size_t size() const { return Fns.size(); }
};

/// One trivial forward problem for the control-flow tests.
struct TinyProblem {
  CompiledRecurrence Forward = compileOrDie(DnaForwardSource);
  bio::Hmm Genes = bio::makeGeneFinderModel();
  bio::Sequence X{"x", "acgtacgtacgt"};

  serve::Request request() const {
    serve::Request Req;
    Req.Fn = &Forward;
    Req.Args = {ArgValue::ofHmm(&Genes), ArgValue(),
                ArgValue::ofSeq(&X), ArgValue()};
    return Req;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Differential: served results == direct results, on every topology
//===----------------------------------------------------------------------===//

TEST(ServeEngineTest, ResultsBitIdenticalToDirectRuns) {
  MixedProblems P;

  // Direct single-problem runs are the oracle.
  gpu::Device Direct;
  std::vector<RunResult> Expected;
  for (size_t I = 0; I != P.size(); ++I) {
    DiagnosticEngine Diags;
    auto R = P.Fns[I]->runGpu(P.Args[I], Direct, Diags);
    ASSERT_TRUE(R.has_value()) << Diags.str();
    Expected.push_back(std::move(*R));
  }

  for (unsigned Devices : {1u, 3u}) {
    for (bool Coalesce : {true, false}) {
      serve::Engine::Options Opts;
      Opts.Devices = Devices;
      Opts.MaxBatch = Coalesce ? 4 : 1;
      Opts.StartPaused = true;
      serve::Engine Engine(Opts);
      std::vector<serve::Future> Futures;
      for (size_t I = 0; I != P.size(); ++I) {
        serve::Request Req;
        Req.Fn = P.Fns[I];
        Req.Args = P.Args[I];
        Futures.push_back(Engine.submit(std::move(Req)));
      }
      Engine.shutdown(serve::Engine::ShutdownMode::Drain);
      for (size_t I = 0; I != Futures.size(); ++I) {
        const serve::Response &Resp = Futures[I].wait();
        ASSERT_EQ(Resp.St, serve::Status::Ok)
            << "devices=" << Devices << " coalesce=" << Coalesce
            << " problem=" << I << ": " << Resp.Error;
        expectIdentical(Expected[I], Resp.Result);
        EXPECT_LT(Resp.Device, Devices);
      }
      serve::Engine::Stats Stats = Engine.stats();
      EXPECT_EQ(Stats.Submitted, P.size());
      EXPECT_EQ(Stats.Completed, P.size());
      EXPECT_EQ(Stats.Rejected, 0u);
    }
  }

  // The engine plans through the same per-function PlanCache the direct
  // runs use: every served shape was already planned above, so serving
  // performed zero fresh synthesis.
  EXPECT_GT(P.Sw.planCacheStats().Hits, 0u);
  EXPECT_GT(P.Forward.planCacheStats().Hits, 0u);
}

//===----------------------------------------------------------------------===//
// Backpressure, deadlines, shutdown modes (virtual-clock deterministic)
//===----------------------------------------------------------------------===//

TEST(ServeEngineTest, QueueFullRejectsDeterministically) {
  TinyProblem P;
  serve::Engine::Options Opts;
  Opts.QueueCapacity = 3;
  Opts.StartPaused = true;
  serve::Engine Engine(Opts);

  std::vector<serve::Future> Admitted;
  for (int I = 0; I != 3; ++I)
    Admitted.push_back(Engine.submit(P.request()));
  EXPECT_EQ(Engine.queueDepth(), 3u);

  // The paused coalescer cannot drain, so the fourth submission must be
  // rejected immediately — backpressure, not buffering.
  serve::Future Rejected = Engine.submit(P.request());
  ASSERT_TRUE(Rejected.valid());
  EXPECT_TRUE(Rejected.ready());
  EXPECT_EQ(Rejected.wait().St, serve::Status::QueueFull);

  Engine.shutdown(serve::Engine::ShutdownMode::Drain);
  for (serve::Future &F : Admitted)
    EXPECT_EQ(F.wait().St, serve::Status::Ok);
  serve::Engine::Stats Stats = Engine.stats();
  EXPECT_EQ(Stats.Rejected, 1u);
  EXPECT_EQ(Stats.Completed, 3u);
  EXPECT_EQ(Stats.MaxQueueDepth, 3u);
}

TEST(ServeEngineTest, ExpiredDeadlinesAreShedAtDequeue) {
  TinyProblem P;
  serve::Engine::Options Opts;
  Opts.StartPaused = true;
  serve::Engine Engine(Opts);

  serve::Request Expiring = P.request();
  Expiring.DeadlineTick = 5;
  serve::Future Late = Engine.submit(std::move(Expiring));

  serve::Request Relaxed = P.request();
  Relaxed.DeadlineTick = 1000;
  serve::Future OnTime = Engine.submit(std::move(Relaxed));

  // Both are queued; the clock passes one deadline before the coalescer
  // ever sees the queue.
  Engine.advanceTo(10);
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);

  EXPECT_EQ(Late.wait().St, serve::Status::Deadline);
  EXPECT_EQ(OnTime.wait().St, serve::Status::Ok);
  serve::Engine::Stats Stats = Engine.stats();
  EXPECT_EQ(Stats.DeadlineShed, 1u);
  EXPECT_EQ(Stats.Completed, 1u);
}

TEST(ServeEngineTest, DrainFinishesWhatAbortDrops) {
  TinyProblem P;

  serve::Engine::Options Opts;
  Opts.StartPaused = true;
  {
    serve::Engine Drained(Opts);
    std::vector<serve::Future> Futures;
    for (int I = 0; I != 3; ++I)
      Futures.push_back(Drained.submit(P.request()));
    Drained.shutdown(serve::Engine::ShutdownMode::Drain);
    for (serve::Future &F : Futures)
      EXPECT_EQ(F.wait().St, serve::Status::Ok);
    EXPECT_EQ(Drained.stats().Completed, 3u);
    EXPECT_EQ(Drained.stats().Aborted, 0u);
  }
  {
    serve::Engine Aborted(Opts);
    std::vector<serve::Future> Futures;
    for (int I = 0; I != 3; ++I)
      Futures.push_back(Aborted.submit(P.request()));
    Aborted.shutdown(serve::Engine::ShutdownMode::Abort);
    for (serve::Future &F : Futures)
      EXPECT_EQ(F.wait().St, serve::Status::Aborted);
    EXPECT_EQ(Aborted.stats().Completed, 0u);
    EXPECT_EQ(Aborted.stats().Aborted, 3u);
  }

  // After shutdown the engine admits nothing new.
  serve::Engine Closed(Opts);
  Closed.shutdown(serve::Engine::ShutdownMode::Drain);
  EXPECT_EQ(Closed.submit(P.request()).wait().St,
            serve::Status::QueueFull);
}

TEST(ServeEngineTest, InvalidRequestFailsWithDiagnostics) {
  TinyProblem P;
  serve::Engine::Options Opts;
  Opts.StartPaused = true;
  serve::Engine Engine(Opts);

  serve::Request Bad = P.request();
  Bad.Args.pop_back();
  Bad.Args.pop_back(); // Wrong arity: the domain cannot be derived.
  serve::Response Resp = Engine.submit(std::move(Bad)).wait();
  EXPECT_EQ(Resp.St, serve::Status::Failed);
  EXPECT_FALSE(Resp.Error.empty());
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);
  EXPECT_EQ(Engine.stats().Failed, 1u);
}

//===----------------------------------------------------------------------===//
// Coalescing and dispatch topology
//===----------------------------------------------------------------------===//

TEST(ServeEngineTest, CoalescesSameShapeUpToMaxBatch) {
  TinyProblem P;
  serve::Engine::Options Opts;
  Opts.MaxBatch = 4;
  Opts.StartPaused = true;
  serve::Engine Engine(Opts);
  std::vector<serve::Future> Futures;
  for (int I = 0; I != 6; ++I)
    Futures.push_back(Engine.submit(P.request()));
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);

  std::map<uint64_t, uint64_t> BatchSizes;
  for (serve::Future &F : Futures) {
    const serve::Response &Resp = F.wait();
    ASSERT_EQ(Resp.St, serve::Status::Ok) << Resp.Error;
    BatchSizes[Resp.BatchId] = Resp.BatchSize;
  }
  // Six identical shapes against MaxBatch=4: one full batch, one rest.
  ASSERT_EQ(BatchSizes.size(), 2u);
  EXPECT_EQ(Engine.stats().Batches, 2u);
  std::vector<uint64_t> Sizes;
  for (const auto &[Id, Size] : BatchSizes)
    Sizes.push_back(Size);
  EXPECT_EQ(Sizes, (std::vector<uint64_t>{4, 2}));
}

TEST(ServeEngineTest, CoalescingOffDispatchesSingletons) {
  TinyProblem P;
  serve::Engine::Options Opts;
  Opts.MaxBatch = 1; // Coalescing off.
  Opts.StartPaused = true;
  serve::Engine Engine(Opts);
  std::vector<serve::Future> Futures;
  for (int I = 0; I != 5; ++I)
    Futures.push_back(Engine.submit(P.request()));
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);
  for (serve::Future &F : Futures)
    EXPECT_EQ(F.wait().BatchSize, 1u);
  EXPECT_EQ(Engine.stats().Batches, 5u);
}

TEST(ServeEngineTest, RoundRobinsBatchesAcrossDevices) {
  TinyProblem P;
  serve::Engine::Options Opts;
  Opts.Devices = 3;
  Opts.MaxBatch = 1;
  Opts.StartPaused = true;
  serve::Engine Engine(Opts);
  std::vector<serve::Future> Futures;
  for (int I = 0; I != 6; ++I)
    Futures.push_back(Engine.submit(P.request()));
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);
  for (serve::Future &F : Futures)
    EXPECT_EQ(F.wait().St, serve::Status::Ok);
  serve::Engine::Stats Stats = Engine.stats();
  ASSERT_EQ(Stats.DeviceBatches.size(), 3u);
  for (uint64_t Batches : Stats.DeviceBatches)
    EXPECT_EQ(Batches, 2u);
}

TEST(ServeEngineTest, HigherPriorityDispatchesFirst) {
  MixedProblems P;
  serve::Engine::Options Opts;
  Opts.StartPaused = true;
  serve::Engine Engine(Opts);

  serve::Request Low;
  Low.Fn = P.Fns[0];
  Low.Args = P.Args[0];
  Low.Priority = 0;
  serve::Request High;
  High.Fn = P.Fns.back();
  High.Args = P.Args.back();
  High.Priority = 5;

  serve::Future LowF = Engine.submit(std::move(Low));
  serve::Future HighF = Engine.submit(std::move(High));
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);
  ASSERT_EQ(LowF.wait().St, serve::Status::Ok);
  ASSERT_EQ(HighF.wait().St, serve::Status::Ok);
  // Submitted second, dispatched (and thus completed) first.
  EXPECT_LT(HighF.wait().CompletionSeq, LowF.wait().CompletionSeq);
}

TEST(ServeEngineTest, LingerWindowIsVirtualTime) {
  TinyProblem P;
  serve::Engine::Options Opts;
  Opts.LingerTicks = 10;
  Opts.MaxBatch = 16;
  serve::Engine Engine(Opts);

  // The batch opened at tick 0 stays open until the virtual clock passes
  // tick 10, however long that takes in wall time; both requests land in
  // the same batch regardless of thread scheduling.
  serve::Future A = Engine.submit(P.request());
  serve::Future B = Engine.submit(P.request());
  Engine.advanceTo(11);
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);
  ASSERT_EQ(A.wait().St, serve::Status::Ok);
  ASSERT_EQ(B.wait().St, serve::Status::Ok);
  EXPECT_EQ(A.wait().BatchId, B.wait().BatchId);
  EXPECT_EQ(A.wait().BatchSize, 2u);
  EXPECT_EQ(Engine.stats().Batches, 1u);
}

TEST(ServeEngineTest, CallbackRunsOnCompletion) {
  TinyProblem P;
  serve::Engine::Options Opts;
  Opts.StartPaused = true;
  serve::Engine Engine(Opts);
  std::atomic<int> Calls{0};
  serve::Status Seen = serve::Status::Failed;
  serve::Future F = Engine.submit(P.request(),
                                  [&](const serve::Response &Resp) {
                                    Seen = Resp.St;
                                    ++Calls;
                                  });
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);
  F.wait();
  EXPECT_EQ(Calls.load(), 1);
  EXPECT_EQ(Seen, serve::Status::Ok);
}

TEST(ServeEngineTest, ResponsesAreCountedBeforeTheyResolve) {
  TinyProblem P;
  serve::Engine::Options Opts;
  Opts.StartPaused = true;
  serve::Engine Engine(Opts);
  // One device publishes its responses one after another, and each
  // callback must already see its own response in stats().
  std::mutex Mutex;
  std::vector<uint64_t> Completed;
  for (int I = 0; I != 3; ++I)
    Engine.submit(P.request(), [&](const serve::Response &) {
      uint64_t Seen = Engine.stats().Completed;
      std::lock_guard<std::mutex> Lock(Mutex);
      Completed.push_back(Seen);
    });
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);
  EXPECT_EQ(Completed, (std::vector<uint64_t>{1, 2, 3}));
}

//===----------------------------------------------------------------------===//
// Workload specs and replay
//===----------------------------------------------------------------------===//

TEST(ServeWorkloadTest, ParsesSpecsAndRejectsBadOnes) {
  std::string Error;
  auto Doc = obs::parseJson(
      "{\"tenants\": [{\"name\": \"t\", \"kind\": \"forward\","
      " \"requests\": 3, \"min_length\": 16, \"max_length\": 16,"
      " \"mean_gap_ticks\": 2, \"deadline_ticks\": 9,"
      " \"priority\": 1, \"seed\": 42}]}",
      &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  auto Spec = serve::parseWorkloadSpec(*Doc, &Error);
  ASSERT_TRUE(Spec.has_value()) << Error;
  ASSERT_EQ(Spec->Tenants.size(), 1u);
  EXPECT_EQ(Spec->Tenants[0].Name, "t");
  EXPECT_EQ(Spec->Tenants[0].Kind, "forward");
  EXPECT_EQ(Spec->Tenants[0].Requests, 3u);
  EXPECT_EQ(Spec->Tenants[0].DeadlineTicks, 9u);

  auto BadKind =
      obs::parseJson("{\"tenants\": [{\"kind\": \"nussinov\"}]}");
  ASSERT_TRUE(BadKind.has_value());
  EXPECT_FALSE(serve::parseWorkloadSpec(*BadKind, &Error).has_value());
  EXPECT_NE(Error.find("unknown kind"), std::string::npos);

  auto NoTenants = obs::parseJson("{\"tenants\": []}");
  ASSERT_TRUE(NoTenants.has_value());
  EXPECT_FALSE(serve::parseWorkloadSpec(*NoTenants, &Error).has_value());
}

TEST(ServeWorkloadTest, MaterialisationIsDeterministic) {
  serve::WorkloadSpec Spec;
  serve::TenantSpec Tenant;
  Tenant.Name = "t";
  Tenant.Kind = "viterbi";
  Tenant.Requests = 5;
  Tenant.MinLength = 20;
  Tenant.MaxLength = 30;
  Tenant.MeanGapTicks = 3;
  Tenant.Seed = 99;
  Spec.Tenants.push_back(Tenant);

  DiagnosticEngine Diags;
  auto A = serve::Workload::build(Spec, Diags);
  auto B = serve::Workload::build(Spec, Diags);
  ASSERT_TRUE(A.has_value()) << Diags.str();
  ASSERT_TRUE(B.has_value()) << Diags.str();
  ASSERT_EQ(A->events().size(), 5u);
  ASSERT_EQ(A->events().size(), B->events().size());
  for (size_t I = 0; I != A->events().size(); ++I) {
    EXPECT_EQ(A->events()[I].SubmitTick, B->events()[I].SubmitTick);
    EXPECT_EQ(A->events()[I].Args.size(), B->events()[I].Args.size());
  }
  EXPECT_EQ(A->lastTick(), B->lastTick());
}

TEST(ServeWorkloadTest, ReplayCompletesEverythingAndReportsJson) {
  serve::WorkloadSpec Spec;
  for (const char *Kind : {"smith_waterman", "forward"}) {
    serve::TenantSpec Tenant;
    Tenant.Name = Kind;
    Tenant.Kind = Kind;
    Tenant.Requests = 4;
    Tenant.MinLength = 24;
    Tenant.MaxLength = 24;
    Tenant.MeanGapTicks = 2;
    Tenant.Seed = 7;
    Spec.Tenants.push_back(Tenant);
  }
  DiagnosticEngine Diags;
  auto Workload = serve::Workload::build(Spec, Diags);
  ASSERT_TRUE(Workload.has_value()) << Diags.str();

  serve::Engine::Options Opts;
  Opts.Devices = 2;
  Opts.MaxBatch = 4;
  Opts.LingerTicks = 2;
  serve::Engine Engine(Opts);
  serve::ReplayReport Report = serve::replay(Engine, *Workload);

  EXPECT_EQ(Report.Total, 8u);
  EXPECT_EQ(Report.okCount(), 8u);
  EXPECT_EQ(Report.Stats.Completed, 8u);
  EXPECT_GT(Report.Stats.Batches, 0u);
  EXPECT_GT(Report.ModelledCycles, 0u);

  // The report must round-trip through the JSON parser (the CI smoke
  // validates the same document with python's json.tool).
  std::string Error;
  auto Parsed = obs::parseJson(Report.json(), &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  EXPECT_EQ(Parsed->integerOr("total", -1), 8);
  const obs::JsonValue *Statuses = Parsed->member("by_status");
  ASSERT_NE(Statuses, nullptr);
  EXPECT_EQ(Statuses->integerOr("ok", -1), 8);
}

//===----------------------------------------------------------------------===//
// Request-scoped telemetry: ids, flight recorder, flow events, bit-identity
//===----------------------------------------------------------------------===//

TEST(ServeFutureTest, DefaultConstructedFutureIsSafeToPoll) {
  // Regression: ready() used to dereference the null state. An empty
  // handle must poll as not-ready forever, never crash.
  serve::Future Empty;
  EXPECT_FALSE(Empty.valid());
  EXPECT_FALSE(Empty.ready());
  serve::Future Copy = Empty;
  EXPECT_FALSE(Copy.valid());
  EXPECT_FALSE(Copy.ready());
}

TEST(ServeEngineTest, RequestIdsAreUniqueAndCarriedOntoResponses) {
  TinyProblem P;
  serve::Engine::Options Opts;
  Opts.StartPaused = true;
  serve::Engine Engine(Opts);
  std::vector<serve::Future> Futures;
  for (int I = 0; I != 4; ++I)
    Futures.push_back(Engine.submit(P.request()));
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);

  std::set<uint64_t> Ids;
  for (serve::Future &F : Futures) {
    const serve::Response &Resp = F.wait();
    EXPECT_EQ(Resp.St, serve::Status::Ok);
    EXPECT_GT(Resp.Id, 0u) << "0 is reserved for engine-less responses";
    Ids.insert(Resp.Id);
  }
  EXPECT_EQ(Ids.size(), Futures.size());
}

TEST(ServeEngineTest, FlightRecorderRingWrapsWithoutCorruption) {
  TinyProblem P;
  serve::Engine::Options Opts;
  Opts.StartPaused = true;
  Opts.FlightRecorderSlots = 16; // Tiny on purpose: 12 requests x 4
                                 // lifecycle events wrap the ring twice.
  serve::Engine Engine(Opts);
  std::vector<serve::Future> Futures;
  for (int I = 0; I != 12; ++I) {
    serve::Request Req = P.request();
    Req.Tenant = (I % 2) ? "alpha" : "";
    Futures.push_back(Engine.submit(std::move(Req)));
  }
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);
  for (serve::Future &F : Futures)
    EXPECT_EQ(F.wait().St, serve::Status::Ok);

  std::string Dump = Engine.dumpFlightRecorder();
  std::string Error;
  std::optional<obs::JsonValue> Doc = obs::parseJson(Dump, &Error);
  ASSERT_TRUE(Doc.has_value()) << Error << ": " << Dump;

  const int64_t Capacity = Doc->integerOr("capacity", 0);
  EXPECT_EQ(Capacity, 16);
  // submit + coalesce + dispatch + complete, once per request.
  const int64_t Recorded = Doc->integerOr("recorded", 0);
  EXPECT_EQ(Recorded, 12 * 4);
  EXPECT_EQ(Doc->integerOr("dropped", -1), Recorded - Capacity);

  const obs::JsonValue *Events = Doc->member("events");
  ASSERT_TRUE(Events && Events->isArray());
  ASSERT_EQ(Events->array().size(), static_cast<size_t>(Capacity));
  // Survivors are exactly the newest ring-full, in sequence order, each
  // a well-formed lifecycle record.
  int64_t PrevSeq = -1;
  for (const obs::JsonValue &E : Events->array()) {
    const int64_t Seq = E.integerOr("seq", -1);
    EXPECT_GT(Seq, PrevSeq);
    EXPECT_GE(Seq, Recorded - Capacity);
    EXPECT_LT(Seq, Recorded);
    PrevSeq = Seq;
    EXPECT_GT(E.integerOr("request", 0), 0);
    const std::string Kind = E.stringOr("event", "");
    EXPECT_TRUE(Kind == "submit" || Kind == "coalesce" ||
                Kind == "dispatch" || Kind == "complete")
        << Kind;
    const std::string Tenant = E.stringOr("tenant", "?");
    EXPECT_TRUE(Tenant.empty() || Tenant == "alpha") << Tenant;
  }
}

TEST(ServeEngineTest, TraceFlowEventsLinkTheRequestLifecycle) {
  TinyProblem P;
  obs::Tracer::instance().disable();
  obs::Tracer::instance().reset();
  obs::Tracer::instance().enable();

  std::vector<uint64_t> Ids;
  {
    serve::Engine::Options Opts;
    Opts.StartPaused = true;
    serve::Engine Engine(Opts);
    serve::Future A = Engine.submit(P.request());
    serve::Future B = Engine.submit(P.request());
    Engine.shutdown(serve::Engine::ShutdownMode::Drain);
    EXPECT_EQ(A.wait().St, serve::Status::Ok);
    EXPECT_EQ(B.wait().St, serve::Status::Ok);
    Ids = {A.wait().Id, B.wait().Id};
  }
  obs::Tracer::instance().disable();
  std::string Trace = obs::Tracer::instance().chromeTraceJson();
  obs::Tracer::instance().reset();

  std::string Error;
  std::optional<obs::JsonValue> Doc = obs::parseJson(Trace, &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  const obs::JsonValue *Events = Doc->member("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());

  // Every request id must thread one flow chain through the trace:
  // a start at enqueue, at least one step, and a finish at the scan.
  std::map<int64_t, std::set<std::string>> PhasesById;
  for (const obs::JsonValue &E : Events->array()) {
    if (E.stringOr("cat", "") != "flow")
      continue;
    EXPECT_EQ(E.stringOr("name", ""), "serve.request");
    PhasesById[E.integerOr("id", -1)].insert(E.stringOr("ph", ""));
  }
  ASSERT_EQ(Ids.size(), 2u);
  EXPECT_NE(Ids[0], Ids[1]);
  for (uint64_t Id : Ids) {
    auto It = PhasesById.find(static_cast<int64_t>(Id));
    ASSERT_NE(It, PhasesById.end()) << "no flow events for request " << Id;
    EXPECT_TRUE(It->second.count("s")) << "missing flow start for " << Id;
    EXPECT_TRUE(It->second.count("t")) << "missing flow step for " << Id;
    EXPECT_TRUE(It->second.count("f")) << "missing flow finish for " << Id;
  }
}

TEST(ServeEngineTest, TelemetryOnOffIsBitIdentical) {
  MixedProblems P;
  TempPath Dir("servetest-telemetry");
  const std::string Base = Dir.str() + "/export";

  // One full pass over the problem set on every evaluator, with the
  // whole telemetry stack either off or on: tracing, flow events, the
  // labelled registry, the flight recorder and the exporter must change
  // nothing observable about the results.
  auto runAll = [&](bool Telemetry) {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().reset();
    std::optional<obs::MetricsExporter> Exporter;
    if (Telemetry) {
      obs::Tracer::instance().enable();
      obs::MetricsExporter::Options ExportOpts;
      ExportOpts.PromPath = Base + ".prom";
      ExportOpts.JsonlPath = Base + ".jsonl";
      Exporter.emplace(ExportOpts);
    }

    serve::Engine::Options Opts;
    Opts.Devices = 2;
    Opts.MaxBatch = 4;
    Opts.StartPaused = true;
    Opts.FlightRecorderSlots = Telemetry ? 32 : 1024;
    serve::Engine Engine(Opts);
    std::vector<serve::Future> Futures;
    for (exec::EvalKind Eval :
         {exec::EvalKind::Ast, exec::EvalKind::Vm, exec::EvalKind::Jit}) {
      for (size_t I = 0; I != P.size(); ++I) {
        serve::Request Req;
        Req.Fn = P.Fns[I];
        Req.Args = P.Args[I];
        Req.Options.Evaluator = Eval;
        if (Eval == exec::EvalKind::Jit)
          Req.Options.JitCacheDir = Base + "-jit";
        Req.Tenant = Telemetry ? "traced" : "plain";
        Futures.push_back(Engine.submit(std::move(Req)));
      }
    }
    if (Telemetry)
      Exporter->flushNow();
    Engine.shutdown(serve::Engine::ShutdownMode::Drain);
    std::vector<serve::Response> Out;
    for (serve::Future &F : Futures)
      Out.push_back(F.wait());
    if (Telemetry) {
      Exporter->stop();
      EXPECT_GE(Exporter->flushes(), 2u);
      EXPECT_FALSE(Engine.dumpFlightRecorder().empty());
      std::remove((Base + ".prom").c_str());
      std::remove((Base + ".jsonl").c_str());
    }
    obs::Tracer::instance().disable();
    obs::Tracer::instance().reset();
    return Out;
  };

  std::vector<serve::Response> Plain = runAll(/*Telemetry=*/false);
  std::vector<serve::Response> Traced = runAll(/*Telemetry=*/true);
  ASSERT_EQ(Plain.size(), Traced.size());
  for (size_t I = 0; I != Plain.size(); ++I) {
    ASSERT_EQ(Plain[I].St, serve::Status::Ok) << Plain[I].Error;
    ASSERT_EQ(Traced[I].St, serve::Status::Ok) << Traced[I].Error;
    expectIdentical(Plain[I].Result, Traced[I].Result);
  }
}

TEST(ServeWorkloadTest, ReportPercentilesAreHistogramBacked) {
  // The replay report now reads its percentiles off a log-bucketed
  // histogram instead of retaining and sorting every latency (the
  // bounded-error-vs-exact-sort law itself is proven against exact
  // sorts in ObsTest). Here: the percentiles a real replay reports are
  // ordered, positive and inside the observed latency range.
  serve::WorkloadSpec Spec;
  serve::TenantSpec Tenant;
  Tenant.Name = "t";
  Tenant.Kind = "forward";
  Tenant.Requests = 24;
  Tenant.MinLength = 16;
  Tenant.MaxLength = 32;
  Tenant.MeanGapTicks = 1;
  Tenant.Seed = 3;
  Spec.Tenants.push_back(Tenant);

  DiagnosticEngine Diags;
  auto Workload = serve::Workload::build(Spec, Diags);
  ASSERT_TRUE(Workload.has_value()) << Diags.str();
  serve::Engine::Options Opts;
  Opts.MaxBatch = 4;
  serve::Engine Engine(Opts);
  serve::ReplayReport Report = serve::replay(Engine, *Workload);

  ASSERT_EQ(Report.okCount(), 24u);
  EXPECT_GT(Report.P50Seconds, 0.0);
  EXPECT_LE(Report.P50Seconds, Report.P95Seconds);
  EXPECT_LE(Report.P95Seconds, Report.P99Seconds);
  EXPECT_LE(Report.P99Seconds, Report.WallSeconds);
  EXPECT_GT(Report.Throughput, 0.0);
}

TEST(ServeEngineTest, AutoDumpsFlightRecorderOnFirstDeadline) {
  TinyProblem P;
  TempPath Dir("servetest-autodump");
  const std::string Path = Dir.str() + "/dump.json";

  serve::Engine::Options Opts;
  Opts.StartPaused = true;
  Opts.FlightDumpPath = Path; // What ParRec_FLIGHT_DUMP defaults into.
  serve::Engine Engine(Opts);
  serve::Request Expiring = P.request();
  Expiring.DeadlineTick = 1;
  serve::Future Late = Engine.submit(std::move(Expiring));
  serve::Future Fine = Engine.submit(P.request());
  Engine.advanceTo(5);
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);
  EXPECT_EQ(Late.wait().St, serve::Status::Deadline);
  EXPECT_EQ(Fine.wait().St, serve::Status::Ok);

  // The first Deadline response wrote the post-mortem, exactly once.
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "no auto-dump at " << Path;
  std::stringstream Text;
  Text << In.rdbuf();
  std::string Error;
  std::optional<obs::JsonValue> Doc = obs::parseJson(Text.str(), &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  EXPECT_GT(Doc->integerOr("recorded", 0), 0);
  const obs::JsonValue *Events = Doc->member("events");
  ASSERT_TRUE(Events && Events->isArray());
  bool SawDeadline = false;
  for (const obs::JsonValue &E : Events->array())
    SawDeadline |= E.stringOr("status", "") == "deadline";
  EXPECT_TRUE(SawDeadline);
}

//===----------------------------------------------------------------------===//
// Pipelined dispatch: early completion, bit-identity, monotone events
//===----------------------------------------------------------------------===//

namespace {

/// Four same-shape Smith-Waterman problems — one coalesced batch.
struct SameShapeProblems {
  CompiledRecurrence Sw = compileOrDie(SwSource);
  std::deque<bio::Sequence> Seqs;
  std::vector<std::vector<ArgValue>> Args;

  explicit SameShapeProblems(size_t Count) {
    const bio::SubstitutionMatrix &Blosum =
        bio::SubstitutionMatrix::blosum62();
    Seqs.push_back(bio::randomSequence(bio::Alphabet::protein(), 32,
                                       /*Seed=*/0xBEE, "query"));
    const bio::Sequence *Query = &Seqs.back();
    for (size_t I = 0; I != Count; ++I) {
      Seqs.push_back(bio::randomSequence(bio::Alphabet::protein(), 24,
                                         200 + I,
                                         "s" + std::to_string(I)));
      Args.push_back({ArgValue::ofMatrix(&Blosum), ArgValue::ofSeq(Query),
                      ArgValue(), ArgValue::ofSeq(&Seqs.back()),
                      ArgValue()});
    }
  }
};

} // namespace

TEST(ServeEngineTest, PipelinedFuturesResolveBeforeBatchEnd) {
  SameShapeProblems P(4);

  // Oracle: direct runs on the same (saturated) cost model.
  gpu::CostModel Model;
  Model.NumMultiprocessors = 2; // 4 problems must share 2 MPs.
  gpu::Device Direct(Model);
  std::vector<RunResult> Expected;
  for (const auto &Args : P.Args) {
    DiagnosticEngine Diags;
    auto R = P.Sw.runGpu(Args, Direct, Diags);
    ASSERT_TRUE(R.has_value()) << Diags.str();
    Expected.push_back(std::move(*R));
  }

  serve::Engine::Options Opts;
  Opts.Model = Model;
  Opts.Devices = 1;
  Opts.MaxBatch = 4;
  Opts.StartPaused = true;
  Opts.Pipeline = true;
  // One worker executes members in submission order, so when problem 0's
  // future resolves the tail of the batch has not even started.
  Opts.BatchWorkersPerDevice = 1;
  serve::Engine Engine(Opts);

  std::vector<serve::Future> Futures(P.Args.size());
  std::atomic<int> LaterReady{-1};
  for (size_t I = 0; I != P.Args.size(); ++I) {
    serve::Request Req;
    Req.Fn = &P.Sw;
    Req.Args = P.Args[I];
    if (I == 0)
      Futures[I] = Engine.submit(
          std::move(Req), [&](const serve::Response &) {
            // Fires the moment problem 0's launch seals: the last batch
            // member must still be unresolved — the early-publication
            // win, observed from the outside.
            LaterReady = Futures.back().ready() ? 1 : 0;
          });
    else
      Futures[I] = Engine.submit(std::move(Req));
  }
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);

  std::vector<uint64_t> Completions;
  for (size_t I = 0; I != Futures.size(); ++I) {
    const serve::Response &Resp = Futures[I].wait();
    ASSERT_EQ(Resp.St, serve::Status::Ok) << Resp.Error;
    expectIdentical(Expected[I], Resp.Result);
    EXPECT_FALSE(Resp.Result.Timeline) << "planner timeline leaked";
    Completions.push_back(Resp.CompletionCycle);
  }
  EXPECT_EQ(LaterReady.load(), 0);

  // One batch ran, so the device's accumulated cycles are its makespan:
  // the earliest problem resolves strictly before batch end, the last
  // one exactly at it.
  serve::Engine::Stats Stats = Engine.stats();
  ASSERT_EQ(Stats.Batches, 1u);
  uint64_t BatchEnd = Stats.DeviceCycles[0];
  EXPECT_EQ(*std::max_element(Completions.begin(), Completions.end()),
            BatchEnd);
  EXPECT_LT(*std::min_element(Completions.begin(), Completions.end()),
            BatchEnd);
}

TEST(ServeEngineTest, PipelinedEngineMatchesBarrierEngineBitForBit) {
  SameShapeProblems P(8);

  auto RunEngine = [&](bool Pipeline) {
    serve::Engine::Options Opts;
    Opts.Devices = 1;
    Opts.MaxBatch = 4;
    Opts.StartPaused = true;
    Opts.Pipeline = Pipeline;
    serve::Engine Engine(Opts);
    std::vector<serve::Future> Futures;
    for (const auto &Args : P.Args) {
      serve::Request Req;
      Req.Fn = &P.Sw;
      Req.Args = Args;
      Futures.push_back(Engine.submit(std::move(Req)));
    }
    Engine.shutdown(serve::Engine::ShutdownMode::Drain);
    std::pair<std::vector<serve::Response>, std::string> Out;
    for (serve::Future &F : Futures) {
      EXPECT_EQ(F.wait().St, serve::Status::Ok);
      Out.first.push_back(F.wait());
    }
    Out.second = Engine.dumpFlightRecorder();
    return Out;
  };

  auto [Barrier, BarrierDump] = RunEngine(false);
  auto [Piped, PipedDump] = RunEngine(true);
  (void)BarrierDump;
  ASSERT_EQ(Barrier.size(), Piped.size());
  for (size_t I = 0; I != Barrier.size(); ++I) {
    expectIdentical(Barrier[I].Result, Piped[I].Result);
    // Barrier batches resolve everything at batch end; pipelined
    // completions never pass it.
    EXPECT_LE(Piped[I].CompletionCycle, Barrier[I].CompletionCycle);
    EXPECT_GT(Piped[I].CompletionCycle, 0u);
  }

  // The pipelined engine's early publication must keep the flight
  // recorder's complete events monotone in request id (one device,
  // batches in submission order, members published in order).
  std::string Error;
  std::optional<obs::JsonValue> Doc = obs::parseJson(PipedDump, &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  const obs::JsonValue *Events = Doc->member("events");
  ASSERT_TRUE(Events && Events->isArray());
  int64_t PrevId = 0;
  size_t Completes = 0;
  for (const obs::JsonValue &E : Events->array()) {
    if (E.stringOr("event", "") != "complete")
      continue;
    ++Completes;
    const int64_t Id = E.integerOr("request", -1);
    EXPECT_GT(Id, PrevId) << "complete events out of request order";
    PrevId = Id;
  }
  EXPECT_EQ(Completes, P.Args.size());
}

//===----------------------------------------------------------------------===//
// Fair queueing, continuous batching, memoization, device placement
//===----------------------------------------------------------------------===//

TEST(ServeEngineTest, PicksLeastLoadedDeviceByModelledCycles) {
  // One big Smith-Waterman problem followed by small ones, singleton
  // batches, two devices. Pure round robin would alternate and leave
  // device 0 the straggler; load-aware placement parks the big batch on
  // device 0 and routes every small one to device 1 until the modelled
  // backlogs even out.
  CompiledRecurrence Sw = compileOrDie(SwSource);
  const bio::SubstitutionMatrix &Blosum = bio::SubstitutionMatrix::blosum62();
  std::deque<bio::Sequence> Seqs;
  Seqs.push_back(bio::randomSequence(bio::Alphabet::protein(), 32,
                                     /*Seed=*/0xD0E, "query"));
  const bio::Sequence *Query = &Seqs.back();
  auto requestWithSubject = [&](int64_t Length, uint64_t Seed) {
    Seqs.push_back(bio::randomSequence(bio::Alphabet::protein(), Length,
                                       Seed, "s"));
    serve::Request Req;
    Req.Fn = &Sw;
    Req.Args = {ArgValue::ofMatrix(&Blosum), ArgValue::ofSeq(Query),
                ArgValue(), ArgValue::ofSeq(&Seqs.back()), ArgValue()};
    return Req;
  };

  serve::Engine::Options Opts;
  Opts.Devices = 2;
  Opts.MaxBatch = 1;
  Opts.StartPaused = true;
  serve::Engine Engine(Opts);

  // 33x65 = 2145 modelled cells; each small one is 33x5 = 165. Four
  // smalls never catch up, so all of them belong on device 1.
  serve::Future Big = Engine.submit(requestWithSubject(64, 900));
  std::vector<serve::Future> Smalls;
  for (int I = 0; I != 4; ++I)
    Smalls.push_back(Engine.submit(requestWithSubject(4, 901 + I)));
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);

  ASSERT_EQ(Big.wait().St, serve::Status::Ok) << Big.wait().Error;
  EXPECT_EQ(Big.wait().Device, 0u);
  for (serve::Future &F : Smalls) {
    ASSERT_EQ(F.wait().St, serve::Status::Ok) << F.wait().Error;
    EXPECT_EQ(F.wait().Device, 1u);
  }
  serve::Engine::Stats Stats = Engine.stats();
  ASSERT_EQ(Stats.DeviceRequests.size(), 2u);
  EXPECT_EQ(Stats.DeviceRequests[0], 1u);
  EXPECT_EQ(Stats.DeviceRequests[1], 4u);
}

TEST(ServeEngineTest, WeightedTenantsDispatchInDeficitRoundRobinOrder) {
  TinyProblem P;
  serve::Engine::Options Opts;
  Opts.Devices = 1;
  Opts.MaxBatch = 1; // Singleton batches: dispatch order == pop order.
  Opts.StartPaused = true;
  Opts.TenantWeights = {{"heavy", 10}, {"light", 1}};
  serve::Engine Engine(Opts);

  // 20 + 20 requests interleaved at submission; the schedule must come
  // out in DRR order regardless: bursts of 10 heavy, one light.
  std::vector<serve::Future> Heavy, Light;
  for (int I = 0; I != 20; ++I) {
    serve::Request H = P.request();
    H.Tenant = "heavy";
    Heavy.push_back(Engine.submit(std::move(H)));
    serve::Request L = P.request();
    L.Tenant = "light";
    Light.push_back(Engine.submit(std::move(L)));
  }
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);

  // (CompletionSeq, isHeavy), sorted by completion order.
  std::vector<std::pair<uint64_t, bool>> Order;
  for (serve::Future &F : Heavy) {
    ASSERT_EQ(F.wait().St, serve::Status::Ok) << F.wait().Error;
    Order.push_back({F.wait().CompletionSeq, true});
  }
  for (serve::Future &F : Light) {
    ASSERT_EQ(F.wait().St, serve::Status::Ok) << F.wait().Error;
    Order.push_back({F.wait().CompletionSeq, false});
  }
  std::sort(Order.begin(), Order.end());

  auto heavyIn = [&](size_t First) {
    size_t N = 0;
    for (size_t I = 0; I != First && I != Order.size(); ++I)
      N += Order[I].second;
    return N;
  };
  // First 11 dispatches: a full heavy quantum then one light; first 22:
  // two rounds. After heavy drains, light gets the device to itself.
  EXPECT_EQ(heavyIn(11), 10u);
  EXPECT_EQ(heavyIn(22), 20u);
  EXPECT_EQ(heavyIn(Order.size()), 20u);
}

TEST(ServeEngineTest, ContinuousBatchAdmitsLateArrivalsIntoQueuedBatch) {
  // A plug request blocks the only device inside its completion
  // callback; a seed batch of a different shape queues behind it; late
  // arrivals with the seed's exact PlanKey must join that queued batch
  // instead of opening new ones.
  SameShapeProblems Plug(1);
  TinyProblem P;

  gpu::Device Direct;
  DiagnosticEngine Diags;
  auto Expected = P.Forward.runGpu(
      {ArgValue::ofHmm(&P.Genes), ArgValue(), ArgValue::ofSeq(&P.X),
       ArgValue()},
      Direct, Diags);
  ASSERT_TRUE(Expected.has_value()) << Diags.str();

  serve::Engine::Options Opts;
  Opts.Devices = 1;
  Opts.MaxBatch = 8;
  Opts.LingerTicks = 0;
  Opts.ContinuousBatch = true;
  serve::Engine Engine(Opts);

  std::mutex Mutex;
  std::condition_variable Cv;
  bool PlugDone = false, Released = false;
  serve::Request PlugReq;
  PlugReq.Fn = &Plug.Sw;
  PlugReq.Args = Plug.Args[0];
  serve::Future PlugF =
      Engine.submit(std::move(PlugReq), [&](const serve::Response &) {
        std::unique_lock<std::mutex> Lock(Mutex);
        PlugDone = true;
        Cv.notify_all();
        Cv.wait(Lock, [&] { return Released; });
      });
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Cv.wait(Lock, [&] { return PlugDone; });
  }

  // Device held. Seed the queued batch, wait until the coalescer has
  // formed it, then trickle in the stragglers.
  std::vector<serve::Future> Members;
  Members.push_back(Engine.submit(P.request()));
  auto waitFor = [&](auto Done) {
    for (int Spin = 0; Spin != 2000 && !Done(); ++Spin)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return Done();
  };
  ASSERT_TRUE(waitFor([&] { return Engine.stats().Batches == 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int I = 0; I != 3; ++I)
    Members.push_back(Engine.submit(P.request()));
  ASSERT_TRUE(waitFor([&] { return Engine.stats().ContinuousJoins == 3; }));

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Released = true;
  }
  Cv.notify_all();
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);

  EXPECT_EQ(PlugF.wait().St, serve::Status::Ok);
  const serve::Response &Seed = Members.front().wait();
  ASSERT_EQ(Seed.St, serve::Status::Ok) << Seed.Error;
  for (serve::Future &F : Members) {
    const serve::Response &R = F.wait();
    ASSERT_EQ(R.St, serve::Status::Ok) << R.Error;
    expectIdentical(*Expected, R.Result);
    EXPECT_EQ(R.BatchId, Seed.BatchId) << "late arrival opened a new batch";
    EXPECT_EQ(R.BatchSize, 4u);
  }
  serve::Engine::Stats Stats = Engine.stats();
  EXPECT_EQ(Stats.Batches, 2u);
  EXPECT_EQ(Stats.ContinuousJoins, 3u);
  EXPECT_EQ(Stats.Completed, 5u);
}

TEST(ServeEngineTest, MemoizedRepeatsAreBitIdenticalAndSkipExecution) {
  TinyProblem P;
  serve::Engine::Options Opts;
  Opts.Memo = std::make_shared<serve::MemoCache>(8);
  serve::Engine Engine(Opts);

  const serve::Response First = Engine.submit(P.request()).wait();
  ASSERT_EQ(First.St, serve::Status::Ok) << First.Error;
  EXPECT_FALSE(First.Memoized);

  // The repeat resolves from the cache: bit-identical payload, honest
  // modelled completion, no device and no queueing.
  const serve::Response Repeat = Engine.submit(P.request()).wait();
  ASSERT_EQ(Repeat.St, serve::Status::Ok) << Repeat.Error;
  EXPECT_TRUE(Repeat.Memoized);
  expectIdentical(First.Result, Repeat.Result);
  EXPECT_EQ(Repeat.CompletionCycle, First.CompletionCycle);
  EXPECT_EQ(Repeat.BatchId, 0u);
  EXPECT_EQ(Repeat.BatchSize, 0u);

  // A request that keeps its table carries run-scoped payload and must
  // never be memoized — in either direction.
  serve::Request Kept = P.request();
  Kept.Options.KeepTable = true;
  const serve::Response KeptResp = Engine.submit(std::move(Kept)).wait();
  ASSERT_EQ(KeptResp.St, serve::Status::Ok) << KeptResp.Error;
  EXPECT_FALSE(KeptResp.Memoized);
  ASSERT_TRUE(KeptResp.Result.Table != nullptr);

  serve::Request KeptAgain = P.request();
  KeptAgain.Options.KeepTable = true;
  EXPECT_FALSE(Engine.submit(std::move(KeptAgain)).wait().Memoized);

  Engine.shutdown(serve::Engine::ShutdownMode::Drain);
  serve::Engine::Stats Stats = Engine.stats();
  EXPECT_EQ(Stats.MemoHits, 1u);
  uint64_t DeviceRequests = 0;
  for (uint64_t N : Stats.DeviceRequests)
    DeviceRequests += N;
  EXPECT_EQ(DeviceRequests, 3u) << "memo hit must not reach a device";
}

TEST(ServeEngineTest, AbortDuringPipelinedFlightResolvesEachExactlyOnce) {
  // Abort while a pipelined batch is mid-execution: the in-flight batch
  // finishes (Ok), everything undispatched resolves as Aborted, every
  // future resolves exactly once, and the flight recorder's complete
  // events for the executed batch stay monotone in request id.
  SameShapeProblems P(4);
  TinyProblem Tail;

  serve::Engine::Options Opts;
  Opts.Devices = 1;
  Opts.MaxBatch = 4;
  Opts.StartPaused = true;
  Opts.Pipeline = true;
  Opts.BatchWorkersPerDevice = 1;
  serve::Engine Engine(Opts);

  std::mutex Mutex;
  std::condition_variable Cv;
  bool InFlight = false, Released = false;
  std::vector<std::unique_ptr<std::atomic<int>>> Fired;
  auto countingCallback = [&](bool Blocks) {
    Fired.push_back(std::make_unique<std::atomic<int>>(0));
    std::atomic<int> *Count = Fired.back().get();
    return [&, Count, Blocks](const serve::Response &) {
      ++*Count;
      if (!Blocks)
        return;
      std::unique_lock<std::mutex> Lock(Mutex);
      InFlight = true;
      Cv.notify_all();
      Cv.wait(Lock, [&] { return Released; });
    };
  };

  std::vector<serve::Future> Batch, Queued;
  for (size_t I = 0; I != P.Args.size(); ++I) {
    serve::Request Req;
    Req.Fn = &P.Sw;
    Req.Args = P.Args[I];
    Batch.push_back(Engine.submit(std::move(Req), countingCallback(I == 0)));
  }
  for (int I = 0; I != 2; ++I)
    Queued.push_back(Engine.submit(Tail.request(), countingCallback(false)));
  Engine.resume();
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Cv.wait(Lock, [&] { return InFlight; });
  }
  // Device wedged inside batch 1. Fire the abort concurrently; it must
  // flush what it can and then wait out the in-flight batch.
  std::thread Aborter([&] {
    Engine.shutdown(serve::Engine::ShutdownMode::Abort);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Released = true;
  }
  Cv.notify_all();
  Aborter.join();

  for (serve::Future &F : Batch) {
    ASSERT_TRUE(F.ready());
    EXPECT_EQ(F.wait().St, serve::Status::Ok) << F.wait().Error;
  }
  for (serve::Future &F : Queued) {
    ASSERT_TRUE(F.ready());
    const serve::Response &R = F.wait();
    EXPECT_TRUE(R.St == serve::Status::Ok || R.St == serve::Status::Aborted);
  }
  for (const auto &Count : Fired)
    EXPECT_EQ(Count->load(), 1) << "a future resolved twice (or never)";
  serve::Engine::Stats Stats = Engine.stats();
  EXPECT_EQ(Stats.Completed + Stats.Aborted, 6u);
  EXPECT_GE(Stats.Completed, 4u);

  // Exactly one terminal flight event per request, monotone ids within
  // the executed pipelined batch.
  std::string Error;
  std::optional<obs::JsonValue> Doc =
      obs::parseJson(Engine.dumpFlightRecorder(), &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  const obs::JsonValue *Events = Doc->member("events");
  ASSERT_TRUE(Events && Events->isArray());
  std::set<int64_t> CompletedIds;
  int64_t PrevBatchId = 0;
  for (const obs::JsonValue &E : Events->array()) {
    if (E.stringOr("event", "") != "complete")
      continue;
    const int64_t Id = E.integerOr("request", -1);
    EXPECT_TRUE(CompletedIds.insert(Id).second)
        << "request " << Id << " completed twice";
    if (E.stringOr("status", "") == "ok" && Id <= 4) {
      EXPECT_GT(Id, PrevBatchId) << "pipelined completes out of order";
      PrevBatchId = Id;
    }
  }
  EXPECT_EQ(CompletedIds.size(), 6u);
}

TEST(ServeWorkloadTest, ReplayReportsPerTenantLatencyPercentiles) {
  serve::WorkloadSpec Spec;
  for (const char *Name : {"gold", "bronze"}) {
    serve::TenantSpec Tenant;
    Tenant.Name = Name;
    Tenant.Kind = "forward";
    Tenant.Requests = Name[0] == 'g' ? 12u : 8u;
    Tenant.MinLength = 16;
    Tenant.MaxLength = 24;
    Tenant.MeanGapTicks = 1;
    Tenant.Weight = Name[0] == 'g' ? 4 : 1;
    Tenant.Seed = Name[0];
    Spec.Tenants.push_back(Tenant);
  }

  DiagnosticEngine Diags;
  auto Workload = serve::Workload::build(Spec, Diags);
  ASSERT_TRUE(Workload.has_value()) << Diags.str();
  serve::Engine::Options Opts;
  Opts.MaxBatch = 4;
  Opts.TenantWeights = Spec.tenantWeights();
  serve::Engine Engine(Opts);
  serve::ReplayReport Report = serve::replay(Engine, *Workload);

  ASSERT_EQ(Report.okCount(), 20u);
  ASSERT_EQ(Report.ByTenant.size(), 2u);
  ASSERT_TRUE(Report.ByTenant.count("gold"));
  ASSERT_TRUE(Report.ByTenant.count("bronze"));
  EXPECT_EQ(Report.ByTenant["gold"].Ok, 12u);
  EXPECT_EQ(Report.ByTenant["bronze"].Ok, 8u);
  for (auto &[Name, T] : Report.ByTenant) {
    EXPECT_GT(T.P50Seconds, 0.0) << Name;
    EXPECT_LE(T.P50Seconds, T.P95Seconds) << Name;
    EXPECT_LE(T.P95Seconds, T.P99Seconds) << Name;
  }

  // The JSON snapshot carries the same per-tenant block (what
  // serve --stats-out persists).
  std::string Error;
  auto Parsed = obs::parseJson(Report.json(), &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  const obs::JsonValue *Tenants = Parsed->member("tenants");
  ASSERT_TRUE(Tenants != nullptr);
  for (const char *Name : {"gold", "bronze"}) {
    const obs::JsonValue *T = Tenants->member(Name);
    ASSERT_TRUE(T != nullptr) << Name;
    const obs::JsonValue *Latency = T->member("latency_seconds");
    ASSERT_TRUE(Latency != nullptr) << Name;
    EXPECT_GT(Latency->numberOr("p99", 0.0), 0.0) << Name;
  }
}

TEST(ServeEngineTest, ResponsesKeepTimelinesOnlyWhenTheyAskUnderTracer) {
  // One batch mixing requests with and without Trace, under both
  // dispatch policies, with the global tracer on: the tracer's timelines
  // feed device slices, but a response carries one only when its own
  // request set Trace.
  SameShapeProblems P(4);
  obs::Tracer::instance().disable();
  obs::Tracer::instance().reset();
  obs::Tracer::instance().enable();
  std::vector<std::string> Failures;
  for (bool Pipeline : {false, true}) {
    serve::Engine::Options Opts;
    Opts.Devices = 1;
    Opts.MaxBatch = 4;
    Opts.StartPaused = true;
    Opts.Pipeline = Pipeline;
    serve::Engine Engine(Opts);
    std::vector<serve::Future> Futures;
    for (size_t I = 0; I != P.Args.size(); ++I) {
      serve::Request Req;
      Req.Fn = &P.Sw;
      Req.Args = P.Args[I];
      Req.Options.Trace = I % 2 == 1;
      Futures.push_back(Engine.submit(std::move(Req)));
    }
    Engine.shutdown(serve::Engine::ShutdownMode::Drain);
    std::string Config = "pipeline=" + std::to_string(Pipeline);
    if (Engine.stats().Batches != 1)
      Failures.push_back(Config + ": requests did not share one batch");
    for (size_t I = 0; I != Futures.size(); ++I) {
      const serve::Response Resp = Futures[I].wait();
      bool Asked = I % 2 == 1;
      if (Resp.St != serve::Status::Ok)
        Failures.push_back(Config + ": " + Resp.Error);
      else if ((Resp.Result.Timeline != nullptr) != Asked)
        Failures.push_back(Config + ": request " + std::to_string(I) +
                           (Asked ? " lost" : " leaked") + " its timeline");
    }
  }
  bool Slices = !obs::Tracer::instance().deviceSlices().empty();
  obs::Tracer::instance().disable();
  obs::Tracer::instance().reset();
  EXPECT_TRUE(Slices) << "no device slices emitted";
  for (const std::string &F : Failures)
    ADD_FAILURE() << F;
}

//===----------------------------------------------------------------------===//
// Per-key linger windows, lane priority and Abort
//===----------------------------------------------------------------------===//

namespace {

/// Polls \p Done for up to two seconds: a broken engine fails the test
/// instead of hanging it.
template <typename Pred> bool waitUntil(Pred Done) {
  for (int Spin = 0; Spin != 2000 && !Done(); ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return Done();
}

serve::Request requestFor(const MixedProblems &P, size_t I) {
  serve::Request Req;
  Req.Fn = P.Fns[I];
  Req.Args = P.Args[I];
  return Req;
}

} // namespace

TEST(ServeEngineTest, LingerWindowsArePerPlanKey) {
  // Key A's window covers ticks 0-10. Key B arrives at tick 5 and must
  // open its own window (ticks 5-15) at once, not wait in the queue
  // until A's closes.
  MixedProblems P;
  serve::Engine::Options Opts;
  Opts.LingerTicks = 10;
  serve::Engine Engine(Opts);

  serve::Future A = Engine.submit(requestFor(P, 0));
  ASSERT_TRUE(waitUntil([&] { return Engine.queueDepth() == 0; }));
  Engine.advanceTo(5);
  serve::Future B = Engine.submit(requestFor(P, P.size() - 1));
  ASSERT_TRUE(waitUntil([&] { return Engine.queueDepth() == 0; }))
      << "key B waited in the queue behind key A's window";

  Engine.advanceTo(11);
  ASSERT_TRUE(waitUntil([&] { return A.ready(); }));
  EXPECT_FALSE(B.ready()) << "key B's window closed with key A's";
  Engine.advanceTo(16);
  ASSERT_TRUE(waitUntil([&] { return B.ready(); }));
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);

  ASSERT_EQ(A.wait().St, serve::Status::Ok) << A.wait().Error;
  ASSERT_EQ(B.wait().St, serve::Status::Ok) << B.wait().Error;
  EXPECT_EQ(B.wait().BatchSize, 1u);
  EXPECT_NE(A.wait().BatchId, B.wait().BatchId);
  EXPECT_EQ(Engine.stats().Batches, 2u);
}

TEST(ServeEngineTest, DeviceRunsHigherPriorityBatchFirst) {
  // A plug wedges the only device inside its completion callback. A
  // priority-0 batch queues behind it, then a priority-1 batch of
  // another key: once the plug is released, the later, higher-priority
  // batch runs first.
  MixedProblems P;
  serve::Engine::Options Opts;
  Opts.Devices = 1;
  Opts.LingerTicks = 0;
  serve::Engine Engine(Opts);

  std::mutex Mutex;
  std::condition_variable Cv;
  bool PlugDone = false, Released = false;
  serve::Future PlugF =
      Engine.submit(requestFor(P, 0), [&](const serve::Response &) {
        std::unique_lock<std::mutex> Lock(Mutex);
        PlugDone = true;
        Cv.notify_all();
        Cv.wait(Lock, [&] { return Released; });
      });
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Cv.wait(Lock, [&] { return PlugDone; });
  }

  serve::Request LowReq = requestFor(P, 1);
  LowReq.Priority = 0;
  serve::Future Low = Engine.submit(std::move(LowReq));
  ASSERT_TRUE(waitUntil([&] { return Engine.stats().Batches == 2; }));
  serve::Request HighReq = requestFor(P, P.size() - 1);
  HighReq.Priority = 1;
  serve::Future High = Engine.submit(std::move(HighReq));
  ASSERT_TRUE(waitUntil([&] { return Engine.stats().Batches == 3; }));
  // A batch is counted just before it is planned and pushed to its lane.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Released = true;
  }
  Cv.notify_all();
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);

  EXPECT_EQ(PlugF.wait().St, serve::Status::Ok);
  ASSERT_EQ(Low.wait().St, serve::Status::Ok) << Low.wait().Error;
  ASSERT_EQ(High.wait().St, serve::Status::Ok) << High.wait().Error;
  EXPECT_LT(High.wait().CompletionSeq, Low.wait().CompletionSeq);
}

TEST(ServeEngineTest, AbortResolvesOpenLingerWindowsAsAborted) {
  // Two keys, two open windows far from closing: Abort resolves both as
  // Aborted and dispatches neither.
  MixedProblems P;
  serve::Engine::Options Opts;
  Opts.LingerTicks = 1000;
  serve::Engine Engine(Opts);

  serve::Future A = Engine.submit(requestFor(P, 0));
  serve::Future B = Engine.submit(requestFor(P, P.size() - 1));
  ASSERT_TRUE(waitUntil([&] { return Engine.queueDepth() == 0; }))
      << "the requests never left the queue for their windows";
  Engine.shutdown(serve::Engine::ShutdownMode::Abort);

  EXPECT_EQ(A.wait().St, serve::Status::Aborted);
  EXPECT_EQ(B.wait().St, serve::Status::Aborted);
  serve::Engine::Stats Stats = Engine.stats();
  EXPECT_EQ(Stats.Batches, 0u);
  EXPECT_EQ(Stats.Completed, 0u);
  EXPECT_EQ(Stats.Aborted, 2u);
}

//===----------------------------------------------------------------------===//
// Tier-up: VM keys move to the JIT in the background
//===----------------------------------------------------------------------===//

namespace {

/// Sets $CC for one test and restores it afterwards. The tier-up worker
/// reads it, so a test sets it before its engine starts and restores it
/// once the engine has shut down.
class ScopedCc {
public:
  explicit ScopedCc(const std::string &Cc) {
    if (const char *Old = std::getenv("CC"))
      Saved = Old;
    ::setenv("CC", Cc.c_str(), 1);
  }
  ~ScopedCc() {
    if (Saved)
      ::setenv("CC", Saved->c_str(), 1);
    else
      ::unsetenv("CC");
  }
  ScopedCc(const ScopedCc &) = delete;
  ScopedCc &operator=(const ScopedCc &) = delete;

private:
  std::optional<std::string> Saved;
};

/// A slow host compiler in \p Dir: a script that creates Dir/started,
/// sleeps \p Seconds and then runs cc. On x86-64 a kernel with a lanes
/// entry compiles in parallel parts and a link, so its compile takes at
/// least twice \p Seconds there.
std::string slowCompiler(const std::string &Dir, int Seconds) {
  std::string Path = Dir + "/slow-cc";
  std::ofstream(Path) << "#!/bin/sh\ntouch '" << Dir << "/started'\nsleep "
                      << Seconds << "\nexec cc \"$@\"\n";
  std::filesystem::permissions(Path, std::filesystem::perms::owner_all);
  return Path;
}

/// Polls \p Done for up to a minute: a kernel compile under a sanitizer
/// takes seconds.
template <typename Pred> bool waitLong(Pred Done) {
  for (int Spin = 0; Spin != 6000 && !Done(); ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  return Done();
}

/// The kernels compiled into \p Dir.
unsigned kernelsIn(const std::string &Dir) {
  unsigned Kernels = 0;
  std::error_code Ec;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, Ec))
    Kernels += Entry.path().extension() == ".so";
  return Kernels;
}

/// The args of every serve.tier_up span the tracer recorded, which the
/// caller enabled; disables and resets the tracer.
std::vector<obs::JsonValue> tierUpSpans() {
  obs::Tracer::instance().disable();
  std::string Trace = obs::Tracer::instance().chromeTraceJson();
  obs::Tracer::instance().reset();
  std::vector<obs::JsonValue> Args;
  std::optional<obs::JsonValue> Doc = obs::parseJson(Trace, nullptr);
  const obs::JsonValue *Events = Doc ? Doc->member("traceEvents") : nullptr;
  if (!Events || !Events->isArray())
    return Args;
  for (const obs::JsonValue &E : Events->array())
    if (E.stringOr("name", "") == "serve.tier_up" && E.member("args"))
      Args.push_back(*E.member("args"));
  return Args;
}

uint64_t jitFallbacks() {
  return obs::MetricsRegistry::global().snapshot().counter("jit.fallbacks");
}

/// The number and the sum of the exec.scan_workers samples so far.
std::pair<uint64_t, double> scanWorkerSamples() {
  obs::MetricsSnapshot S = obs::MetricsRegistry::global().snapshot();
  auto It = S.Distributions.find("exec.scan_workers");
  if (It == S.Distributions.end())
    return {0, 0.0};
  return {It->second.Count, It->second.Sum};
}

/// One Smith-Waterman problem of MixedProblems (indices 0-5, three
/// boxes of one kernel key), with its kernels cached in \p CacheDir.
serve::Request swRequest(const MixedProblems &P, size_t I,
                         const std::string &CacheDir) {
  serve::Request Req;
  Req.Fn = P.Fns[I % 6];
  Req.Args = P.Args[I % 6];
  Req.Options.JitCacheDir = CacheDir;
  return Req;
}

} // namespace

TEST(ServeTierUpTest, RunsOnTheVmWhileTheKernelCompilesThenOnTheJit) {
  TempPath Dir("serve-tierup-slow");
  const std::string Cache = Dir.str() + "/jit";
  ScopedCc Cc(slowCompiler(Dir.str(), 1));
  MixedProblems P;
  obs::Tracer::instance().reset();
  obs::Tracer::instance().enable();
  serve::Engine::Options Opts;
  Opts.MaxBatch = 1;
  serve::Engine Engine(Opts);
  auto Serve = [&](size_t I) {
    return Engine.submit(swRequest(P, I, Cache)).wait();
  };

  // The key's first TierUpBatches batches run on the VM, and the last of
  // them starts the compile.
  std::vector<RunResult> OnVm(6);
  for (uint64_t I = 0; I != serve::Engine::TierUpBatches; ++I) {
    serve::Response R = Serve(I);
    ASSERT_EQ(R.St, serve::Status::Ok) << R.Error;
    EXPECT_EQ(R.Result.Evaluator, "vm") << "batch " << I;
    OnVm[I % 6] = R.Result;
  }
  ASSERT_TRUE(waitLong([&] {
    return std::filesystem::exists(Dir.str() + "/started");
  })) << "the compile never started";

  // The compiler sleeps: requests keep completing, on the VM.
  for (size_t I = 0; I != 4; ++I) {
    serve::Response R = Serve(I);
    ASSERT_EQ(R.St, serve::Status::Ok) << R.Error;
    EXPECT_EQ(R.Result.Evaluator, "vm") << "request " << I;
  }

  // Once the kernel is loaded, the key runs on the JIT, with every
  // result and modelled cycle of the VM.
  size_t Next = 0;
  ASSERT_TRUE(waitLong([&] {
    return Serve(Next++).Result.Evaluator == "jit";
  })) << "the key never reached the JIT";
  for (size_t I = 0; I != 6; ++I) {
    serve::Response R = Serve(I);
    ASSERT_EQ(R.St, serve::Status::Ok) << R.Error;
    EXPECT_EQ(R.Result.Evaluator, "jit") << "problem " << I;
    expectIdentical(OnVm[I], R.Result);
  }
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);
  // Three boxes, one kernel.
  EXPECT_EQ(kernelsIn(Cache), 1u);
  // One tier-up, which compiled, taking at least the compiler's sleep.
  std::vector<obs::JsonValue> Spans = tierUpSpans();
  ASSERT_EQ(Spans.size(), 1u);
  EXPECT_EQ(Spans[0].stringOr("function", ""), "sw");
  EXPECT_EQ(Spans[0].stringOr("outcome", ""), "compiled");
  EXPECT_FALSE(Spans[0].stringOr("schedule", "").empty());
  EXPECT_GE(Spans[0].numberOr("compile_ms", 0.0), 1000.0);
}

TEST(ServeTierUpTest, ScansAreSerialWhileTheCompilerRuns) {
  TempPath Dir("serve-tierup-serial");
  const std::string Cache = Dir.str() + "/jit";
  ScopedCc Cc(slowCompiler(Dir.str(), 1));
  MixedProblems P;
  serve::Engine::Options Opts;
  Opts.MaxBatch = 1;
  serve::Engine Engine(Opts);
  // Problem 5 (33 x 37 cells) is large enough for the default scan
  // workers to split it. Returns the workers its scan ran on.
  auto ScanWorkers = [&] {
    auto [Count, Sum] = scanWorkerSamples();
    serve::Response R = Engine.submit(swRequest(P, 5, Cache)).wait();
    EXPECT_EQ(R.St, serve::Status::Ok) << R.Error;
    auto [CountAfter, SumAfter] = scanWorkerSamples();
    EXPECT_EQ(CountAfter, Count + 1);
    return SumAfter - Sum;
  };

  // Before the compile, the scan takes every worker of the host budget.
  const double Before = ScanWorkers();
  if (exec::hostWorkerBudget() > 1) {
    EXPECT_GT(Before, 1.0);
  }
  for (uint64_t I = 1; I != serve::Engine::TierUpBatches; ++I)
    ScanWorkers();
  ASSERT_TRUE(waitLong([&] {
    return std::filesystem::exists(Dir.str() + "/started");
  })) << "the compile never started";

  // The compiler sleeps for a second, then compiles: scans are serial.
  EXPECT_TRUE(codegen::compilerRunning());
  for (int I = 0; I != 3; ++I)
    EXPECT_EQ(ScanWorkers(), 1.0) << "request " << I;

  // Once the compile is over, the kernel's scans split again.
  ASSERT_TRUE(waitLong([&] { return !codegen::compilerRunning(); }));
  EXPECT_EQ(ScanWorkers(), Before);
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);
  EXPECT_EQ(kernelsIn(Cache), 1u);
}

TEST(ServeTierUpTest, NoDeadlineIsLostToACompile) {
  TempPath Dir("serve-tierup-deadline");
  const std::string Cache = Dir.str() + "/jit";
  ScopedCc Cc(slowCompiler(Dir.str(), 2));
  MixedProblems P;
  serve::Engine::Options Opts;
  Opts.MaxBatch = 1;
  serve::Engine Engine(Opts);
  for (uint64_t I = 0; I != serve::Engine::TierUpBatches; ++I)
    ASSERT_EQ(Engine.submit(swRequest(P, I, Cache)).wait().St,
              serve::Status::Ok);
  ASSERT_TRUE(waitLong([&] {
    return std::filesystem::exists(Dir.str() + "/started");
  })) << "the compile never started";

  // An interactive request with a 50-tick deadline, while the clock
  // moves a tick a millisecond: a coalescer that waited on the
  // compiler (two seconds or more) would shed it.
  serve::Request Interactive = swRequest(P, 0, Cache);
  Interactive.Priority = 1;
  Interactive.DeadlineTick = Engine.now() + 50;
  serve::Future F = Engine.submit(std::move(Interactive));
  const uint64_t Start = Engine.now();
  for (uint64_t Tick = Start; !F.ready() && Tick != Start + 60000; ++Tick) {
    Engine.advanceTo(Tick);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(F.ready()) << "the request never resolved";
  const serve::Response &R = F.wait();
  ASSERT_EQ(R.St, serve::Status::Ok) << R.Error;
  EXPECT_EQ(R.Result.Evaluator, "vm") << "it did not run during the compile";
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);
  EXPECT_EQ(Engine.stats().DeadlineShed, 0u);
}

TEST(ServeTierUpTest, ShutdownWaitsForTheCompileInDrainAndAbort) {
  for (serve::Engine::ShutdownMode Mode :
       {serve::Engine::ShutdownMode::Drain,
        serve::Engine::ShutdownMode::Abort}) {
    TempPath Dir("serve-tierup-shutdown");
    const std::string Cache = Dir.str() + "/jit";
    ScopedCc Cc(slowCompiler(Dir.str(), 1));
    MixedProblems P;
    serve::Engine::Options Opts;
    Opts.MaxBatch = 1;
    serve::Engine Engine(Opts);
    for (uint64_t I = 0; I != serve::Engine::TierUpBatches; ++I)
      ASSERT_EQ(Engine.submit(swRequest(P, I, Cache)).wait().St,
                serve::Status::Ok);
    ASSERT_TRUE(waitLong([&] {
      return std::filesystem::exists(Dir.str() + "/started");
    })) << "the compile never started";

    Engine.shutdown(Mode);
    // The compile finished and every compiler process was reaped.
    EXPECT_EQ(kernelsIn(Cache), 1u);
    int Status = 0;
    errno = 0;
    EXPECT_EQ(::waitpid(-1, &Status, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD) << "a child process outlived shutdown";
  }
}

TEST(ServeTierUpTest, OnlyVmKeysTierUpAndOnlyAfterTierUpBatches) {
  TempPath Dir("serve-tierup-vm");
  MixedProblems P;
  serve::Engine::Options Opts;
  Opts.MaxBatch = 1;
  auto ServeAll = [&](const std::string &Cache, exec::EvalKind Eval,
                      uint64_t Batches) {
    serve::Engine Engine(Opts);
    std::vector<std::string> Evaluators;
    for (uint64_t I = 0; I != Batches; ++I) {
      serve::Request Req = swRequest(P, I, Cache);
      Req.Options.Evaluator = Eval;
      serve::Response R = Engine.submit(std::move(Req)).wait();
      EXPECT_EQ(R.St, serve::Status::Ok) << R.Error;
      Evaluators.emplace_back(R.Result.Evaluator);
    }
    Engine.shutdown(serve::Engine::ShutdownMode::Drain);
    return Evaluators;
  };
  const uint64_t K = serve::Engine::TierUpBatches;

  // A key that has run K - 1 batches never started a compile.
  std::string Cold = Dir.str() + "/vm";
  for (const std::string &E : ServeAll(Cold, exec::EvalKind::Vm, K - 1))
    EXPECT_EQ(E, "vm");
  EXPECT_FALSE(std::filesystem::exists(Cold));

  // The AST oracle never runs a kernel, so its batches start no compile.
  std::string Ast = Dir.str() + "/ast";
  for (const std::string &E : ServeAll(Ast, exec::EvalKind::Ast, 2 * K))
    EXPECT_EQ(E, "ast");
  EXPECT_FALSE(std::filesystem::exists(Ast));

  // Explicit jit compiles its kernel when it plans, as it always has.
  std::string Jit = Dir.str() + "/jit";
  for (const std::string &E : ServeAll(Jit, exec::EvalKind::Jit, 2))
    EXPECT_EQ(E, "jit");
  EXPECT_EQ(kernelsIn(Jit), 1u);
}

TEST(ServeTierUpTest, AFailingCompilerLeavesEveryKeyOnTheVm) {
  TempPath Dir("serve-tierup-false");
  const std::string Cache = Dir.str() + "/jit";
  ScopedCc Cc("false");
  MixedProblems P;
  gpu::Device Direct;
  std::vector<RunResult> Expected;
  for (size_t I = 0; I != P.size(); ++I) {
    DiagnosticEngine Diags;
    auto R = P.Fns[I]->runGpu(P.Args[I], Direct, Diags);
    ASSERT_TRUE(R.has_value()) << Diags.str();
    Expected.push_back(std::move(*R));
  }
  obs::Tracer::instance().reset();
  obs::Tracer::instance().enable();
  serve::Engine::Options Opts;
  Opts.MaxBatch = 1;
  serve::Engine Engine(Opts);
  // Smith-Waterman (problems 0-5) and forward (6-8) are two keys.
  auto ServeBoth = [&](uint64_t Rounds) {
    for (uint64_t Round = 0; Round != Rounds; ++Round)
      for (size_t I : {Round % 6, 6 + Round % 3}) {
        serve::Request Req;
        Req.Fn = P.Fns[I];
        Req.Args = P.Args[I];
        Req.Options.JitCacheDir = Cache;
        serve::Response R = Engine.submit(std::move(Req)).wait();
        ASSERT_EQ(R.St, serve::Status::Ok) << R.Error;
        EXPECT_EQ(R.Result.Evaluator, "vm");
        expectIdentical(Expected[I], R.Result);
      }
  };
  uint64_t Before = jitFallbacks();
  ServeBoth(serve::Engine::TierUpBatches);
  ASSERT_TRUE(waitLong([&] { return jitFallbacks() == Before + 2; }))
      << "jit.fallbacks rose by " << jitFallbacks() - Before;
  // A failed key is never retried.
  ServeBoth(2 * serve::Engine::TierUpBatches);
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);
  EXPECT_EQ(jitFallbacks(), Before + 2);
  EXPECT_EQ(codegen::jitWarningsEmitted(), 1u);
  std::vector<obs::JsonValue> Spans = tierUpSpans();
  ASSERT_EQ(Spans.size(), 2u);
  std::set<std::string> Functions;
  for (const obs::JsonValue &Span : Spans) {
    EXPECT_EQ(Span.stringOr("outcome", ""), "failed");
    Functions.insert(Span.stringOr("function", ""));
  }
  EXPECT_EQ(Functions, (std::set<std::string>{"forward", "sw"}));
}
