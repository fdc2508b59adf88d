//===- RouterTest.cpp - Tests for the front router stack ---------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The front-router stack's contract: the fair queue schedules by strict
/// priority and weighted deficit round robin with FIFO per tenant; the
/// memo cache is a bounded LRU whose hits are bit-identical copies; and
/// routed serving — sharding, spilling, shared memoization — returns
/// responses bit-identical to a direct single-engine run, across
/// evaluators and both dispatch paths, and routes concurrent submitters
/// without a lock.
///
//===----------------------------------------------------------------------===//

#include "bio/Fasta.h"
#include "bio/HmmZoo.h"
#include "bio/SubstitutionMatrix.h"
#include "runtime/CompiledRecurrence.h"
#include "serve/FairQueue.h"
#include "serve/MemoCache.h"
#include "serve/Router.h"
#include "TempPath.h"

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
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

void expectIdentical(const exec::RunResult &A, const exec::RunResult &B) {
  EXPECT_EQ(A.RootValue, B.RootValue);
  EXPECT_EQ(A.TableMax, B.TableMax);
  EXPECT_EQ(A.Cells, B.Cells);
  EXPECT_EQ(A.Partitions, B.Partitions);
  EXPECT_TRUE(A.Cost == B.Cost);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_TRUE(A.Metrics == B.Metrics);
  EXPECT_EQ(A.UsedSchedule, B.UsedSchedule);
}

/// A multi-tenant mix with repeated shapes and repeated contents (the
/// repeats are what memoization and coalescing act on).
struct RoutedProblems {
  CompiledRecurrence Sw = compileOrDie(SwSource);
  CompiledRecurrence Forward = compileOrDie(DnaForwardSource);
  bio::Hmm Genes = bio::makeGeneFinderModel();
  std::deque<bio::Sequence> Seqs;
  std::vector<const CompiledRecurrence *> Fns;
  std::vector<std::vector<ArgValue>> Args;
  std::vector<std::string> Tenants;

  RoutedProblems() {
    const bio::SubstitutionMatrix &Blosum =
        bio::SubstitutionMatrix::blosum62();
    Seqs.push_back(bio::randomSequence(bio::Alphabet::protein(), 28,
                                       /*Seed=*/0xF00D, "query"));
    const bio::Sequence *Query = &Seqs.back();
    const char *TenantRing[] = {"alpha", "beta", "gamma"};
    int64_t SubjectLengths[] = {16, 24, 16, 24, 32, 16};
    for (size_t I = 0; I != std::size(SubjectLengths); ++I) {
      Seqs.push_back(bio::randomSequence(bio::Alphabet::protein(),
                                         SubjectLengths[I], 300 + I,
                                         "s" + std::to_string(I)));
      Fns.push_back(&Sw);
      Args.push_back({ArgValue::ofMatrix(&Blosum), ArgValue::ofSeq(Query),
                      ArgValue(), ArgValue::ofSeq(&Seqs.back()),
                      ArgValue()});
      Tenants.push_back(TenantRing[I % 3]);
    }
    int64_t ObservedLengths[] = {32, 44, 32};
    for (size_t I = 0; I != std::size(ObservedLengths); ++I) {
      std::string Observed = Genes.sample(
          /*Seed=*/40 + I, static_cast<size_t>(ObservedLengths[I]));
      Observed.resize(static_cast<size_t>(ObservedLengths[I]), 'a');
      Seqs.emplace_back("x" + std::to_string(I), std::move(Observed));
      Fns.push_back(&Forward);
      Args.push_back({ArgValue::ofHmm(&Genes), ArgValue(),
                      ArgValue::ofSeq(&Seqs.back()), ArgValue()});
      Tenants.push_back(TenantRing[I % 3]);
    }
    // Exact repeats of the first two problems: same function, same plan
    // key, same contents — memo-hit material.
    for (size_t I = 0; I != 2; ++I) {
      Fns.push_back(Fns[I]);
      Args.push_back(Args[I]);
      Tenants.push_back(Tenants[I]);
    }
  }

  size_t size() const { return Fns.size(); }
};

/// FairQueue items for the unit tests; the default traits read these
/// member names directly.
struct QItem {
  std::string Tenant;
  int Priority = 0;
  uint64_t Seq = 0;
  uint64_t Deadline = 0;
  int Tag = 0;
};

serve::FairQueue<QItem> makeQueue() { return {}; }

} // namespace

//===----------------------------------------------------------------------===//
// FairQueue: weights, priority, FIFO, sheds, absorb
//===----------------------------------------------------------------------===//

TEST(FairQueueTest, DeficitRoundRobinHonoursWeights) {
  serve::FairQueue<QItem> Q = makeQueue();
  Q.setWeight("heavy", 10);
  Q.setWeight("light", 1);
  uint64_t Seq = 0;
  for (int I = 0; I != 40; ++I) {
    Q.push({"heavy", 0, Seq++, 0, I});
    Q.push({"light", 0, Seq++, 0, I});
  }
  ASSERT_EQ(Q.size(), 80u);
  EXPECT_EQ(Q.tenantDepth("heavy"), 40u);

  // Under backlog the DRR order is exact: bursts of 10 heavy pops
  // alternate with single light pops (tenants visited in name order).
  std::map<std::string, int> First22;
  std::vector<QItem> Shed;
  for (int I = 0; I != 22; ++I) {
    auto Item = Q.pop(/*Now=*/0, &Shed);
    ASSERT_TRUE(Item.has_value());
    ++First22[Item->Tenant];
  }
  EXPECT_TRUE(Shed.empty());
  EXPECT_EQ(First22["heavy"], 20);
  EXPECT_EQ(First22["light"], 2);

  // Every queued item eventually pops; FIFO holds per tenant.
  std::map<std::string, uint64_t> LastSeq;
  while (auto Item = Q.pop(0, &Shed)) {
    auto It = LastSeq.find(Item->Tenant);
    if (It != LastSeq.end()) {
      EXPECT_GT(Item->Seq, It->second) << "tenant FIFO violated";
    }
    LastSeq[Item->Tenant] = Item->Seq;
  }
  EXPECT_TRUE(Q.empty());
}

TEST(FairQueueTest, StrictPriorityPreemptsLowerClasses) {
  serve::FairQueue<QItem> Q = makeQueue();
  uint64_t Seq = 0;
  Q.push({"t", 0, Seq++, 0, 0});
  Q.push({"t", 5, Seq++, 0, 1});
  Q.push({"u", 5, Seq++, 0, 2});
  Q.push({"t", 0, Seq++, 0, 3});

  std::vector<QItem> Shed;
  std::vector<int> Priorities;
  while (auto Item = Q.pop(0, &Shed))
    Priorities.push_back(Item->Priority);
  EXPECT_EQ(Priorities, (std::vector<int>{5, 5, 0, 0}));
}

TEST(FairQueueTest, ShedsExpiredWithoutChargingDeficit) {
  serve::FairQueue<QItem> Q = makeQueue();
  Q.setWeight("backlogged", 4);
  uint64_t Seq = 0;
  // Two expired heads in front of live work for one tenant; a competing
  // tenant alongside.
  Q.push({"backlogged", 0, Seq++, /*Deadline=*/1, 0});
  Q.push({"backlogged", 0, Seq++, /*Deadline=*/1, 1});
  for (int I = 0; I != 4; ++I)
    Q.push({"backlogged", 0, Seq++, 0, 10 + I});
  for (int I = 0; I != 4; ++I)
    Q.push({"other", 0, Seq++, 0, 20 + I});

  // At Now=5 both heads are expired. Shedding them must not consume the
  // tenant's quantum: the full burst of 4 live items still pops before
  // the cursor moves on.
  std::vector<QItem> Shed;
  std::vector<std::string> Order;
  for (int I = 0; I != 4; ++I) {
    auto Item = Q.pop(/*Now=*/5, &Shed);
    ASSERT_TRUE(Item.has_value());
    Order.push_back(Item->Tenant);
  }
  EXPECT_EQ(Shed.size(), 2u);
  EXPECT_EQ(Order, (std::vector<std::string>(4, "backlogged")));
}

TEST(FairQueueTest, AbsorbExtractsMatchesInSubmissionOrder) {
  serve::FairQueue<QItem> Q = makeQueue();
  uint64_t Seq = 0;
  // Matching items spread across tenants and priorities, interleaved
  // with non-matching ones.
  Q.push({"a", 0, Seq++, 0, /*Tag=*/1});
  Q.push({"b", 1, Seq++, 0, 1});
  Q.push({"a", 0, Seq++, 0, 0});
  Q.push({"c", 0, Seq++, 0, 1});
  Q.push({"b", 0, Seq++, /*Deadline=*/1, 1}); // Expired at Now=5.
  Q.push({"c", 1, Seq++, 0, 1});

  std::vector<QItem> Out, Shed;
  Q.absorb([](const QItem &I) { return I.Tag == 1; }, /*MaxTake=*/2,
           /*Now=*/5, Out, Shed);
  // Seq order among matches: 0, 1 taken (MaxTake), the expired one shed,
  // the overflow pushed back.
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0].Seq, 0u);
  EXPECT_EQ(Out[1].Seq, 1u);
  ASSERT_EQ(Shed.size(), 1u);
  EXPECT_EQ(Shed[0].Seq, 4u);
  // 6 - 2 taken - 1 shed = 3 left (one match pushed back, two Tag=0).
  EXPECT_EQ(Q.size(), 3u);

  std::vector<QItem> Rest = Q.drain();
  ASSERT_EQ(Rest.size(), 3u);
  EXPECT_TRUE(Rest[0].Seq < Rest[1].Seq && Rest[1].Seq < Rest[2].Seq);
  EXPECT_TRUE(Q.empty());
}

TEST(FairQueueTest, AbsorbOverflowKeepsTenantFifoOrder) {
  serve::FairQueue<QItem> Q = makeQueue();
  uint64_t Seq = 0;
  // One tenant: two requests of one key, then one of another key.
  Q.push({"a", 0, Seq++, 0, /*Tag=*/1});
  Q.push({"a", 0, Seq++, 0, 1});
  Q.push({"a", 0, Seq++, 0, 0});

  // A batch with room for one takes seq 0; seq 1 overflows and must
  // stay ahead of the tenant's later seq 2.
  std::vector<QItem> Out, Shed;
  Q.absorb([](const QItem &I) { return I.Tag == 1; }, /*MaxTake=*/1,
           /*Now=*/0, Out, Shed);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Seq, 0u);
  std::vector<uint64_t> Order;
  while (auto Item = Q.pop(/*Now=*/0, &Shed))
    Order.push_back(Item->Seq);
  EXPECT_EQ(Order, (std::vector<uint64_t>{1, 2}));
  EXPECT_TRUE(Shed.empty());
}

//===----------------------------------------------------------------------===//
// MemoCache: LRU bound, stats, first-write-wins
//===----------------------------------------------------------------------===//

TEST(MemoCacheTest, LruEvictionAndStats) {
  serve::MemoCache Cache(/*CapacityEntries=*/2);
  auto keyOf = [](uint64_t Digest) {
    serve::MemoCache::Key K;
    K.Fn = 0x1000;
    K.Digest = {Digest, ~Digest};
    K.Threads = 0;
    return K;
  };
  auto entryOf = [](int64_t Value) {
    serve::MemoCache::Entry E;
    E.Result.RootValue = Value;
    E.CompletionCycle = 7;
    return E;
  };

  EXPECT_FALSE(Cache.lookup(keyOf(1)).has_value());
  Cache.insert(keyOf(1), entryOf(10));
  Cache.insert(keyOf(2), entryOf(20));
  // Touch 1 so 2 becomes the LRU victim, then overflow.
  EXPECT_TRUE(Cache.lookup(keyOf(1)).has_value());
  Cache.insert(keyOf(3), entryOf(30));
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_FALSE(Cache.lookup(keyOf(2)).has_value()) << "LRU not evicted";
  ASSERT_TRUE(Cache.lookup(keyOf(1)).has_value());
  ASSERT_TRUE(Cache.lookup(keyOf(3)).has_value());
  EXPECT_EQ(Cache.lookup(keyOf(3))->Result.RootValue, 30);
  EXPECT_EQ(Cache.lookup(keyOf(3))->CompletionCycle, 7u);

  // First write wins: re-inserting an existing key changes nothing.
  Cache.insert(keyOf(1), entryOf(99));
  EXPECT_EQ(Cache.lookup(keyOf(1))->Result.RootValue, 10);

  serve::MemoCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Insertions, 3u);
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_GT(S.Hits, 0u);
}

TEST(MemoCacheTest, DigestCollisionIsAMiss) {
  // Two requests whose keys are equal, digest included, but whose
  // sequences differ: a collision of the digest, which a crafted input
  // can force. The second requester must not get the first's result.
  bio::Sequence Mine("a", "ACDEFGHIK"), Theirs("b", "KIHGFEDCA");
  std::vector<ArgValue> First = {ArgValue::ofSeq(&Mine), ArgValue::ofInt(3)};
  std::vector<ArgValue> Second = {ArgValue::ofSeq(&Theirs),
                                  ArgValue::ofInt(3)};
  serve::MemoCache::Key K;
  K.Fn = 0x1000;
  K.Digest = {0x1234, 0x5678};
  serve::MemoCache Cache(/*CapacityEntries=*/4);
  serve::MemoCache::Entry E;
  E.Result.RootValue = 42;
  E.Inputs = serve::MemoCache::inputsOf(First);
  Cache.insert(K, E);

  EXPECT_FALSE(Cache.lookup(K, serve::MemoCache::inputsOf(Second)))
      << "a digest collision served another requester's result";
  std::optional<serve::MemoCache::Entry> Hit =
      Cache.lookup(K, serve::MemoCache::inputsOf(First));
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Result.RootValue, 42);
  // Ints and reals count bit for bit.
  std::vector<ArgValue> OtherInt = {ArgValue::ofSeq(&Mine),
                                    ArgValue::ofInt(4)};
  EXPECT_FALSE(Cache.lookup(K, serve::MemoCache::inputsOf(OtherInt)));
  serve::MemoCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 2u);
}

//===----------------------------------------------------------------------===//
// Router: bit-identity, stickiness, spilling, concurrency, memo
//===----------------------------------------------------------------------===//

TEST(RouterTest, RoutedServingBitIdenticalAcrossEvaluatorsAndPipeline) {
  RoutedProblems P;
  TempPath JitCache("routertest-jit");
  const std::string &JitDir = JitCache.str();

  // For every evaluator x dispatch path: the full router stack (3
  // shards, weights, continuous batching, shared memoization) must
  // return responses bit-identical to one plain engine.
  for (exec::EvalKind Eval :
       {exec::EvalKind::Ast, exec::EvalKind::Vm, exec::EvalKind::Jit}) {
    for (bool Pipeline : {false, true}) {
      auto makeRequest = [&](size_t I) {
        serve::Request Req;
        Req.Fn = P.Fns[I];
        Req.Args = P.Args[I];
        Req.Tenant = P.Tenants[I];
        Req.Options.Evaluator = Eval;
        if (Eval == exec::EvalKind::Jit)
          Req.Options.JitCacheDir = JitDir;
        return Req;
      };

      serve::Engine::Options Plain;
      Plain.MaxBatch = 4;
      Plain.Pipeline = Pipeline;
      Plain.StartPaused = true;
      serve::Engine Oracle(Plain);
      std::vector<serve::Future> Direct;
      for (size_t I = 0; I != P.size(); ++I)
        Direct.push_back(Oracle.submit(makeRequest(I)));
      Oracle.shutdown(serve::Engine::ShutdownMode::Drain);

      serve::Router::Options RO;
      RO.Shards = 3;
      RO.MemoCapacity = 64;
      RO.Shard = Plain;
      RO.Shard.StartPaused = false;
      RO.Shard.ContinuousBatch = true;
      RO.Shard.TenantWeights = {{"alpha", 4}, {"beta", 1}};
      serve::Router Router(RO);
      std::vector<serve::Future> Routed;
      for (size_t I = 0; I != P.size(); ++I)
        Routed.push_back(Router.submit(makeRequest(I)));
      Router.shutdown(serve::Engine::ShutdownMode::Drain);

      for (size_t I = 0; I != P.size(); ++I) {
        const serve::Response &D = Direct[I].wait();
        const serve::Response &R = Routed[I].wait();
        ASSERT_EQ(D.St, serve::Status::Ok)
            << "eval=" << static_cast<int>(Eval)
            << " pipeline=" << Pipeline << ": " << D.Error;
        ASSERT_EQ(R.St, serve::Status::Ok)
            << "eval=" << static_cast<int>(Eval)
            << " pipeline=" << Pipeline << ": " << R.Error;
        expectIdentical(D.Result, R.Result);
      }
      serve::Router::Stats S = Router.stats();
      EXPECT_EQ(S.Total.Completed, P.size());
      EXPECT_EQ(S.Total.Completed + S.Total.Failed +
                    S.Total.Rejected + S.Total.DeadlineShed,
                P.size());
    }
  }
}

TEST(RouterTest, IdenticalRequestsStickToOneShard) {
  RoutedProblems P;
  serve::Router::Options RO;
  RO.Shards = 4;
  RO.Shard.MaxBatch = 8;
  serve::Router Router(RO);

  // Same tenant, same plan key, same contents: every submission must
  // land on the same shard (stickiness is what keeps repeats batchable).
  std::vector<serve::Future> Futures;
  for (int I = 0; I != 6; ++I) {
    serve::Request Req;
    Req.Fn = P.Fns[0];
    Req.Args = P.Args[0];
    Req.Tenant = "sticky";
    Futures.push_back(Router.submit(std::move(Req)));
  }
  Router.shutdown(serve::Engine::ShutdownMode::Drain);
  for (serve::Future &F : Futures)
    EXPECT_EQ(F.wait().St, serve::Status::Ok);

  serve::Router::Stats S = Router.stats();
  unsigned ShardsUsed = 0;
  for (const serve::Engine::Stats &Shard : S.PerShard)
    if (Shard.Submitted != 0) {
      ++ShardsUsed;
      EXPECT_EQ(Shard.Submitted, 6u);
    }
  EXPECT_EQ(ShardsUsed, 1u);
  EXPECT_EQ(S.Routed, 6u);
  EXPECT_EQ(S.Spilled, 0u);
}

TEST(RouterTest, SpillsToShallowestShardWhenPrimaryBacklogged) {
  RoutedProblems P;
  serve::Router::Options RO;
  RO.Shards = 2;
  RO.SpillQueueDepth = 1;
  RO.Shard.StartPaused = true; // Queues build while paused.
  serve::Router Router(RO);

  std::vector<serve::Future> Futures;
  for (int I = 0; I != 6; ++I) {
    serve::Request Req;
    Req.Fn = P.Fns[0];
    Req.Args = P.Args[0];
    Req.Tenant = "bursty";
    Futures.push_back(Router.submit(std::move(Req)));
  }
  serve::Router::Stats Mid = Router.stats();
  EXPECT_GT(Mid.Spilled, 0u) << "backlog beyond the threshold must spill";
  for (const serve::Engine::Stats &Shard : Mid.PerShard)
    EXPECT_GT(Shard.Submitted, 0u)
        << "spilling must engage the second shard";

  for (unsigned I = 0; I != Router.shards(); ++I)
    Router.shard(I).resume();
  Router.shutdown(serve::Engine::ShutdownMode::Drain);
  for (serve::Future &F : Futures)
    EXPECT_EQ(F.wait().St, serve::Status::Ok);
}

TEST(RouterTest, ConcurrentSubmittersAndClockNeedNoRouterLock) {
  // The shard set is fixed, so routing, spilling, the clock and stats
  // read it without a lock while four threads submit and a fifth
  // advances the clock. Every request must complete, every submission
  // must be counted once, and a problem's result must not depend on
  // the shard that ran it.
  RoutedProblems P;
  serve::Router::Options RO;
  RO.Shards = 3;
  RO.SpillQueueDepth = 1;
  RO.Shard.MaxBatch = 4;
  serve::Router Router(RO);

  constexpr unsigned Submitters = 4;
  std::atomic<bool> Done{false};
  std::thread Clock([&] {
    for (uint64_t Tick = 1; !Done.load(); ++Tick) {
      Router.advanceTo(Tick);
      (void)Router.stats();
      std::this_thread::yield();
    }
  });
  std::vector<std::vector<serve::Future>> Futures(Submitters);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Submitters; ++T)
    Threads.emplace_back([&, T] {
      for (size_t I = 0; I != P.size(); ++I) {
        serve::Request Req;
        Req.Fn = P.Fns[I];
        Req.Args = P.Args[I];
        Req.Tenant = P.Tenants[I];
        Futures[T].push_back(Router.submit(std::move(Req)));
      }
    });
  for (std::thread &T : Threads)
    T.join();
  Done = true;
  Clock.join();
  Router.shutdown(serve::Engine::ShutdownMode::Drain);

  for (unsigned T = 0; T != Submitters; ++T)
    for (size_t I = 0; I != P.size(); ++I) {
      const serve::Response &R = Futures[T][I].wait();
      ASSERT_EQ(R.St, serve::Status::Ok)
          << "submitter " << T << " request " << I << ": " << R.Error;
      expectIdentical(Futures[0][I].wait().Result, R.Result);
    }
  serve::Router::Stats S = Router.stats();
  EXPECT_EQ(S.Routed + S.Spilled, Submitters * P.size());
  uint64_t PerShardSubmitted = 0;
  for (const serve::Engine::Stats &Shard : S.PerShard)
    PerShardSubmitted += Shard.Submitted;
  EXPECT_EQ(S.Total.Submitted, PerShardSubmitted);
  EXPECT_EQ(S.Total.Submitted, Submitters * P.size());
}

TEST(RouterTest, MemoCacheIsSharedAcrossShards) {
  RoutedProblems P;
  serve::Router::Options RO;
  RO.Shards = 3;
  RO.MemoCapacity = 32;
  serve::Router Router(RO);

  // Warm the cache under one tenant, then repeat the identical request
  // under other tenants: they hash to different shards, but the shared
  // cache must still serve them without execution.
  serve::Request Warm;
  Warm.Fn = P.Fns[0];
  Warm.Args = P.Args[0];
  Warm.Tenant = "warm";
  const serve::Response First = Router.submit(std::move(Warm)).wait();
  ASSERT_EQ(First.St, serve::Status::Ok) << First.Error;
  EXPECT_FALSE(First.Memoized);

  std::vector<serve::Future> Repeats;
  for (const char *Tenant : {"repeat-a", "repeat-b", "repeat-c"}) {
    serve::Request Req;
    Req.Fn = P.Fns[0];
    Req.Args = P.Args[0];
    Req.Tenant = Tenant;
    Repeats.push_back(Router.submit(std::move(Req)));
  }
  for (serve::Future &F : Repeats) {
    const serve::Response &R = F.wait();
    ASSERT_EQ(R.St, serve::Status::Ok) << R.Error;
    EXPECT_TRUE(R.Memoized);
    expectIdentical(First.Result, R.Result);
    EXPECT_EQ(R.CompletionCycle, First.CompletionCycle)
        << "hits carry the original execution's modelled completion";
  }
  Router.shutdown(serve::Engine::ShutdownMode::Drain);

  serve::Router::Stats S = Router.stats();
  EXPECT_EQ(S.Total.MemoHits, 3u);
  // Exactly one execution ever reached a device.
  uint64_t DeviceRequests = 0;
  for (uint64_t N : S.Total.DeviceRequests)
    DeviceRequests += N;
  EXPECT_EQ(DeviceRequests, 1u);
  ASSERT_TRUE(Router.memoCache() != nullptr);
  EXPECT_EQ(Router.memoCache()->stats().Hits, 3u);
}

TEST(RouterTest, MemoCacheKeysOnFunctionIdentityNotAddress) {
  // A slot reused for another function keeps its address, while the
  // shared memo cache outlives both routers. The repeat against the new
  // occupant must miss and return the new function's result.
  RoutedProblems P;
  auto Cache = std::make_shared<serve::MemoCache>(/*CapacityEntries=*/32);
  serve::Router::Options RO;
  RO.Shards = 2;
  RO.Shard.Memo = Cache;
  std::optional<CompiledRecurrence> Slot = compileOrDie(SwSource);
  const CompiledRecurrence *Address = &*Slot;
  auto submitAndDrain = [&] {
    serve::Router Router(RO);
    serve::Request Req;
    Req.Fn = &*Slot;
    Req.Args = P.Args[0];
    serve::Response R = Router.submit(std::move(Req)).wait();
    Router.shutdown(serve::Engine::ShutdownMode::Drain);
    return R;
  };

  const serve::Response First = submitAndDrain();
  ASSERT_EQ(First.St, serve::Status::Ok) << First.Error;
  EXPECT_FALSE(First.Memoized);

  const char *SwGap7Source =
      "int sw(matrix[protein] m, seq[protein] a, index[a] i,\n"
      "       seq[protein] b, index[b] j) =\n"
      "  if i == 0 then 0\n"
      "  else if j == 0 then 0\n"
      "  else 0 max (sw(i-1, j-1) + m[a[i-1], b[j-1]])\n"
      "       max (sw(i-1, j) - 7) max (sw(i, j-1) - 7)\n";
  Slot = compileOrDie(SwGap7Source);
  ASSERT_EQ(&*Slot, Address);
  gpu::Device Device;
  DiagnosticEngine Diags;
  std::optional<RunResult> Direct = Slot->runGpu(P.Args[0], Device, Diags);
  ASSERT_TRUE(Direct.has_value()) << Diags.str();
  ASSERT_NE(Direct->RootValue, First.Result.RootValue)
      << "the variant must score the problem differently";

  const serve::Response Second = submitAndDrain();
  ASSERT_EQ(Second.St, serve::Status::Ok) << Second.Error;
  EXPECT_FALSE(Second.Memoized) << "served the replaced function's result";
  expectIdentical(*Direct, Second.Result);
  serve::MemoCache::Stats S = Cache->stats();
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Misses, 2u);
}
