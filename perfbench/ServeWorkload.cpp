//===- ServeWorkload.cpp - serve_mixed: open-loop traffic through a router ==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// One generator thread sends seeded Poisson arrivals at a fixed rate to a
// serve::Router configured as examples/workload_multitenant.json
// documents. One virtual tick is one millisecond of wall time; the
// generator advances the router's clock while it waits. Latency runs from
// each request's due time to its completion callback, so a late
// generator or a stall counts against the requests behind it.
//
//===----------------------------------------------------------------------===//

#include "Oracles.h"
#include "Workloads.h"

#include "bio/Fasta.h"
#include "bio/HmmZoo.h"
#include "bio/SubstitutionMatrix.h"
#include "exec/ExecutionBackend.h"
#include "runtime/CompiledRecurrence.h"
#include "serve/Router.h"
#include "support/Random.h"

#include <cmath>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

using namespace parrec;
using namespace perfbench;
using codegen::ArgValue;
using runtime::CompiledRecurrence;

namespace {

/// Offered load in requests per second. Each shard's coalescer holds one
/// linger window (2-3 ms) at a time, so at 700 req/s it was busy most of
/// the time and a few percent of host slowdown moved p90 by a third. At
/// this rate it is idle more than half the time (README.md records the
/// measurements).
constexpr double RatePerSecond = 300.0;
/// Share of requests that repeat an earlier input of the same tenant.
constexpr double RepeatShare = 0.2;
constexpr uint64_t InteractiveDeadlineTicks = 256;
/// Cold set-ups in each of the two blocks, before and after the timed
/// phase.
constexpr unsigned SetupRepsPerBlock = 200;
/// Distinct inputs the per-layer probes (bind, scan, dispatch) sample.
constexpr size_t ProbeInputs = 64;

const char *ViterbiSource =
    "prob viterbi(hmm h, state[h] s, seq[dna] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    max(t in s.transitionsto : t.prob * viterbi(t.start, i - 1))\n";

struct TenantSpec {
  const char *Name;
  bool Viterbi;
  unsigned Share; ///< Relative arrival share.
  int Priority;
  uint64_t Weight;
  int64_t MinLength, MaxLength;
};

/// heavy : light : interactive arrive 6 : 6 : 1, as the mean gaps of
/// examples/workload_multitenant.json (1, 1 and 6 ticks) imply.
const TenantSpec Tenants[] = {
    {"heavy", false, 6, 0, 10, 32, 48},
    {"light", false, 6, 0, 1, 32, 48},
    {"interactive", true, 1, 1, 1, 40, 48},
};
constexpr unsigned NumTenants = 3;

/// One distinct input with its oracle value.
struct Input {
  unsigned Tenant = 0;
  std::vector<ArgValue> Args;
  double Expected = 0.0;
  uint64_t DomainCells = 0;
};

struct Arrival {
  double DueSeconds = 0.0; ///< Offset from the start of the loop.
  size_t Input = 0;
  bool Repeat = false;
};

/// The generated traffic; deques keep the addresses arguments point at.
struct Traffic {
  std::deque<bio::Sequence> Seqs;
  bio::Hmm Genes;
  std::vector<Input> Inputs;
  std::vector<Arrival> Arrivals;
  uint64_t Repeats = 0;
};

std::unique_ptr<Traffic> generateTraffic(uint64_t Seed, double Seconds) {
  SplitMix64 Rng(mixSeed(Seed, 0x5E7E));
  auto uniform = [&] {
    return static_cast<double>(Rng.nextBelow(1ull << 30) + 1) /
           static_cast<double>((1ull << 30) + 1);
  };
  auto Owned = std::make_unique<Traffic>();
  Traffic &T = *Owned;
  T.Genes = bio::makeGeneFinderModel();
  const bio::SubstitutionMatrix &Blosum = bio::SubstitutionMatrix::blosum62();
  const bio::Sequence *Queries[NumTenants] = {};
  for (unsigned K = 0; K != NumTenants; ++K)
    if (!Tenants[K].Viterbi) {
      T.Seqs.push_back(bio::randomSequence(bio::Alphabet::protein(), 48,
                                           Rng.next(), "query"));
      Queries[K] = &T.Seqs.back();
    }
  unsigned ShareTotal = 0;
  for (const TenantSpec &S : Tenants)
    ShareTotal += S.Share;
  std::vector<size_t> Recent[NumTenants]; // Last distinct inputs per tenant.

  double Due = 0.0;
  while (true) {
    Due += -std::log(uniform()) / RatePerSecond;
    if (Due >= Seconds)
      break;
    unsigned Pick = static_cast<unsigned>(Rng.nextBelow(ShareTotal));
    unsigned K = 0;
    while (Pick >= Tenants[K].Share)
      Pick -= Tenants[K++].Share;
    Arrival A;
    A.DueSeconds = Due;
    if (!Recent[K].empty() && uniform() < RepeatShare) {
      A.Input = Recent[K][Rng.nextBelow(Recent[K].size())];
      A.Repeat = true;
      ++T.Repeats;
    } else {
      const TenantSpec &S = Tenants[K];
      uint64_t Span = static_cast<uint64_t>(S.MaxLength - S.MinLength + 1);
      int64_t Length = S.MinLength + static_cast<int64_t>(Rng.nextBelow(Span));
      Input In;
      In.Tenant = K;
      if (S.Viterbi) {
        std::string Observed =
            T.Genes.sample(Rng.next(), static_cast<size_t>(Length));
        while (static_cast<int64_t>(Observed.size()) < Length)
          Observed += T.Genes.alphabet().charAt(static_cast<unsigned>(
              Rng.nextBelow(T.Genes.alphabet().size())));
        Observed.resize(static_cast<size_t>(Length));
        T.Seqs.emplace_back("obs", std::move(Observed));
        In.Args = {ArgValue::ofHmm(&T.Genes), ArgValue(),
                   ArgValue::ofSeq(&T.Seqs.back()), ArgValue()};
        In.DomainCells =
            T.Genes.numStates() * static_cast<uint64_t>(Length + 1);
      } else {
        T.Seqs.push_back(bio::randomSequence(bio::Alphabet::protein(), Length,
                                             Rng.next(), "subject"));
        In.Args = {ArgValue::ofMatrix(&Blosum), ArgValue::ofSeq(Queries[K]),
                   ArgValue(), ArgValue::ofSeq(&T.Seqs.back()), ArgValue()};
        In.DomainCells = 49 * static_cast<uint64_t>(Length + 1);
      }
      A.Input = T.Inputs.size();
      T.Inputs.push_back(std::move(In));
      Recent[K].push_back(A.Input);
      if (Recent[K].size() > 32)
        Recent[K].erase(Recent[K].begin());
    }
    T.Arrivals.push_back(A);
  }
  return Owned;
}

void computeExpected(Traffic &T) {
  for (Input &In : T.Inputs)
    In.Expected = Tenants[In.Tenant].Viterbi
                      ? viterbiOracle(*In.Args[0].Hmm, *In.Args[2].Seq)
                      : smithWatermanOracle(*In.Args[1].Seq, *In.Args[3].Seq);
}

serve::Router::Options routerOptions() {
  serve::Router::Options O;
  O.Shards = 2;
  O.MemoCapacity = 256;
  O.Shard.Devices = 1;
  O.Shard.BatchWorkersPerDevice = 1;
  O.Shard.ScanWorkersPerDevice = 1;
  O.Shard.MaxBatch = 8;
  O.Shard.LingerTicks = 2;
  O.Shard.ContinuousBatch = true;
  for (const TenantSpec &S : Tenants)
    O.Shard.TenantWeights[S.Name] = S.Weight;
  return O;
}

/// What one request's completion callback recorded.
struct Completion {
  Clock::time_point At;
  serve::Status St = serve::Status::Failed;
  bool Memoized = false;
  double Value = 0.0;
  double QueueSeconds = 0.0, ExecSeconds = 0.0;
  uint64_t BatchSize = 0;
  uint64_t Cycles = 0;
  int64_t Partitions = 0;
};

struct LoopResult {
  std::vector<Completion> Done;
  std::vector<double> LateSeconds;   ///< Generator lateness per request.
  std::vector<double> SubmitSeconds; ///< Router::submit call, when timed.
  std::vector<double> LatencySeconds; ///< Due to completion, Ok only.
  /// From the start of the loop to the last completion.
  double WallSeconds = 0.0;
  serve::Router::Stats Stats;
};

/// Drives \p Count arrivals through \p R in real time and waits for every
/// completion callback. \p TimeSubmit additionally times each submit call.
LoopResult runOpenLoop(serve::Router &R, const Traffic &T, size_t Count,
                       const CompiledRecurrence *Fns[2], bool TimeSubmit) {
  LoopResult L;
  L.Done.resize(Count);
  L.LateSeconds.reserve(Count);
  std::vector<Clock::time_point> DueAt(Count);
  std::mutex Mutex;
  std::condition_variable Cv;
  size_t Finished = 0; // Guarded by Mutex.

  Clock::time_point Start = Clock::now();
  auto tickNow = [&] {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              Start)
            .count());
  };
  for (size_t I = 0; I != Count; ++I) {
    const Arrival &A = T.Arrivals[I];
    const Input &In = T.Inputs[A.Input];
    Clock::time_point Due = DueAt[I] =
        Start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(A.DueSeconds));
    for (Clock::time_point Now = Clock::now(); Now < Due; Now = Clock::now()) {
      uint64_t Tick = tickNow();
      R.advanceTo(Tick);
      std::this_thread::sleep_until(
          std::min(Due, Start + std::chrono::milliseconds(Tick + 1)));
    }
    R.advanceTo(tickNow());
    L.LateSeconds.push_back(secondsSince(Due));

    const TenantSpec &S = Tenants[In.Tenant];
    serve::Request Req;
    Req.Fn = Fns[S.Viterbi ? 1 : 0];
    Req.Args = In.Args;
    Req.Priority = S.Priority;
    Req.Tenant = S.Name;
    if (S.Viterbi)
      Req.DeadlineTick = R.now() + InteractiveDeadlineTicks;
    Completion *Slot = &L.Done[I];
    bool Viterbi = S.Viterbi;
    auto Callback = [Slot, Viterbi, &Mutex, &Cv,
                     &Finished](const serve::Response &Resp) {
      Slot->At = Clock::now();
      Slot->St = Resp.St;
      Slot->Memoized = Resp.Memoized;
      Slot->Value = Viterbi ? Resp.Result.RootValue : Resp.Result.TableMax;
      Slot->QueueSeconds = Resp.QueueSeconds;
      Slot->ExecSeconds = Resp.ExecSeconds;
      Slot->BatchSize = Resp.BatchSize;
      Slot->Cycles = Resp.Result.Cycles;
      Slot->Partitions = Resp.Result.Partitions;
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Finished;
      Cv.notify_one();
    };
    if (TimeSubmit) {
      Clock::time_point T0 = Clock::now();
      R.submit(std::move(Req), std::move(Callback));
      L.SubmitSeconds.push_back(secondsSince(T0));
    } else {
      R.submit(std::move(Req), std::move(Callback));
    }
  }
  // Keep the clock moving so the last linger windows close.
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    while (Finished != Count) {
      Lock.unlock();
      R.advanceTo(tickNow());
      Lock.lock();
      Cv.wait_for(Lock, std::chrono::milliseconds(1));
    }
  }
  L.WallSeconds = secondsSince(Start);
  R.shutdown(serve::Engine::ShutdownMode::Drain);
  L.Stats = R.stats();
  for (size_t I = 0; I != Count; ++I)
    if (L.Done[I].St == serve::Status::Ok)
      L.LatencySeconds.push_back(
          std::chrono::duration<double>(L.Done[I].At - DueAt[I]).count());
  return L;
}

/// Checks every completion against the oracle; counts into \p Out.
void verifyLoop(const Traffic &T, const LoopResult &L, Outcome &Out) {
  for (size_t I = 0; I != L.Done.size(); ++I) {
    ++Out.Attempted;
    const Completion &C = L.Done[I];
    const Input &In = T.Inputs[T.Arrivals[I].Input];
    if (C.St != serve::Status::Ok) {
      ++Out.Failed;
      Out.note(format("request %zu resolved %s", I,
                      std::string(serve::statusName(C.St)).c_str()));
    } else if (!matches(C.Value, In.Expected, !Tenants[In.Tenant].Viterbi)) {
      ++Out.Failed;
      Out.note(format("MISMATCH request %zu: got %.17g expected %.17g", I,
                      C.Value, In.Expected));
    }
  }
}

/// Modelled device time of the whole traffic: every request's problem
/// cycles (a memo hit carries its original's) dispatched, in arrival
/// order, as one batch onto one modelled device. Unlike the router's
/// per-device cycle totals this does not depend on how wall-clock
/// coalescing grouped the requests, so it repeats exactly for a seed.
/// Breaks an invariant when two requests for one input disagree.
double modelledTrafficMs(const Traffic &T, const LoopResult &L, Outcome &Out) {
  std::vector<uint64_t> InputCycles(T.Inputs.size(), 0);
  std::vector<uint64_t> Cycles;
  Cycles.reserve(L.Done.size());
  for (size_t I = 0; I != L.Done.size(); ++I) {
    const Completion &C = L.Done[I];
    if (C.St != serve::Status::Ok)
      continue;
    uint64_t &Seen = InputCycles[T.Arrivals[I].Input];
    if (Seen != 0 && Seen != C.Cycles)
      Out.violate(format("modelled cycles of request %zu differ from an "
                         "earlier request for the same input",
                         I));
    Seen = C.Cycles;
    Cycles.push_back(C.Cycles);
  }
  gpu::Device Device(routerOptions().Shard.Model);
  return Device.costModel().gpuSeconds(Device.dispatchProblems(Cycles)) * 1e3;
}

/// The first input of every shape. A shape is fixed by the program and
/// the length of the sequence that varies (queries are all 48 residues),
/// so the list is as long as the tenants' length ranges, whatever the
/// length of the run.
std::vector<size_t> shapeRepresentatives(const Traffic &T) {
  std::map<std::pair<bool, int64_t>, size_t> First;
  for (size_t I = 0; I != T.Inputs.size(); ++I) {
    bool Viterbi = Tenants[T.Inputs[I].Tenant].Viterbi;
    int64_t Length = T.Inputs[I].Args[Viterbi ? 2 : 3].Seq->length();
    First.emplace(std::make_pair(Viterbi, Length), I);
  }
  std::vector<size_t> Out;
  for (const auto &[Shape, I] : First)
    Out.push_back(I);
  return Out;
}

/// The box of every shape among \p Representatives, one per (function,
/// box).
std::vector<std::pair<const CompiledRecurrence *, solver::DomainBox>>
distinctShapes(const Traffic &T, const std::vector<size_t> &Representatives,
               const CompiledRecurrence *Fns[2]) {
  std::map<std::pair<const CompiledRecurrence *, std::vector<int64_t>>,
           solver::DomainBox>
      Shapes;
  for (size_t I : Representatives) {
    const Input &In = T.Inputs[I];
    const CompiledRecurrence *Fn = Fns[Tenants[In.Tenant].Viterbi ? 1 : 0];
    DiagnosticEngine Diags;
    std::optional<solver::DomainBox> Box = Fn->domainFor(In.Args, Diags);
    if (Box)
      Shapes.emplace(std::make_pair(Fn, Box->Upper), *Box);
  }
  std::vector<std::pair<const CompiledRecurrence *, solver::DomainBox>> Out;
  for (auto &[Key, Box] : Shapes)
    Out.emplace_back(Key.first, Box);
  return Out;
}

struct PlanTotals {
  uint64_t Lookups = 0, Hits = 0, Misses = 0;
};

PlanTotals planTotals(const std::deque<CompiledRecurrence> &Fns) {
  PlanTotals P;
  for (const CompiledRecurrence &Fn : Fns) {
    exec::PlanCache::Stats S = Fn.planCacheStats();
    P.Hits += S.Hits;
    P.Misses += S.Misses;
  }
  P.Lookups = P.Hits + P.Misses;
  return P;
}

} // namespace

Outcome perfbench::runServeWorkload(const RunConfig &Config) {
  Outcome Out;
  exec::RunOptions Defaults; // The engine plans with request options.

  // The traffic is the clients' script, not the server's set-up: it is
  // generated once, untimed, because its size grows with --seconds.
  Clock::time_point G0 = Clock::now();
  std::unique_ptr<Traffic> T = generateTraffic(Config.Seed, Config.Seconds);
  double GenerateSeconds = secondsSince(G0);
  const std::vector<size_t> Representatives = shapeRepresentatives(*T);

  // Cold set-up, repeated: both compiles, planning of every distinct
  // shape (what the first requests of each shape would pay), a first
  // untimed pass that runs one input of every shape on one thread, and
  // the router's shards and threads. None of it depends on --seconds.
  // The first pass makes set-up mostly CPU work: without it set-up took
  // about 0.6 ms, and its median moved 15% between runs. Half of the
  // repetitions run before the timed phase and half after it, because
  // one block of about 2 s sees a single host state: with one block of
  // 101 the median spread 0.33 over ten seeds.
  std::vector<double> SetupSeconds, CompileSeconds, ColdPlanSeconds,
      FirstPassSeconds, RouterSeconds;
  std::vector<double> FirstPassValues;
  exec::RunOptions Serial = Defaults;
  Serial.ScanWorkers = 1;
  gpu::Device FirstPassDevice(routerOptions().Shard.Model);
  size_t Shapes = 0;
  // One cold set-up into \p Fns and \p R; false (and a broken invariant)
  // on failure.
  auto coldSetUp = [&](std::deque<CompiledRecurrence> &Fns,
                       std::unique_ptr<serve::Router> &R) {
    R.reset();
    Fns.clear();
    Clock::time_point C0 = Clock::now();
    DiagnosticEngine Diags;
    for (const char *Source : {SmithWatermanSource, ViterbiSource}) {
      std::optional<CompiledRecurrence> Fn =
          CompiledRecurrence::compile(Source, Diags);
      if (!Fn) {
        Out.violate("compile failed: " + Diags.str());
        return false;
      }
      Fns.push_back(std::move(*Fn));
    }
    CompileSeconds.push_back(secondsSince(C0));
    const CompiledRecurrence *Ptrs[2] = {&Fns[0], &Fns[1]};
    Clock::time_point P0 = Clock::now();
    auto ShapeList = distinctShapes(*T, Representatives, Ptrs);
    for (const auto &[Fn, Box] : ShapeList)
      if (!Fn->planFor(Box, Defaults, nullptr, Diags)) {
        Out.violate("planning failed: " + Diags.str());
        return false;
      }
    ColdPlanSeconds.push_back(secondsSince(P0));
    Shapes = ShapeList.size();
    Clock::time_point F0 = Clock::now();
    FirstPassValues.clear();
    for (size_t I : Representatives) {
      const Input &In = T->Inputs[I];
      bool Viterbi = Tenants[In.Tenant].Viterbi;
      std::optional<exec::RunResult> Run = Ptrs[Viterbi ? 1 : 0]->runGpu(
          In.Args, FirstPassDevice, Diags, Serial);
      if (!Run) {
        Out.violate("first pass failed: " + Diags.str());
        return false;
      }
      FirstPassValues.push_back(Viterbi ? Run->RootValue : Run->TableMax);
    }
    FirstPassSeconds.push_back(secondsSince(F0));
    Clock::time_point R0 = Clock::now();
    R = std::make_unique<serve::Router>(routerOptions());
    RouterSeconds.push_back(secondsSince(R0));
    SetupSeconds.push_back(secondsSince(C0));
    return true;
  };
  // Runs one block of cold set-ups and checks the last first pass.
  auto setUpBlock = [&](std::deque<CompiledRecurrence> &Fns,
                        std::unique_ptr<serve::Router> &R) {
    for (unsigned Rep = 0; Rep != SetupRepsPerBlock; ++Rep)
      if (!coldSetUp(Fns, R))
        return false;
    for (size_t K = 0; K != Representatives.size(); ++K) {
      const Input &In = T->Inputs[Representatives[K]];
      ++Out.Attempted;
      if (!matches(FirstPassValues[K], In.Expected,
                   !Tenants[In.Tenant].Viterbi)) {
        ++Out.Failed;
        Out.note(format("MISMATCH first pass, input %zu: got %.17g "
                        "expected %.17g",
                        Representatives[K], FirstPassValues[K], In.Expected));
      }
    }
    return true;
  };

  computeExpected(*T);
  std::deque<CompiledRecurrence> Fns;
  std::unique_ptr<serve::Router> R;
  if (!setUpBlock(Fns, R))
    return Out;
  const CompiledRecurrence *FnPtrs[2] = {&Fns[0], &Fns[1]};
  const Input &Probe = T->Inputs[0];
  if (!oracleSelfCheck(Probe.Expected, !Tenants[Probe.Tenant].Viterbi))
    Out.violate("oracle self-check: a corrupted expected value was accepted");
  PlanTotals PlansAfterSetup = planTotals(Fns);

  size_t Count = T->Arrivals.size();
  Out.note(format("inputs: %zu arrivals at %.0f req/s over %.1f s (open loop, "
                  "one generator thread), %zu distinct inputs, %llu repeats, "
                  "%zu plan shapes",
                  Count, RatePerSecond, Config.Seconds, T->Inputs.size(),
                  static_cast<unsigned long long>(T->Repeats), Shapes));
  Out.note("router: 2 shards x 1 device, 1 batch worker + 1 scan worker per "
           "device, max batch 8, linger 2 ticks (1 tick = 1 ms), continuous "
           "batching, memo cap 256, weights heavy:light 10:1, interactive "
           "viterbi at priority 1 with deadline 256; evaluator vm");
  Out.note(format("traffic generated once in %.4f s (not part of set-up)",
                  GenerateSeconds));
  auto noteSetUp = [&] {
    std::vector<double> Early(SetupSeconds.begin(),
                              SetupSeconds.begin() + SetupRepsPerBlock);
    std::vector<double> Late(SetupSeconds.begin() + SetupRepsPerBlock,
                             SetupSeconds.end());
    Out.note(format("set-up: %zu cold repetitions, median %.4f s (min %.4f, "
                    "max %.4f; block medians %.4f before the timed phase, "
                    "%.4f after); medians: compile %.4f s, planning %.4f s, "
                    "first pass %.4f s, router %.4f s",
                    SetupSeconds.size(), median(SetupSeconds),
                    quantile(SetupSeconds, 0.0), quantile(SetupSeconds, 1.0),
                    median(Early), median(Late), median(CompileSeconds),
                    median(ColdPlanSeconds), median(FirstPassSeconds),
                    median(RouterSeconds)));
  };

  auto endToEnd = [&](const LoopResult &L) {
    // Goodput: cells of every request answered (memo hits included) per
    // wall second of the loop, drain included. Below
    // saturation it follows the offered load and falls when the router
    // falls behind. The bytecode VM's own speed is a per-layer metric
    // (scan.gcups): it moved 1.5x with host state between two sets of
    // runs, while goodput and latency did not.
    double Cells = 0.0;
    for (size_t I = 0; I != L.Done.size(); ++I)
      if (L.Done[I].St == serve::Status::Ok)
        Cells +=
            static_cast<double>(T->Inputs[T->Arrivals[I].Input].DomainCells);
    Out.metric("setup_s", median(SetupSeconds), "s");
    Out.metric("gcups", Cells / L.WallSeconds / 1e9, "Gcell/s");
    Out.metric("modelled_gpu_ms", modelledTrafficMs(*T, L, Out), "ms");
    Out.metric("latency_p50_ms", median(L.LatencySeconds) * 1e3, "ms");
    Out.metric("latency_p90_ms", quantile(L.LatencySeconds, 0.9) * 1e3, "ms");
    Out.metric("peak_rss_mb", peakRssMiB(), "MiB");
  };

  // The second block of cold set-ups, after the timed phase, on objects
  // of its own.
  auto lateSetUp = [&] {
    std::deque<CompiledRecurrence> LateFns;
    std::unique_ptr<serve::Router> LateR;
    bool Ok = setUpBlock(LateFns, LateR);
    noteSetUp();
    return Ok;
  };

  if (!Config.Trace) {
    LoopResult L = runOpenLoop(*R, *T, Count, FnPtrs, false);
    verifyLoop(*T, L, Out);
    Out.note(format("timed: %zu latency samples, p50 %.3f ms, p90 %.3f ms, "
                    "p99 %.3f ms (not gated)",
                    L.LatencySeconds.size(), median(L.LatencySeconds) * 1e3,
                    quantile(L.LatencySeconds, 0.9) * 1e3,
                    quantile(L.LatencySeconds, 0.99) * 1e3));
    if (!lateSetUp())
      return Out;
    endToEnd(L);
    return Out;
  }

  // Traced run: the first half of the traffic untraced, then the same
  // half again on a fresh router with every submit call timed.
  size_t Half = Count / 2;
  LoopResult Plain = runOpenLoop(*R, *T, Half, FnPtrs, false);
  verifyLoop(*T, Plain, Out);
  PlanTotals BeforeTraced = planTotals(Fns);
  R = std::make_unique<serve::Router>(routerOptions());
  LoopResult L = runOpenLoop(*R, *T, Half, FnPtrs, true);
  verifyLoop(*T, L, Out);
  PlanTotals AfterTraced = planTotals(Fns);
  if (!lateSetUp())
    return Out;

  std::vector<double> Queue, Exec;
  double CycleSum = 0.0;
  int64_t Partitions = 0;
  uint64_t Memoized = 0, Repeats = 0, Executed = 0;
  for (size_t I = 0; I != Half; ++I) {
    const Completion &C = L.Done[I];
    Repeats += T->Arrivals[I].Repeat;
    if (C.St != serve::Status::Ok)
      continue;
    if (C.Memoized) {
      ++Memoized;
      continue;
    }
    ++Executed;
    Queue.push_back(C.QueueSeconds);
    Exec.push_back(C.ExecSeconds);
    CycleSum += static_cast<double>(C.Cycles);
    Partitions += C.Partitions;
  }

  // Layer probes on a sample of distinct inputs, outside the loop.
  std::vector<double> Lookup, Bind, Scan, Dispatch;
  double ProbeCells = 0.0, ProbeScan = 0.0;
  for (const auto &[Fn, Box] : distinctShapes(*T, Representatives, FnPtrs)) {
    DiagnosticEngine Diags;
    Clock::time_point T0 = Clock::now();
    Fn->planFor(Box, Defaults, nullptr, Diags);
    Lookup.push_back(secondsSince(T0));
  }
  gpu::Device Device(routerOptions().Shard.Model);
  exec::SimulatedGpuBackend Backend(Device.costModel());
  std::vector<uint64_t> Cycles;
  for (size_t I = 0; I != std::min(ProbeInputs, T->Inputs.size()); ++I) {
    const Input &In = T->Inputs[I];
    const CompiledRecurrence *Fn = FnPtrs[Tenants[In.Tenant].Viterbi ? 1 : 0];
    DiagnosticEngine Diags;
    std::optional<solver::DomainBox> Box = Fn->domainFor(In.Args, Diags);
    auto Plan = Box ? Fn->planFor(*Box, Serial, nullptr, Diags) : nullptr;
    if (!Plan) {
      Out.violate("probe planning failed");
      return Out;
    }
    Clock::time_point T0 = Clock::now();
    codegen::Evaluator Eval(Fn->decl(), Fn->info());
    Eval.bind(In.Args);
    Clock::time_point T1 = Clock::now();
    exec::RunResult Run = Backend.execute(*Plan, Eval, Serial);
    Clock::time_point T2 = Clock::now();
    Bind.push_back(std::chrono::duration<double>(T1 - T0).count());
    Scan.push_back(std::chrono::duration<double>(T2 - T1).count());
    ProbeScan += Scan.back();
    ProbeCells += static_cast<double>(In.DomainCells);
    Cycles.push_back(Run.Cycles);
    if (Cycles.size() == 8) {
      Clock::time_point D0 = Clock::now();
      Device.dispatchProblems(Cycles);
      Dispatch.push_back(secondsSince(D0));
      Cycles.clear();
    }
  }

  const serve::Engine::Stats &S = L.Stats.Total;
  uint64_t Busiest = 0, DeviceCycles = 0, MaxDepth = 0;
  for (const serve::Engine::Stats &Shard : L.Stats.PerShard) {
    Busiest = std::max(Busiest, Shard.maxDeviceCycles());
    for (uint64_t C : Shard.DeviceCycles)
      DeviceCycles += C;
    MaxDepth = std::max(MaxDepth, Shard.MaxQueueDepth);
  }
  double P50Plain = median(Plain.LatencySeconds);
  double P50Traced = median(L.LatencySeconds);
  uint64_t LoopLookups = AfterTraced.Lookups - BeforeTraced.Lookups;
  uint64_t LoopHits = AfterTraced.Hits - BeforeTraced.Hits;

  Out.note(format("traced: %zu requests untraced, then the same %zu with "
                  "timed submits on a fresh router",
                  Half, Half));
  Out.note("latency breakdown (median per executed request):");
  auto row = [&](const char *Label, double Seconds) {
    Out.note(format("  %-26s %10.3f ms", Label, Seconds * 1e3));
  };
  row("serve   submit", median(L.SubmitSeconds));
  row("serve   queue", median(Queue));
  row("exec    batch execution", median(Exec));
  row("queue + exec", median(Queue) + median(Exec));
  row("total latency (due->done)", P50Traced);
  row("generator lateness p50", median(L.LateSeconds));

  Out.metric("frontend.compile_ms", median(CompileSeconds) * 1e3, "ms");
  Out.metric("plan.builds", static_cast<double>(PlansAfterSetup.Misses),
             "count");
  Out.metric("plan.build_ms", median(ColdPlanSeconds) * 1e3, "ms");
  Out.metric("plan.lookup_us_p50", median(Lookup) * 1e6, "us");
  Out.metric("plan.hit_ratio",
             LoopLookups ? static_cast<double>(LoopHits) /
                               static_cast<double>(LoopLookups)
                         : 0.0,
             "fraction");
  Out.metric("bind.us_p50", median(Bind) * 1e6, "us");
  Out.metric("scan.ms_p50", median(Scan) * 1e3, "ms");
  Out.metric("scan.gcups", ProbeScan > 0.0 ? ProbeCells / ProbeScan / 1e9 : 0.0,
             "Gcell/s");
  Out.metric("dispatch.us", median(Dispatch) * 1e6, "us");
  Out.metric("scan.partitions", static_cast<double>(Partitions), "count");
  Out.metric("gpu.makespan_cycles", static_cast<double>(Busiest), "cycles");
  Out.metric("gpu.problem_cycles_sum", CycleSum, "cycles");
  Out.metric("gpu.mp_occupancy",
             DeviceCycles ? CycleSum / (static_cast<double>(DeviceCycles) *
                                        Device.costModel().NumMultiprocessors)
                          : 0.0,
             "fraction");
  Out.metric("serve.submit_us_p50", median(L.SubmitSeconds) * 1e6, "us");
  Out.metric("serve.exec_ms_p50", median(Exec) * 1e3, "ms");
  Out.metric("memo.hit_ratio",
             Repeats ? static_cast<double>(Memoized) /
                           static_cast<double>(Repeats)
                     : 0.0,
             "fraction");
  Out.metric("serve.queue_ms_p50", median(Queue) * 1e3, "ms");
  Out.metric("serve.queue_ms_p90", quantile(Queue, 0.9) * 1e3, "ms");
  Out.metric("serve.batch_size_mean",
             S.Batches ? static_cast<double>(Executed) /
                             static_cast<double>(S.Batches)
                       : 0.0,
             "requests");
  Out.metric("serve.continuous_joins", static_cast<double>(S.ContinuousJoins),
             "count");
  Out.metric("serve.max_queue_depth", static_cast<double>(MaxDepth), "count");
  Out.metric("router.spilled", static_cast<double>(L.Stats.Spilled), "count");
  Out.metric("serve.latency_p99_ms", quantile(L.LatencySeconds, 0.99) * 1e3,
             "ms");
  Out.metric("serve.latency_samples",
             static_cast<double>(L.LatencySeconds.size()), "count");
  Out.metric("gen.late_ms_p99", quantile(L.LateSeconds, 0.99) * 1e3, "ms");
  Out.metric("trace.overhead_frac", (P50Traced - P50Plain) / P50Plain,
             "fraction");
  return Out;
}
