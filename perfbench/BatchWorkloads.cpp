//===- BatchWorkloads.cpp - sw_db, profile_forward and sw_long -------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// The three batch workloads share one harness. Set-up is repeated cold
// (fresh compile, fresh empty JIT cache, first untimed pass) and its
// median reported. The end-to-end run then repeats the whole search for
// the configured seconds. The traced run instead interleaves three
// passes per round: the search at one worker, the same search decomposed
// into timed calls to each layer's public function, and the search at
// two workers.
//
//===----------------------------------------------------------------------===//

#include "Oracles.h"
#include "Workloads.h"

#include "bio/Fasta.h"
#include "bio/HmmZoo.h"
#include "bio/SubstitutionMatrix.h"
#include "exec/ExecutionBackend.h"
#include "obs/Metrics.h"
#include "runtime/CompiledRecurrence.h"
#include "support/Random.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>

using namespace parrec;
using namespace perfbench;
using codegen::ArgValue;
using runtime::CompiledRecurrence;

namespace {

const char *ForwardSource =
    "prob forward(hmm h, state[h] s, seq[*] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))\n";

/// Generated inputs, owned on the heap; deques keep the addresses
/// problems point at.
struct Inputs {
  std::deque<bio::Sequence> Seqs;
  std::deque<bio::Hmm> Models;
  std::vector<std::vector<ArgValue>> Problems;
  std::vector<double> Expected; ///< Oracle value per problem.
  uint64_t DomainCells = 0;     ///< Cells of every problem's domain.
  std::string Shape;
};

struct BatchSpec {
  const char *Name;
  const char *Source;
  /// One problem through runGpu instead of a batch through runGpuBatch.
  bool Single;
  unsigned BatchWorkers;
  unsigned ScanWorkers;
  /// Integer scores compared exactly (TableMax), or log-space root
  /// values compared within LogSpaceTolerance (RootValue).
  bool IntegerScores;
  unsigned SetupReps;
  std::unique_ptr<Inputs> (*Generate)(uint64_t Seed);
  void (*Oracle)(Inputs &In);
};

const bio::Sequence &addProtein(Inputs &In, int64_t Length, uint64_t Seed,
                                std::string Name) {
  In.Seqs.push_back(bio::randomSequence(bio::Alphabet::protein(), Length,
                                        Seed, std::move(Name)));
  return In.Seqs.back();
}

/// One 300-residue query against 64 subjects of 30-600 residues. Lengths
/// are stratified, one per 1/64th of the range, so the total cell count
/// barely moves between seeds while almost every subject has its own
/// domain box. Neighbouring strata stay adjacent (pairs in random order,
/// random order within a pair): batch workers that take alternate
/// problems then get equal work whatever the seed, instead of a
/// seed-dependent imbalance of several percent.
std::unique_ptr<Inputs> swDbInputs(uint64_t Seed) {
  SplitMix64 Rng(mixSeed(Seed, 0x5D0B));
  auto Owned = std::make_unique<Inputs>();
  Inputs &In = *Owned;
  const bio::Sequence &Query = addProtein(In, 300, Rng.next(), "query");
  constexpr unsigned Subjects = 64;
  std::vector<unsigned> Pairs(Subjects / 2);
  for (unsigned P = 0; P != Pairs.size(); ++P)
    Pairs[P] = P;
  for (unsigned P = Pairs.size() - 1; P > 0; --P)
    std::swap(Pairs[P], Pairs[Rng.nextBelow(P + 1)]);
  std::vector<int64_t> Lengths;
  for (unsigned P : Pairs) {
    bool Flip = Rng.nextBelow(2);
    for (unsigned K : {2 * P + Flip, 2 * P + 1 - Flip}) {
      double U = static_cast<double>(Rng.nextBelow(1u << 20)) / (1u << 20);
      Lengths.push_back(30 + static_cast<int64_t>((K + U) * 571.0 / Subjects));
    }
  }
  const bio::SubstitutionMatrix &Blosum = bio::SubstitutionMatrix::blosum62();
  for (unsigned K = 0; K != Subjects; ++K) {
    const bio::Sequence &Subject =
        addProtein(In, Lengths[K], Rng.next(), "s" + std::to_string(K));
    In.Problems.push_back({ArgValue::ofMatrix(&Blosum), ArgValue::ofSeq(&Query),
                           ArgValue(), ArgValue::ofSeq(&Subject), ArgValue()});
    In.DomainCells += 301 * static_cast<uint64_t>(Lengths[K] + 1);
  }
  In.Shape = "query 300 x 64 subjects of 30-600 residues (stratified)";
  return Owned;
}

/// 64 reads of one length (198-202, drawn from the seed so the modelled
/// time differs between seeds) against one fixed 30-position profile HMM
/// with its silent delete states eliminated. The model does not vary with
/// the seed: log-space arithmetic speed depends on the parameter values,
/// and one random model per run made whole runs faster or slower.
std::unique_ptr<Inputs> profileInputs(uint64_t Seed) {
  SplitMix64 Rng(mixSeed(Seed, 0xF0D));
  auto Owned = std::make_unique<Inputs>();
  Inputs &In = *Owned;
  DiagnosticEngine Diags;
  std::optional<bio::Hmm> Model = bio::eliminateSilentStates(
      bio::makeProfileHmm(30, bio::Alphabet::protein(), 0xABCD), Diags);
  if (!Model)
    return Owned; // No problems; the caller reports the failure.
  In.Models.push_back(std::move(*Model));
  const bio::Hmm &Hmm = In.Models.back();
  int64_t Length = 198 + static_cast<int64_t>(Rng.nextBelow(5));
  for (unsigned K = 0; K != 64; ++K) {
    const bio::Sequence &Read =
        addProtein(In, Length, Rng.next(), "r" + std::to_string(K));
    In.Problems.push_back({ArgValue::ofHmm(&Hmm), ArgValue(),
                           ArgValue::ofSeq(&Read), ArgValue()});
    In.DomainCells += Hmm.numStates() * static_cast<uint64_t>(Length + 1);
  }
  In.Shape = format("64 reads of %lld residues x profile HMM of 30 positions "
                    "(%u states after silent-state elimination)",
                    static_cast<long long>(Length), Hmm.numStates());
  return Owned;
}

/// One alignment of two proteins of 1996-2004 residues each.
std::unique_ptr<Inputs> swLongInputs(uint64_t Seed) {
  SplitMix64 Rng(mixSeed(Seed, 0x1096));
  auto Owned = std::make_unique<Inputs>();
  Inputs &In = *Owned;
  int64_t N = 1996 + static_cast<int64_t>(Rng.nextBelow(9));
  int64_t M = 1996 + static_cast<int64_t>(Rng.nextBelow(9));
  const bio::Sequence &A = addProtein(In, N, Rng.next(), "a");
  const bio::Sequence &B = addProtein(In, M, Rng.next(), "b");
  const bio::SubstitutionMatrix &Blosum = bio::SubstitutionMatrix::blosum62();
  In.Problems.push_back({ArgValue::ofMatrix(&Blosum), ArgValue::ofSeq(&A),
                         ArgValue(), ArgValue::ofSeq(&B), ArgValue()});
  In.DomainCells = static_cast<uint64_t>(N + 1) * static_cast<uint64_t>(M + 1);
  In.Shape = format("one alignment %lld x %lld", static_cast<long long>(N),
                    static_cast<long long>(M));
  return Owned;
}

void smithWatermanExpected(Inputs &In) {
  In.Expected.clear();
  for (const std::vector<ArgValue> &P : In.Problems)
    In.Expected.push_back(smithWatermanOracle(*P[1].Seq, *P[3].Seq));
}

void forwardExpected(Inputs &In) {
  In.Expected.clear();
  for (const std::vector<ArgValue> &P : In.Problems)
    In.Expected.push_back(forwardOracle(*P[0].Hmm, *P[2].Seq));
}

const BatchSpec Specs[] = {
    {"sw_db", SmithWatermanSource, false, 2, 1, true, 3, swDbInputs,
     smithWatermanExpected},
    {"profile_forward", ForwardSource, false, 2, 1, false, 9, profileInputs,
     forwardExpected},
    {"sw_long", SmithWatermanSource, true, 1, 2, true, 9, swLongInputs,
     smithWatermanExpected},
};

const BatchSpec *findSpec(const std::string &Name) {
  for (const BatchSpec &S : Specs)
    if (Name == S.Name)
      return &S;
  return nullptr;
}

/// The observable outcome of one search.
struct SearchResult {
  bool Ok = false;
  double WallSeconds = 0.0;
  std::vector<double> Values;
  uint64_t ModelledCycles = 0;
  double ModelledSeconds = 0.0;
  uint64_t ProblemCyclesSum = 0;
  int64_t Partitions = 0;
  std::string Error;
};

double readout(const exec::RunResult &R, bool IntegerScores) {
  return IntegerScores ? R.TableMax : R.RootValue;
}

/// Runs the whole search once through the public entry point; only the
/// runGpu / runGpuBatch call is timed.
SearchResult search(const BatchSpec &Spec, const CompiledRecurrence &Fn,
                    const Inputs &In, const gpu::Device &Device,
                    const exec::RunOptions &Opts) {
  SearchResult Out;
  DiagnosticEngine Diags;
  if (Spec.Single) {
    Clock::time_point T0 = Clock::now();
    std::optional<exec::RunResult> R =
        Fn.runGpu(In.Problems[0], Device, Diags, Opts);
    Out.WallSeconds = secondsSince(T0);
    if (!R) {
      Out.Error = Diags.str();
      return Out;
    }
    Out.Values.push_back(readout(*R, Spec.IntegerScores));
    Out.ModelledCycles = R->Cycles;
    Out.ModelledSeconds = Device.costModel().gpuSeconds(R->Cycles);
    Out.ProblemCyclesSum = R->Cycles;
    Out.Partitions = R->Partitions;
  } else {
    Clock::time_point T0 = Clock::now();
    std::optional<exec::BatchResult> B =
        Fn.runGpuBatch(In.Problems, Device, Diags, Opts);
    Out.WallSeconds = secondsSince(T0);
    if (!B) {
      Out.Error = Diags.str();
      return Out;
    }
    for (const exec::RunResult &R : B->Problems) {
      Out.Values.push_back(readout(R, Spec.IntegerScores));
      Out.ProblemCyclesSum += R.Cycles;
      Out.Partitions += R.Partitions;
    }
    Out.ModelledCycles = B->TotalCycles;
    Out.ModelledSeconds = B->Seconds;
  }
  Out.Ok = true;
  return Out;
}

/// Checks every value against the oracle; counts into \p Out.
void verify(const BatchSpec &Spec, const Inputs &In,
            const std::vector<double> &Values, Outcome &Out) {
  Out.Attempted += In.Expected.size();
  if (Values.size() != In.Expected.size()) {
    Out.Failed += In.Expected.size();
    return;
  }
  for (size_t I = 0; I != Values.size(); ++I)
    if (!matches(Values[I], In.Expected[I], Spec.IntegerScores)) {
      ++Out.Failed;
      Out.note(format("MISMATCH problem %zu: got %.17g expected %.17g", I,
                      Values[I], In.Expected[I]));
    }
}

/// Counter and distribution readings of the JIT's registry entries.
struct JitReading {
  uint64_t Misses = 0;
  uint64_t Fallbacks = 0;
  double CompileNs = 0.0;

  static JitReading now() {
    obs::MetricsSnapshot S = obs::MetricsRegistry::global().snapshot();
    JitReading R;
    R.Misses = S.counter("jit.cache_misses");
    R.Fallbacks = S.counter("jit.fallbacks");
    auto It = S.Distributions.find("jit.compile_ns");
    if (It != S.Distributions.end())
      R.CompileNs = It->second.Sum;
    return R;
  }
};

/// Per-call layer timings of one decomposed search.
struct LayerPass {
  std::vector<double> PlanSeconds, BindSeconds, ScanSeconds;
  double DispatchSeconds = 0.0;
  double WallSeconds = 0.0;
  std::vector<double> Values;

  double layerSum() const {
    return sum(PlanSeconds) + sum(BindSeconds) + sum(ScanSeconds) +
           DispatchSeconds;
  }
};

/// The search decomposed into the calls runGpuBatch (or runGpu) makes,
/// on one thread, each timed: domainFor + selectSchedule + planFor
/// (warm), Evaluator construction + bind, SimulatedGpuBackend::execute,
/// and Device::dispatchProblems for batches.
std::optional<LayerPass> decomposedSearch(const BatchSpec &Spec,
                                          const CompiledRecurrence &Fn,
                                          const Inputs &In,
                                          const gpu::Device &Device,
                                          const exec::RunOptions &Opts) {
  LayerPass Pass;
  DiagnosticEngine Diags;
  exec::SimulatedGpuBackend Backend(Device.costModel());
  const auto &Candidates = Fn.conditionalSchedules(Diags);
  std::vector<uint64_t> Cycles;
  Clock::time_point Start = Clock::now();
  for (const std::vector<ArgValue> &Args : In.Problems) {
    Clock::time_point T0 = Clock::now();
    std::optional<solver::DomainBox> Box = Fn.domainFor(Args, Diags);
    if (!Box)
      return std::nullopt;
    const solver::Schedule *Pre = nullptr;
    if (!Spec.Single && Candidates)
      Pre = &solver::selectSchedule(*Candidates, *Box).S;
    std::shared_ptr<const exec::ExecutablePlan> Plan =
        Fn.planFor(*Box, Opts, Pre, Diags, &Device.costModel());
    if (!Plan)
      return std::nullopt;
    Clock::time_point T1 = Clock::now();
    codegen::Evaluator Eval(Fn.decl(), Fn.info());
    Eval.bind(Args);
    Clock::time_point T2 = Clock::now();
    exec::RunResult R = Backend.execute(*Plan, Eval, Opts);
    Clock::time_point T3 = Clock::now();
    Pass.PlanSeconds.push_back(std::chrono::duration<double>(T1 - T0).count());
    Pass.BindSeconds.push_back(std::chrono::duration<double>(T2 - T1).count());
    Pass.ScanSeconds.push_back(std::chrono::duration<double>(T3 - T2).count());
    Pass.Values.push_back(readout(R, Spec.IntegerScores));
    Cycles.push_back(R.Cycles);
  }
  if (!Spec.Single) {
    Clock::time_point T0 = Clock::now();
    uint64_t Makespan = Device.dispatchProblems(Cycles);
    Pass.DispatchSeconds = secondsSince(T0);
    if (Makespan == 0)
      return std::nullopt;
  }
  Pass.WallSeconds = secondsSince(Start);
  return Pass;
}

/// Cold planning without the JIT on a fresh compile: schedule synthesis,
/// window decision and loop generation for every distinct box. Returns
/// the summed planFor seconds, or a negative value on failure.
double coldPlanningSeconds(const BatchSpec &Spec, const Inputs &In,
                           const gpu::Device &Device) {
  DiagnosticEngine Diags;
  std::optional<CompiledRecurrence> Fn =
      CompiledRecurrence::compile(Spec.Source, Diags);
  if (!Fn)
    return -1.0;
  exec::RunOptions Opts;
  Opts.Evaluator = exec::EvalKind::Vm;
  const auto &Candidates = Fn->conditionalSchedules(Diags);
  double Total = 0.0;
  for (const std::vector<ArgValue> &Args : In.Problems) {
    std::optional<solver::DomainBox> Box = Fn->domainFor(Args, Diags);
    if (!Box)
      return -1.0;
    const solver::Schedule *Pre = nullptr;
    if (!Spec.Single && Candidates)
      Pre = &solver::selectSchedule(*Candidates, *Box).S;
    Clock::time_point T0 = Clock::now();
    if (!Fn->planFor(*Box, Opts, Pre, Diags, &Device.costModel()))
      return -1.0;
    Total += secondsSince(T0);
  }
  return Total;
}

} // namespace

bool perfbench::isBatchWorkload(const std::string &Name) {
  return findSpec(Name) != nullptr;
}

Outcome perfbench::runBatchWorkload(const RunConfig &Config) {
  const BatchSpec &Spec = *findSpec(Config.Workload);
  Outcome Out;
  ScratchDirs Dirs(Config.ScratchRoot);
  gpu::Device Device;

  exec::RunOptions Opts;
  Opts.Evaluator = exec::EvalKind::Jit;
  Opts.BatchWorkers = Spec.BatchWorkers;
  Opts.ScanWorkers = Spec.ScanWorkers;

  // Cold set-up, repeated: inputs, compile, empty private JIT cache, and
  // the first (untimed) search, which plans every box and compiles every
  // kernel.
  std::vector<double> SetupSeconds, CompileSeconds;
  std::unique_ptr<Inputs> In;
  std::optional<CompiledRecurrence> Fn;
  SearchResult First;
  JitReading JitCold;
  exec::PlanCache::Stats PlanCold;
  for (unsigned Rep = 0; Rep != Spec.SetupReps; ++Rep) {
    Fn.reset();
    JitReading Before = JitReading::now();
    Clock::time_point T0 = Clock::now();
    In = Spec.Generate(Config.Seed);
    Clock::time_point C0 = Clock::now();
    DiagnosticEngine Diags;
    Fn = CompiledRecurrence::compile(Spec.Source, Diags);
    CompileSeconds.push_back(secondsSince(C0));
    if (!Fn || In->Problems.empty()) {
      Out.violate("set-up failed: " + Diags.str());
      return Out;
    }
    Opts.JitCacheDir = Dirs.fresh("jit");
    SearchResult R = search(Spec, *Fn, *In, Device, Opts);
    SetupSeconds.push_back(secondsSince(T0));
    if (!R.Ok) {
      Out.violate("first search failed: " + R.Error);
      return Out;
    }
    JitReading After = JitReading::now();
    JitReading Delta{After.Misses - Before.Misses,
                     After.Fallbacks - Before.Fallbacks,
                     After.CompileNs - Before.CompileNs};
    if (Rep == 0) {
      First = R;
      JitCold = Delta;
      PlanCold = Fn->planCacheStats();
    } else if (Delta.Misses != JitCold.Misses ||
               R.ModelledCycles != First.ModelledCycles) {
      Out.violate("cold set-up did not repeat (kernels or modelled cycles)");
    }
  }
  Spec.Oracle(*In);
  verify(Spec, *In, First.Values, Out);
  if (!oracleSelfCheck(First.Values[0], Spec.IntegerScores))
    Out.violate("oracle self-check: a corrupted expected value was accepted");

  Out.note(format("inputs: %s; %llu domain cells per search", In->Shape.c_str(),
                  static_cast<unsigned long long>(In->DomainCells)));
  Out.note(format("options: evaluator=jit batch_workers=%u scan_workers=%u "
                  "(explicit), private JIT cache per cold set-up",
                  Spec.BatchWorkers, Spec.ScanWorkers));
  Out.note(format("set-up: %u cold repetitions, median %.4f s (min %.4f, max "
                  "%.4f)",
                  Spec.SetupReps, median(SetupSeconds),
                  quantile(SetupSeconds, 0.0), quantile(SetupSeconds, 1.0)));

  auto checkRepeat = [&](const SearchResult &R) {
    if (!R.Ok) {
      Out.Attempted += In->Expected.size();
      Out.Failed += In->Expected.size();
      Out.note("search failed: " + R.Error);
      return;
    }
    verify(Spec, *In, R.Values, Out);
    if (R.ModelledCycles != First.ModelledCycles)
      Out.violate("modelled cycles differ between repetitions");
  };

  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Config.Seconds));

  if (!Config.Trace) {
    std::vector<double> Wall;
    while (Clock::now() < Deadline || Wall.size() < 5) {
      SearchResult R = search(Spec, *Fn, *In, Device, Opts);
      checkRepeat(R);
      Wall.push_back(R.WallSeconds);
    }
    double Med = median(Wall);
    Out.note(format("timed: %zu searches; p10 %.3f ms, p50 %.3f ms, p90 %.3f "
                    "ms",
                    Wall.size(), quantile(Wall, 0.1) * 1e3, Med * 1e3,
                    quantile(Wall, 0.9) * 1e3));
    Out.metric("setup_s", median(SetupSeconds), "s");
    Out.metric("gcups", static_cast<double>(In->DomainCells) / Med / 1e9,
               "Gcell/s");
    Out.metric("modelled_gpu_ms", First.ModelledSeconds * 1e3, "ms");
    Out.metric("latency_p50_ms", Med * 1e3, "ms");
    Out.metric("latency_p90_ms", quantile(Wall, 0.9) * 1e3, "ms");
    Out.metric("peak_rss_mb", peakRssMiB(), "MiB");
    return Out;
  }

  // Traced run. Single-problem workloads compare scan workers 1 vs 2;
  // batches compare batch workers 1 vs 2 (scan workers stay at 1).
  exec::RunOptions One = Opts, Two = Opts;
  if (Spec.Single) {
    One.ScanWorkers = 1;
    Two.ScanWorkers = 2;
  } else {
    One.BatchWorkers = 1;
    Two.BatchWorkers = 2;
  }
  std::vector<double> WallOne, WallTwo, PassWall, PassLayers, PassPlan,
      PassBind, PassScan, PlanCalls, BindCalls, ScanCalls, Dispatch;
  while (Clock::now() < Deadline || WallOne.size() < 3) {
    SearchResult A = search(Spec, *Fn, *In, Device, One);
    checkRepeat(A);
    WallOne.push_back(A.WallSeconds);
    std::optional<LayerPass> P = decomposedSearch(Spec, *Fn, *In, Device, One);
    if (!P) {
      Out.violate("decomposed search failed");
      return Out;
    }
    verify(Spec, *In, P->Values, Out);
    PassWall.push_back(P->WallSeconds);
    PassLayers.push_back(P->layerSum());
    PassPlan.push_back(sum(P->PlanSeconds));
    PassBind.push_back(sum(P->BindSeconds));
    PassScan.push_back(sum(P->ScanSeconds));
    PlanCalls.insert(PlanCalls.end(), P->PlanSeconds.begin(),
                     P->PlanSeconds.end());
    BindCalls.insert(BindCalls.end(), P->BindSeconds.begin(),
                     P->BindSeconds.end());
    ScanCalls.insert(ScanCalls.end(), P->ScanSeconds.begin(),
                     P->ScanSeconds.end());
    Dispatch.push_back(P->DispatchSeconds);
    SearchResult B = search(Spec, *Fn, *In, Device, Two);
    checkRepeat(B);
    WallTwo.push_back(B.WallSeconds);
  }
  for (int I = 0; I != 10; ++I) {
    DiagnosticEngine Diags;
    Clock::time_point T0 = Clock::now();
    if (CompiledRecurrence::compile(Spec.Source, Diags))
      CompileSeconds.push_back(secondsSince(T0));
  }
  double ColdPlan = coldPlanningSeconds(Spec, *In, Device);
  if (ColdPlan < 0.0)
    Out.violate("cold planning pass failed");

  double EndToEndOne = median(WallOne);
  double Layers = median(PassLayers);
  const char *Path = Spec.Single ? "runGpu" : "runGpuBatch";
  Out.note(format("traced: %zu rounds of [%s at 1 worker, decomposed pass, "
                  "%s at 2 workers]",
                  WallOne.size(), Path, Path));
  Out.note("layer table (median per search, 1 worker):");
  auto row = [&](const std::string &Label, double Seconds) {
    Out.note(format("  %-26s %10.3f ms", Label.c_str(), Seconds * 1e3));
  };
  row("plan    domainFor+planFor", median(PassPlan));
  row("codegen Evaluator::bind", median(PassBind));
  row("exec    execute (scan)", median(PassScan));
  row("gpu     dispatchProblems", median(Dispatch));
  row("sum of layers", Layers);
  row(std::string(Path) + " end to end", EndToEndOne);
  Out.note(format("  unattributed               %10.2f %%",
                  (1.0 - Layers / EndToEndOne) * 100.0));

  double Mps = Device.costModel().NumMultiprocessors;
  Out.metric("frontend.compile_ms", median(CompileSeconds) * 1e3, "ms");
  Out.metric("plan.builds", static_cast<double>(PlanCold.Misses), "count");
  Out.metric("plan.build_ms", ColdPlan * 1e3, "ms");
  Out.metric("plan.lookup_us_p50", median(PlanCalls) * 1e6, "us");
  Out.metric("plan.hit_ratio",
             static_cast<double>(PlanCold.Hits) /
                 static_cast<double>(PlanCold.Hits + PlanCold.Misses),
             "fraction");
  Out.metric("jit.kernels_compiled", static_cast<double>(JitCold.Misses),
             "count");
  Out.metric("jit.compile_ms", JitCold.CompileNs / 1e6, "ms");
  Out.metric("jit.fallbacks", static_cast<double>(JitCold.Fallbacks), "count");
  Out.metric("bind.us_p50", median(BindCalls) * 1e6, "us");
  Out.metric("scan.ms_p50", median(ScanCalls) * 1e3, "ms");
  Out.metric("scan.gcups",
             static_cast<double>(In->DomainCells) / median(PassScan) / 1e9,
             "Gcell/s");
  if (Spec.Single) {
    Out.metric("scan.fanout_speedup", EndToEndOne / median(WallTwo), "x");
  } else {
    Out.metric("dispatch.us", median(Dispatch) * 1e6, "us");
    Out.metric("batch.fanout_speedup", EndToEndOne / median(WallTwo), "x");
  }
  Out.metric("batch.unattributed_frac", 1.0 - Layers / EndToEndOne, "fraction");
  Out.metric("scan.partitions", static_cast<double>(First.Partitions), "count");
  Out.metric("gpu.makespan_cycles", static_cast<double>(First.ModelledCycles),
             "cycles");
  Out.metric("gpu.problem_cycles_sum",
             static_cast<double>(First.ProblemCyclesSum), "cycles");
  Out.metric("gpu.mp_occupancy",
             static_cast<double>(First.ProblemCyclesSum) /
                 (static_cast<double>(First.ModelledCycles) * Mps),
             "fraction");
  Out.metric("trace.overhead_frac",
             (median(PassWall) - EndToEndOne) / EndToEndOne, "fraction");
  return Out;
}
