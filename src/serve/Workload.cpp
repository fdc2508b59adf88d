//===- Workload.cpp - Serving-engine replay workloads -----------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "serve/Workload.h"

#include "serve/Router.h"

#include "bio/Fasta.h"
#include "bio/HmmZoo.h"
#include "bio/SubstitutionMatrix.h"
#include "obs/Json.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

using namespace parrec;
using namespace parrec::serve;

namespace {

/// The case-study recursions the replay tenants draw from; the same
/// shapes the benches and differential tests use.
const char *SmithWatermanSource =
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

const char *DnaViterbiSource =
    "prob viterbi(hmm h, state[h] s, seq[dna] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    max(t in s.transitionsto : t.prob * viterbi(t.start, i - 1))\n";

const char *sourceForKind(const std::string &Kind) {
  if (Kind == "smith_waterman")
    return SmithWatermanSource;
  if (Kind == "forward")
    return DnaForwardSource;
  if (Kind == "viterbi")
    return DnaViterbiSource;
  return nullptr;
}

/// The workload generator's only randomness: a 64-bit LCG, deterministic
/// in the tenant seed and independent of everything else in the process.
class Lcg {
public:
  explicit Lcg(uint64_t Seed)
      : State(Seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull) {}

  uint64_t next() {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    return State >> 17;
  }

  uint64_t below(uint64_t N) { return N ? next() % N : 0; }

private:
  uint64_t State;
};

/// Geometric inter-arrival draw with mean \p Mean ticks (capped at 8x),
/// the discrete analogue of Poisson arrivals.
uint64_t arrivalGap(Lcg &Rng, uint64_t Mean) {
  if (Mean <= 1)
    return 1;
  uint64_t Gap = 1;
  while (Gap < Mean * 8 && Rng.below(Mean) != 0)
    ++Gap;
  return Gap;
}

bool specError(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
  return false;
}

bool parseTenant(const obs::JsonValue &Doc, size_t Index, TenantSpec &Out,
                 std::string *Error) {
  std::string Where = "tenants[" + std::to_string(Index) + "]";
  if (!Doc.isObject())
    return specError(Error, Where + ": expected an object");
  Out.Name = Doc.stringOr("name", "tenant" + std::to_string(Index));
  Out.Kind = Doc.stringOr("kind", "");
  if (!sourceForKind(Out.Kind))
    return specError(Error, Where + ": unknown kind '" + Out.Kind +
                                "' (expected smith_waterman, forward or "
                                "viterbi)");
  Out.Requests = static_cast<uint64_t>(Doc.integerOr("requests", 8));
  if (Out.Requests == 0)
    return specError(Error, Where + ": requests must be at least 1");
  Out.MinLength = Doc.integerOr("min_length", 24);
  Out.MaxLength = Doc.integerOr("max_length", 48);
  if (Out.MinLength < 1 || Out.MaxLength < Out.MinLength)
    return specError(Error,
                     Where + ": need 1 <= min_length <= max_length");
  Out.MeanGapTicks =
      static_cast<uint64_t>(Doc.integerOr("mean_gap_ticks", 1));
  Out.DeadlineTicks =
      static_cast<uint64_t>(Doc.integerOr("deadline_ticks", 0));
  Out.Priority = static_cast<int>(Doc.integerOr("priority", 0));
  int64_t Weight = Doc.integerOr("weight", 1);
  if (Weight < 1)
    return specError(Error, Where + ": weight must be at least 1");
  Out.Weight = static_cast<uint64_t>(Weight);
  Out.Seed = static_cast<uint64_t>(Doc.integerOr("seed", Index + 1));
  return true;
}

} // namespace

std::optional<WorkloadSpec>
serve::parseWorkloadSpec(const obs::JsonValue &Doc, std::string *Error) {
  if (!Doc.isObject()) {
    specError(Error, "workload: expected a top-level object");
    return std::nullopt;
  }
  const obs::JsonValue *Tenants = Doc.member("tenants");
  if (!Tenants || !Tenants->isArray() || Tenants->array().empty()) {
    specError(Error, "workload: expected a non-empty 'tenants' array");
    return std::nullopt;
  }
  WorkloadSpec Spec;
  Spec.Tenants.reserve(Tenants->array().size());
  for (size_t I = 0; I != Tenants->array().size(); ++I) {
    TenantSpec Tenant;
    if (!parseTenant(Tenants->array()[I], I, Tenant, Error))
      return std::nullopt;
    Spec.Tenants.push_back(std::move(Tenant));
  }
  return Spec;
}

std::optional<WorkloadSpec> serve::loadWorkloadSpec(const std::string &Path,
                                                    std::string *Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    specError(Error, "cannot read workload file '" + Path + "'");
    return std::nullopt;
  }
  std::ostringstream Text;
  Text << In.rdbuf();
  std::string ParseError;
  std::optional<obs::JsonValue> Doc =
      obs::parseJson(Text.str(), &ParseError);
  if (!Doc) {
    specError(Error, "workload file '" + Path + "': " + ParseError);
    return std::nullopt;
  }
  return parseWorkloadSpec(*Doc, Error);
}

std::optional<Workload> Workload::build(const WorkloadSpec &Spec,
                                        DiagnosticEngine &Diags) {
  Workload W;
  std::map<std::string, const runtime::CompiledRecurrence *> Compiled;
  auto functionFor =
      [&](const std::string &Kind) -> const runtime::CompiledRecurrence * {
    auto It = Compiled.find(Kind);
    if (It != Compiled.end())
      return It->second;
    auto Fn = runtime::CompiledRecurrence::compile(sourceForKind(Kind),
                                                   Diags);
    if (!Fn)
      return nullptr;
    W.Functions.push_back(std::move(*Fn));
    return Compiled[Kind] = &W.Functions.back();
  };

  bio::Hmm *Genes = nullptr;
  for (const TenantSpec &Tenant : Spec.Tenants)
    if (Tenant.Kind == "forward" || Tenant.Kind == "viterbi") {
      W.Models.push_back(bio::makeGeneFinderModel());
      Genes = &W.Models.back();
      break;
    }
  const bio::SubstitutionMatrix &Blosum =
      bio::SubstitutionMatrix::blosum62();

  for (const TenantSpec &Tenant : Spec.Tenants) {
    const runtime::CompiledRecurrence *Fn = functionFor(Tenant.Kind);
    if (!Fn)
      return std::nullopt;
    Lcg Rng(Tenant.Seed);
    const bio::Sequence *Query = nullptr;
    if (Tenant.Kind == "smith_waterman") {
      W.Sequences.push_back(bio::randomSequence(
          bio::Alphabet::protein(), Tenant.MaxLength, Rng.next(),
          Tenant.Name + "-query"));
      Query = &W.Sequences.back();
    }
    uint64_t Tick = 0;
    for (uint64_t R = 0; R != Tenant.Requests; ++R) {
      Tick += arrivalGap(Rng, Tenant.MeanGapTicks);
      int64_t Length =
          Tenant.MinLength +
          static_cast<int64_t>(Rng.below(static_cast<uint64_t>(
              Tenant.MaxLength - Tenant.MinLength + 1)));
      ReplayEvent Ev;
      Ev.Fn = Fn;
      Ev.SubmitTick = Tick;
      Ev.DeadlineTick =
          Tenant.DeadlineTicks ? Tick + Tenant.DeadlineTicks : 0;
      Ev.Priority = Tenant.Priority;
      Ev.Tenant = Tenant.Name;
      std::string Name = Tenant.Name + "-" + std::to_string(R);
      if (Tenant.Kind == "smith_waterman") {
        W.Sequences.push_back(
            bio::randomSequence(bio::Alphabet::protein(), Length,
                                Rng.next(), std::move(Name)));
        Ev.Args = {codegen::ArgValue::ofMatrix(&Blosum),
                   codegen::ArgValue::ofSeq(Query), codegen::ArgValue(),
                   codegen::ArgValue::ofSeq(&W.Sequences.back()),
                   codegen::ArgValue()};
      } else {
        std::string Observed =
            Genes->sample(Rng.next(), static_cast<size_t>(Length));
        while (static_cast<int64_t>(Observed.size()) < Length)
          Observed += Genes->alphabet().charAt(static_cast<unsigned>(
              Rng.below(Genes->alphabet().size())));
        Observed.resize(static_cast<size_t>(Length));
        W.Sequences.emplace_back(std::move(Name), std::move(Observed));
        Ev.Args = {codegen::ArgValue::ofHmm(Genes), codegen::ArgValue(),
                   codegen::ArgValue::ofSeq(&W.Sequences.back()),
                   codegen::ArgValue()};
      }
      W.Events.push_back(std::move(Ev));
    }
  }

  std::stable_sort(W.Events.begin(), W.Events.end(),
                   [](const ReplayEvent &A, const ReplayEvent &B) {
                     return A.SubmitTick < B.SubmitTick;
                   });
  W.LastTick = W.Events.empty() ? 0 : W.Events.back().SubmitTick;
  return W;
}

namespace {

/// The submission/collection core shared by the Engine and Router
/// replay overloads; \p Host needs advanceTo, submit and shutdown.
template <typename Host>
ReplayReport replayCore(Host &E, const Workload &W,
                        uint64_t LingerTicks) {
  auto Start = std::chrono::steady_clock::now();
  std::vector<Future> Futures;
  Futures.reserve(W.events().size());
  for (const ReplayEvent &Ev : W.events()) {
    E.advanceTo(Ev.SubmitTick);
    Request Req;
    Req.Fn = Ev.Fn;
    Req.Args = Ev.Args;
    Req.DeadlineTick = Ev.DeadlineTick;
    Req.Priority = Ev.Priority;
    Req.Tenant = Ev.Tenant;
    Futures.push_back(E.submit(std::move(Req)));
  }
  // Push the clock past the last linger window, then finish everything
  // still admitted.
  E.advanceTo(W.lastTick() + LingerTicks + 1);
  E.shutdown(Engine::ShutdownMode::Drain);
  auto End = std::chrono::steady_clock::now();

  ReplayReport Report;
  Report.Total = Futures.size();
  // Percentiles come from a log-bucketed histogram instead of retaining
  // and sorting every sample: memory stays bounded over a soak of any
  // length, at the cost of Histogram::relativeError() (~9%) on the
  // reported quantiles (ServeTest cross-checks the bound against an
  // exact sort).
  obs::Histogram OkLatency;
  obs::Histogram OkCompletion;
  std::map<std::string, obs::Histogram> TenantLatency;
  for (size_t I = 0; I != Futures.size(); ++I) {
    const Response &Resp = Futures[I].wait();
    ++Report.ByStatus[std::string(statusName(Resp.St))];
    if (Resp.St == Status::Ok) {
      ++Report.ByEvaluator[Resp.Memoized
                               ? "memo"
                               : std::string(Resp.Result.Evaluator)];
      OkLatency.record(Resp.TotalSeconds);
      OkCompletion.record(static_cast<double>(Resp.CompletionCycle));
      const std::string &Tenant = W.events()[I].Tenant;
      TenantLatency[Tenant.empty() ? "none" : Tenant].record(
          Resp.TotalSeconds);
    }
  }
  Report.P50Seconds = OkLatency.percentile(0.50);
  Report.P95Seconds = OkLatency.percentile(0.95);
  Report.P99Seconds = OkLatency.percentile(0.99);
  for (const auto &[Tenant, Hist] : TenantLatency) {
    ReplayReport::TenantLatency TL;
    TL.Ok = Hist.Count;
    TL.P50Seconds = Hist.percentile(0.50);
    TL.P95Seconds = Hist.percentile(0.95);
    TL.P99Seconds = Hist.percentile(0.99);
    Report.ByTenant.emplace(Tenant, TL);
  }
  Report.CompletionCycleP50 =
      static_cast<uint64_t>(OkCompletion.percentile(0.50));
  Report.CompletionCycleP95 =
      static_cast<uint64_t>(OkCompletion.percentile(0.95));
  Report.CompletionCycleP99 =
      static_cast<uint64_t>(OkCompletion.percentile(0.99));
  Report.WallSeconds =
      std::chrono::duration<double>(End - Start).count();
  Report.Throughput =
      Report.WallSeconds > 0.0
          ? static_cast<double>(OkLatency.Count) / Report.WallSeconds
          : 0.0;
  return Report;
}

} // namespace

ReplayReport serve::replay(Engine &E, const Workload &W) {
  ReplayReport Report = replayCore(E, W, E.options().LingerTicks);
  Report.Stats = E.stats();
  Report.ModelledCycles = Report.Stats.maxDeviceCycles();
  Report.ModelledSeconds =
      E.options().Model.gpuSeconds(Report.ModelledCycles);
  return Report;
}

ReplayReport serve::replay(Router &R, const Workload &W) {
  ReplayReport Report =
      replayCore(R, W, R.options().Shard.LingerTicks);
  Router::Stats S = R.stats();
  Report.Stats = S.Total;
  Report.ModelledCycles = Report.Stats.maxDeviceCycles();
  Report.ModelledSeconds =
      R.options().Shard.Model.gpuSeconds(Report.ModelledCycles);
  Report.RouterShards = R.shards();
  Report.RouterSpilled = S.Spilled;
  return Report;
}

std::string ReplayReport::json() const {
  obs::JsonWriter Json;
  Json.beginObject();
  Json.key("total").value(static_cast<uint64_t>(Total));
  Json.key("by_status").beginObject();
  for (const auto &[Name, Count] : ByStatus)
    Json.key(Name).value(Count);
  Json.endObject();
  Json.key("by_evaluator").beginObject();
  for (const auto &[Name, Count] : ByEvaluator)
    Json.key(Name).value(Count);
  Json.endObject();
  Json.key("latency_seconds").beginObject();
  Json.key("p50").value(P50Seconds);
  Json.key("p95").value(P95Seconds);
  Json.key("p99").value(P99Seconds);
  Json.endObject();
  Json.key("tenants").beginObject();
  for (const auto &[Tenant, TL] : ByTenant) {
    Json.key(Tenant).beginObject();
    Json.key("ok").value(TL.Ok);
    Json.key("latency_seconds").beginObject();
    Json.key("p50").value(TL.P50Seconds);
    Json.key("p95").value(TL.P95Seconds);
    Json.key("p99").value(TL.P99Seconds);
    Json.endObject();
    Json.endObject();
  }
  Json.endObject();
  Json.key("wall_seconds").value(WallSeconds);
  Json.key("throughput_ok_per_second").value(Throughput);
  Json.key("modelled").beginObject();
  Json.key("busiest_device_cycles").value(ModelledCycles);
  Json.key("busiest_device_seconds").value(ModelledSeconds);
  Json.key("completion_cycles").beginObject();
  Json.key("p50").value(CompletionCycleP50);
  Json.key("p95").value(CompletionCycleP95);
  Json.key("p99").value(CompletionCycleP99);
  Json.endObject();
  Json.endObject();
  Json.key("engine").beginObject();
  Json.key("submitted").value(Stats.Submitted);
  Json.key("completed").value(Stats.Completed);
  Json.key("rejected").value(Stats.Rejected);
  Json.key("deadline_shed").value(Stats.DeadlineShed);
  Json.key("aborted").value(Stats.Aborted);
  Json.key("failed").value(Stats.Failed);
  Json.key("batches").value(Stats.Batches);
  Json.key("max_queue_depth").value(Stats.MaxQueueDepth);
  Json.key("memo_hits").value(Stats.MemoHits);
  Json.key("continuous_joins").value(Stats.ContinuousJoins);
  Json.key("devices").beginArray();
  for (size_t I = 0; I != Stats.DeviceBatches.size(); ++I) {
    Json.beginObject();
    Json.key("batches").value(Stats.DeviceBatches[I]);
    Json.key("requests").value(Stats.DeviceRequests[I]);
    Json.key("cycles").value(Stats.DeviceCycles[I]);
    Json.endObject();
  }
  Json.endArray();
  Json.endObject();
  if (RouterShards != 0) {
    Json.key("router").beginObject();
    Json.key("shards").value(static_cast<uint64_t>(RouterShards));
    Json.key("spilled").value(RouterSpilled);
    Json.endObject();
  }
  Json.endObject();
  return Json.take();
}
