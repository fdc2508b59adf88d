//===- Workload.h - Serving-engine replay workloads ---------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replayable multi-tenant workloads for the serving engine: a JSON spec
/// (tenants with a problem kind, request count, size range, arrival
/// rate, deadline and priority) is materialised into compiled
/// recursions, sequences and models plus a tick-ordered event list, and
/// replayed against an Engine on its virtual clock. Everything is
/// deterministic in the per-tenant seeds — arrival gaps come from a
/// seeded LCG-driven geometric draw (the discrete Poisson-ish analogue),
/// never from wall time — so a replay admits the same batches every run.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_SERVE_WORKLOAD_H
#define PARREC_SERVE_WORKLOAD_H

#include "bio/Hmm.h"
#include "bio/Sequence.h"
#include "runtime/CompiledRecurrence.h"
#include "serve/Engine.h"

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace parrec {
namespace obs {
class JsonValue;
} // namespace obs

namespace serve {

/// One tenant of a replay workload: a stream of same-kind problems.
struct TenantSpec {
  std::string Name;
  /// One of "smith_waterman", "forward", "viterbi".
  std::string Kind;
  /// Number of requests this tenant submits.
  uint64_t Requests = 8;
  /// Subject/observation lengths are drawn uniformly from this range.
  int64_t MinLength = 24;
  int64_t MaxLength = 48;
  /// Mean virtual ticks between consecutive arrivals (geometric draw).
  uint64_t MeanGapTicks = 1;
  /// Per-request deadline, relative to its submit tick; 0 = none.
  uint64_t DeadlineTicks = 0;
  int Priority = 0;
  /// Fair-queue weight within this tenant's priority class (>= 1):
  /// under backlog tenants are served proportionally to their weights.
  uint64_t Weight = 1;
  /// Seed for this tenant's sequence content and arrival gaps.
  uint64_t Seed = 1;
};

/// A parsed workload file: {"tenants": [{...}, ...]}.
struct WorkloadSpec {
  std::vector<TenantSpec> Tenants;

  /// The per-tenant weight map for Engine::Options::TenantWeights.
  std::map<std::string, uint64_t> tenantWeights() const {
    std::map<std::string, uint64_t> W;
    for (const TenantSpec &T : Tenants)
      W[T.Name] = T.Weight;
    return W;
  }
};

/// Parses a workload document. On failure returns nullopt and stores a
/// one-line message in \p Error (when non-null).
std::optional<WorkloadSpec> parseWorkloadSpec(const obs::JsonValue &Doc,
                                              std::string *Error);

/// Reads and parses \p Path as a workload file.
std::optional<WorkloadSpec> loadWorkloadSpec(const std::string &Path,
                                             std::string *Error);

/// One scheduled submission of a materialised workload.
struct ReplayEvent {
  const runtime::CompiledRecurrence *Fn = nullptr;
  std::vector<codegen::ArgValue> Args;
  uint64_t SubmitTick = 0;
  uint64_t DeadlineTick = 0; // Absolute; 0 = none.
  int Priority = 0;
  std::string Tenant;
};

/// A materialised workload. Owns the compiled recursions, sequences and
/// models its events point into; containers are chosen so moving the
/// Workload never relocates an element an event refers to.
class Workload {
public:
  /// Compiles and generates everything a spec needs. Deterministic in
  /// the spec. Returns nullopt after reporting into \p Diags.
  static std::optional<Workload> build(const WorkloadSpec &Spec,
                                       DiagnosticEngine &Diags);

  const std::vector<ReplayEvent> &events() const { return Events; }
  /// Submit tick of the last event (0 for an empty workload).
  uint64_t lastTick() const { return LastTick; }

private:
  Workload() = default;

  std::deque<runtime::CompiledRecurrence> Functions;
  std::deque<bio::Sequence> Sequences;
  std::deque<bio::Hmm> Models;
  std::vector<ReplayEvent> Events; // Sorted by SubmitTick.
  uint64_t LastTick = 0;
};

/// What a replay run observed.
struct ReplayReport {
  /// Per-tenant Ok-latency summary (histogram-backed percentiles, same
  /// error bound as the global ones).
  struct TenantLatency {
    uint64_t Ok = 0;
    double P50Seconds = 0.0;
    double P95Seconds = 0.0;
    double P99Seconds = 0.0;
  };

  uint64_t Total = 0;
  /// statusName() -> count, over every submitted request.
  std::map<std::string, uint64_t> ByStatus;
  /// Ok responses by the evaluator that scanned them
  /// (RunResult::Evaluator: "vm", "jit", "jit_lanes" or "ast"), and
  /// memo hits, which nothing scanned, under "memo".
  std::map<std::string, uint64_t> ByEvaluator;
  /// End-to-end wall latency percentiles over Ok responses, seconds.
  double P50Seconds = 0.0;
  double P95Seconds = 0.0;
  double P99Seconds = 0.0;
  /// Keyed by tenant name (empty label -> "none").
  std::map<std::string, TenantLatency> ByTenant;
  /// Wall time of the whole replay (submission through drain).
  double WallSeconds = 0.0;
  /// Ok responses per wall second.
  double Throughput = 0.0;
  /// Modelled device time: the busiest device's accumulated makespan.
  uint64_t ModelledCycles = 0;
  double ModelledSeconds = 0.0;
  /// Per-problem modelled completion-cycle percentiles over Ok
  /// responses (Response::CompletionCycle). Under a pipelined engine
  /// the spread below a batch's makespan is the early-publication win.
  uint64_t CompletionCycleP50 = 0;
  uint64_t CompletionCycleP95 = 0;
  uint64_t CompletionCycleP99 = 0;
  Engine::Stats Stats;
  /// Router-level counters; present (RouterShards != 0) only for the
  /// replay(Router&, ...) overload.
  unsigned RouterShards = 0;
  uint64_t RouterSpilled = 0;

  uint64_t okCount() const {
    auto It = ByStatus.find("ok");
    return It == ByStatus.end() ? 0 : It->second;
  }

  /// Renders the report as a JSON document (for --stats-out).
  std::string json() const;
};

class Router;

/// Replays \p W against \p E: advances the virtual clock to each event's
/// tick, submits, then drains the engine and aggregates the responses.
/// The engine is shut down (Drain) when this returns.
ReplayReport replay(Engine &E, const Workload &W);

/// Replays \p W through a front router: identical submission schedule,
/// shard-aggregated stats, plus the router counters in the report.
/// Every shard is shut down (Drain) when this returns.
ReplayReport replay(Router &R, const Workload &W);

} // namespace serve
} // namespace parrec

#endif // PARREC_SERVE_WORKLOAD_H
