//===- bench_pipeline.cpp - Systolic batch-overlap ablation -------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation A8: cross-problem pipelined execution. A single-tenant
/// short-sequence Smith-Waterman workload (pinned length, so every
/// request shares an ExecutablePlan fingerprint and coalesces freely)
/// is replayed against serve::Engine on a deliberately *saturated*
/// cost model — two multiprocessors — at every point of
/// MaxBatch {1, 4, 8} x {barrier, pipelined}.
///
/// The gates mirror the contract of RunOptions::Pipeline:
///   - every request finishes Ok in every configuration;
///   - responses are bit-identical across the two modes at each
///     MaxBatch (RootValue, TableMax, Cells, Partitions, per-problem
///     Cycles — everything except modelled wall-clock);
///   - at MaxBatch >= 4 the pipelined busiest-device cycles are
///     *strictly* below barrier; equality across modes is allowed only
///     for singleton batches (MaxBatch == 1), where it is required.
///
/// The engine starts paused and the whole workload is admitted before
/// the drain, so batch composition — and with it every modelled number
/// — is deterministic. Host wall times are context only, never gated.
///
/// Usage: bench_pipeline [--smoke] [--out=PATH] [--metrics-out=PATH]
///                       [--seed=N]
///   --smoke            fewer requests (CI gate)
///   --out=PATH         JSON output path (default BENCH_pipeline.json)
///   --metrics-out=PATH dump the metrics registry as JSON after the run
///   --seed=N           re-seed the workload (0/absent = baked-in seed)
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "obs/Metrics.h"
#include "serve/Workload.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace parrec;

namespace {

enum class Mode { Barrier, Pipelined };

const char *modeName(Mode M) {
  return M == Mode::Barrier ? "barrier" : "pipelined";
}

struct ConfigResult {
  size_t MaxBatch = 0;
  Mode M = Mode::Barrier;
  uint64_t Total = 0;
  uint64_t Ok = 0;
  uint64_t Batches = 0;
  /// Busiest-device modelled cycles (the gated number).
  uint64_t ModelledCycles = 0;
  /// Per-request modelled completion cycles, batch-start domain.
  uint64_t CompletionP50 = 0;
  uint64_t CompletionMax = 0;
  double WallSeconds = 0.0;
  std::vector<serve::Response> Responses; // Submission order.
};

serve::WorkloadSpec makeSpec(bool Smoke, uint64_t Seed) {
  // Short pinned-length problems: two modelled multiprocessors saturate
  // at batch >= 3, so the tandem recurrence has something to overlap.
  serve::TenantSpec T;
  T.Name = "short";
  T.Kind = "smith_waterman";
  T.Requests = Smoke ? 8 : 24;
  T.MinLength = 12;
  T.MaxLength = 12;
  T.MeanGapTicks = 1;
  T.Seed = 0x7101 ^ (Seed ? Seed * 0x9E3779B97F4A7C15ull : 0);
  serve::WorkloadSpec Spec;
  Spec.Tenants.push_back(T);
  return Spec;
}

ConfigResult runConfig(const serve::Workload &W, size_t MaxBatch, Mode M) {
  serve::Engine::Options Opts;
  Opts.Model.NumMultiprocessors = 2; // Saturated on purpose.
  Opts.Devices = 1;
  Opts.QueueCapacity = W.events().size() + 8;
  Opts.MaxBatch = MaxBatch;
  Opts.Pipeline = M == Mode::Pipelined;
  // Admit everything before the drain: batch composition, and with it
  // every modelled number, is then deterministic.
  Opts.StartPaused = true;
  serve::Engine E(Opts);

  auto T0 = std::chrono::steady_clock::now();
  std::vector<serve::Future> Futures;
  Futures.reserve(W.events().size());
  for (const serve::ReplayEvent &Ev : W.events()) {
    serve::Request Req;
    Req.Fn = Ev.Fn;
    Req.Args = Ev.Args;
    Req.Priority = Ev.Priority;
    Req.Tenant = Ev.Tenant;
    Futures.push_back(E.submit(std::move(Req)));
  }
  E.shutdown(serve::Engine::ShutdownMode::Drain);
  auto T1 = std::chrono::steady_clock::now();

  ConfigResult R;
  R.MaxBatch = MaxBatch;
  R.M = M;
  R.Total = W.events().size();
  std::vector<uint64_t> Completions;
  for (const serve::Future &F : Futures) {
    const serve::Response &Resp = F.wait();
    if (Resp.St == serve::Status::Ok) {
      ++R.Ok;
      Completions.push_back(Resp.CompletionCycle);
    }
    R.Responses.push_back(Resp);
  }
  serve::Engine::Stats Stats = E.stats();
  R.Batches = Stats.Batches;
  R.ModelledCycles = Stats.maxDeviceCycles();
  if (!Completions.empty()) {
    std::sort(Completions.begin(), Completions.end());
    R.CompletionP50 = Completions[(Completions.size() - 1) / 2];
    R.CompletionMax = Completions.back();
  }
  R.WallSeconds = std::chrono::duration<double>(T1 - T0).count();
  return R;
}

/// Bit-level equality of the mode-invariant response fields. Doubles are
/// compared by representation — the contract is bit-identity, not
/// tolerance.
bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

bool identicalResponses(const ConfigResult &A, const ConfigResult &B,
                        std::string &Why) {
  if (A.Responses.size() != B.Responses.size()) {
    Why = "response count";
    return false;
  }
  for (size_t I = 0; I != A.Responses.size(); ++I) {
    const exec::RunResult &X = A.Responses[I].Result;
    const exec::RunResult &Y = B.Responses[I].Result;
    if (A.Responses[I].St != B.Responses[I].St) {
      Why = "status of request " + std::to_string(I);
      return false;
    }
    if (!sameBits(X.RootValue, Y.RootValue) ||
        !sameBits(X.TableMax, Y.TableMax)) {
      Why = "values of request " + std::to_string(I);
      return false;
    }
    if (X.Cells != Y.Cells || X.Partitions != Y.Partitions ||
        X.Cycles != Y.Cycles) {
      Why = "shape/cycles of request " + std::to_string(I);
      return false;
    }
  }
  return true;
}

void writeJson(const std::string &Path, bool Smoke, uint64_t Seed,
               uint64_t Requests, const std::vector<ConfigResult> &Results) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    std::exit(2);
  }
  std::fprintf(F, "{\n  \"benchmark\": \"pipeline_ablation\",\n");
  std::fprintf(F, "  \"mode\": \"%s\",\n", Smoke ? "smoke" : "full");
  std::fprintf(F, "  \"host\": %s,\n", parrecbench::hostJson().c_str());
  std::fprintf(F, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(Seed));
  std::fprintf(F, "  \"requests\": %llu,\n",
               static_cast<unsigned long long>(Requests));
  std::fprintf(F, "  \"multiprocessors\": 2,\n");
  std::fprintf(F, "  \"configs\": [\n");
  for (size_t I = 0; I != Results.size(); ++I) {
    const ConfigResult &R = Results[I];
    std::fprintf(F,
                 "    {\"max_batch\": %zu, \"mode\": \"%s\", "
                 "\"ok\": %llu, \"batches\": %llu, "
                 "\"modelled_cycles\": %llu, "
                 "\"completion_p50\": %llu, \"completion_max\": %llu, "
                 "\"wall_seconds\": %.6f}%s\n",
                 R.MaxBatch, modeName(R.M),
                 static_cast<unsigned long long>(R.Ok),
                 static_cast<unsigned long long>(R.Batches),
                 static_cast<unsigned long long>(R.ModelledCycles),
                 static_cast<unsigned long long>(R.CompletionP50),
                 static_cast<unsigned long long>(R.CompletionMax),
                 R.WallSeconds, I + 1 == Results.size() ? "" : ",");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  std::string OutPath = "BENCH_pipeline.json";
  std::string MetricsOut;
  uint64_t Seed = 0;
  for (int I = 1; I != Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strncmp(Argv[I], "--out=", 6) == 0)
      OutPath = Argv[I] + 6;
    else if (std::strncmp(Argv[I], "--metrics-out=", 14) == 0)
      MetricsOut = Argv[I] + 14;
    else if (std::strncmp(Argv[I], "--seed=", 7) == 0)
      Seed = std::strtoull(Argv[I] + 7, nullptr, 10);
    else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--out=PATH] [--metrics-out=PATH] "
                   "[--seed=N]\n",
                   Argv[0]);
      return 2;
    }
  }

  serve::WorkloadSpec Spec = makeSpec(Smoke, Seed);
  DiagnosticEngine Diags;
  std::optional<serve::Workload> W = serve::Workload::build(Spec, Diags);
  if (!W) {
    std::fprintf(stderr, "bench workload failure:\n%s",
                 Diags.str().c_str());
    return 2;
  }

  const size_t Batches[] = {1, 4, 8};
  const Mode Modes[] = {Mode::Barrier, Mode::Pipelined};
  std::vector<ConfigResult> Results;
  for (size_t MaxBatch : Batches)
    for (Mode M : Modes)
      Results.push_back(runConfig(*W, MaxBatch, M));

  writeJson(OutPath, Smoke, Seed, W->events().size(), Results);
  if (!MetricsOut.empty()) {
    std::ofstream Out(MetricsOut, std::ios::binary | std::ios::trunc);
    Out << obs::MetricsRegistry::global().snapshot().json() << '\n';
    if (!Out) {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   MetricsOut.c_str());
      return 2;
    }
  }

  for (const ConfigResult &R : Results)
    std::printf("max_batch=%zu mode=%-9s  ok=%llu/%llu  batches=%llu  "
                "busiest device %llu cycles  completion p50/max "
                "%llu/%llu  wall %.3fs\n",
                R.MaxBatch, modeName(R.M),
                static_cast<unsigned long long>(R.Ok),
                static_cast<unsigned long long>(R.Total),
                static_cast<unsigned long long>(R.Batches),
                static_cast<unsigned long long>(R.ModelledCycles),
                static_cast<unsigned long long>(R.CompletionP50),
                static_cast<unsigned long long>(R.CompletionMax),
                R.WallSeconds);

  bool Failed = false;
  for (const ConfigResult &R : Results)
    if (R.Ok != R.Total) {
      std::fprintf(stderr,
                   "FAIL: max_batch=%zu mode=%s finished %llu/%llu Ok\n",
                   R.MaxBatch, modeName(R.M),
                   static_cast<unsigned long long>(R.Ok),
                   static_cast<unsigned long long>(R.Total));
      Failed = true;
    }

  auto Find = [&](size_t MaxBatch, Mode M) -> const ConfigResult & {
    for (const ConfigResult &R : Results)
      if (R.MaxBatch == MaxBatch && R.M == M)
        return R;
    std::fprintf(stderr, "internal: missing config\n");
    std::exit(2);
  };

  for (size_t MaxBatch : Batches) {
    const ConfigResult &Barrier = Find(MaxBatch, Mode::Barrier);
    const ConfigResult &Piped = Find(MaxBatch, Mode::Pipelined);

    // Gate 1: results are bit-identical across the two modes.
    std::string Why;
    if (!identicalResponses(Barrier, Piped, Why)) {
      std::fprintf(stderr,
                   "FAIL: max_batch=%zu mode=pipelined responses differ "
                   "from barrier (%s)\n",
                   MaxBatch, Why.c_str());
      Failed = true;
    }

    // Gate 2: the overlap win. Singleton batches have one problem per
    // launch, so both modes must agree exactly; from MaxBatch 4 the
    // tandem recurrence must strictly beat the barrier.
    if (MaxBatch == 1) {
      if (Piped.ModelledCycles != Barrier.ModelledCycles) {
        std::fprintf(stderr,
                     "FAIL: max_batch=1 modes disagree on modelled cycles "
                     "(%llu barrier, %llu pipelined)\n",
                     static_cast<unsigned long long>(Barrier.ModelledCycles),
                     static_cast<unsigned long long>(Piped.ModelledCycles));
        Failed = true;
      }
    } else if (Piped.ModelledCycles >= Barrier.ModelledCycles) {
      std::fprintf(stderr,
                   "FAIL: max_batch=%zu pipelining did not strictly "
                   "reduce busiest-device cycles (%llu vs %llu "
                   "barrier)\n",
                   MaxBatch,
                   static_cast<unsigned long long>(Piped.ModelledCycles),
                   static_cast<unsigned long long>(Barrier.ModelledCycles));
      Failed = true;
    }
  }
  return Failed ? 1 : 0;
}
