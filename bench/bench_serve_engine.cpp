//===- bench_serve_engine.cpp - Serving-engine coalescing ablation -----------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation A6: dynamic batch coalescing in the serving engine. A fixed
/// three-tenant workload (Smith-Waterman, Viterbi, forward; pinned
/// problem shapes so requests share ExecutablePlan fingerprints) is
/// replayed against serve::Engine at every point of
/// {coalescing on, off} x {1, 2 devices}. Each batch pays one modelled
/// kernel launch, so coalescing must strictly reduce the busiest
/// device's modelled cycles — equivalently, strictly increase modelled
/// throughput — and the bench exits non-zero if it does not, or if any
/// request finishes with a status other than Ok.
///
/// The engine starts paused and the whole workload is admitted before
/// the drain, so batch composition — and with it every modelled number
/// in the output — is deterministic. Host wall times are recorded for
/// context only; on a small container they mostly measure scheduling
/// noise and are never gated.
///
/// Usage: bench_serve_engine [--smoke] [--out=PATH] [--metrics-out=PATH]
///                           [--seed=N]
///   --smoke            fewer requests per tenant (CI gate)
///   --out=PATH         JSON output path (default BENCH_serve.json)
///   --metrics-out=PATH dump the metrics registry as JSON after the run
///   --seed=N           re-seed the workload (0/absent = baked-in seeds)
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "obs/Metrics.h"
#include "serve/Workload.h"

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

struct ConfigResult {
  unsigned Devices = 0;
  bool Coalesce = false;
  uint64_t Total = 0;
  uint64_t Ok = 0;
  uint64_t Batches = 0;
  double RequestsPerBatch = 0.0;
  uint64_t ModelledCycles = 0;
  double ModelledSeconds = 0.0;
  double ModelledThroughput = 0.0;
  double WallSeconds = 0.0;
};

serve::WorkloadSpec makeSpec(bool Smoke, uint64_t Seed) {
  // A non-zero --seed re-keys every tenant while keeping the streams
  // decorrelated; 0 keeps the baked-in seeds (historical output).
  uint64_t Mix = Seed ? Seed * 0x9E3779B97F4A7C15ull : 0;
  auto Tenant = [&](const char *Name, const char *Kind, uint64_t Requests,
                    int64_t Length, uint64_t Gap, uint64_t Base) {
    serve::TenantSpec T;
    T.Name = Name;
    T.Kind = Kind;
    T.Requests = Requests;
    // Pinned lengths: the plan fingerprint covers the domain box, so
    // only same-shape requests can share a batch.
    T.MinLength = Length;
    T.MaxLength = Length;
    T.MeanGapTicks = Gap;
    T.Seed = Base ^ Mix;
    return T;
  };
  const uint64_t N = Smoke ? 8 : 24;
  serve::WorkloadSpec Spec;
  Spec.Tenants.push_back(Tenant("blast", "smith_waterman", N, 32, 2, 0x5101));
  Spec.Tenants.push_back(Tenant("genes", "viterbi", N, 48, 3, 0x5202));
  Spec.Tenants.push_back(Tenant("scan", "forward", N, 48, 3, 0x5303));
  return Spec;
}

ConfigResult runConfig(const serve::Workload &W, unsigned Devices,
                       bool Coalesce) {
  serve::Engine::Options Opts;
  Opts.Devices = Devices;
  Opts.QueueCapacity = W.events().size() + 8;
  // Coalescing off is MaxBatch = 1: every request is its own batch.
  Opts.MaxBatch = Coalesce ? 8 : 1;
  // Admit everything before the drain: batch composition, and with it
  // every modelled number, is then deterministic.
  Opts.StartPaused = true;
  serve::Engine E(Opts);

  auto T0 = std::chrono::steady_clock::now();
  serve::ReplayReport Report = serve::replay(E, W);
  auto T1 = std::chrono::steady_clock::now();

  ConfigResult R;
  R.Devices = Devices;
  R.Coalesce = Coalesce;
  R.Total = Report.Total;
  R.Ok = Report.okCount();
  R.Batches = Report.Stats.Batches;
  R.RequestsPerBatch =
      R.Batches ? static_cast<double>(R.Ok) / static_cast<double>(R.Batches)
                : 0.0;
  R.ModelledCycles = Report.ModelledCycles;
  R.ModelledSeconds = Report.ModelledSeconds;
  R.ModelledThroughput =
      Report.ModelledSeconds > 0.0
          ? static_cast<double>(R.Ok) / Report.ModelledSeconds
          : 0.0;
  R.WallSeconds = std::chrono::duration<double>(T1 - T0).count();
  return R;
}

void writeJson(const std::string &Path, bool Smoke, uint64_t Seed,
               uint64_t Requests, const std::vector<ConfigResult> &Results) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    std::exit(2);
  }
  std::fprintf(F, "{\n  \"benchmark\": \"serve_engine_ablation\",\n");
  std::fprintf(F, "  \"mode\": \"%s\",\n", Smoke ? "smoke" : "full");
  std::fprintf(F, "  \"host\": %s,\n", parrecbench::hostJson().c_str());
  std::fprintf(F, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(Seed));
  std::fprintf(F, "  \"requests\": %llu,\n",
               static_cast<unsigned long long>(Requests));
  std::fprintf(F, "  \"configs\": [\n");
  for (size_t I = 0; I != Results.size(); ++I) {
    const ConfigResult &R = Results[I];
    std::fprintf(F,
                 "    {\"devices\": %u, \"coalesce\": %s, \"ok\": %llu, "
                 "\"batches\": %llu, \"requests_per_batch\": %.3f, "
                 "\"modelled_cycles\": %llu, \"modelled_seconds\": %.9f, "
                 "\"modelled_throughput\": %.1f, "
                 "\"wall_seconds\": %.6f}%s\n",
                 R.Devices, R.Coalesce ? "true" : "false",
                 static_cast<unsigned long long>(R.Ok),
                 static_cast<unsigned long long>(R.Batches),
                 R.RequestsPerBatch,
                 static_cast<unsigned long long>(R.ModelledCycles),
                 R.ModelledSeconds, R.ModelledThroughput, R.WallSeconds,
                 I + 1 == Results.size() ? "" : ",");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  std::string OutPath = "BENCH_serve.json";
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

  std::vector<ConfigResult> Results;
  for (unsigned Devices : {1u, 2u})
    for (bool Coalesce : {false, true})
      Results.push_back(runConfig(*W, Devices, Coalesce));

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
    std::printf("devices=%u coalesce=%-3s  ok=%llu/%llu  batches=%llu "
                "(%.2f req/batch)  modelled %.6fs (%llu cycles, "
                "%.0f req/s)  wall %.3fs\n",
                R.Devices, R.Coalesce ? "on" : "off",
                static_cast<unsigned long long>(R.Ok),
                static_cast<unsigned long long>(R.Total),
                static_cast<unsigned long long>(R.Batches),
                R.RequestsPerBatch, R.ModelledSeconds,
                static_cast<unsigned long long>(R.ModelledCycles),
                R.ModelledThroughput, R.WallSeconds);

  bool Failed = false;
  for (const ConfigResult &R : Results)
    if (R.Ok != R.Total) {
      std::fprintf(stderr,
                   "FAIL: devices=%u coalesce=%s finished %llu/%llu Ok\n",
                   R.Devices, R.Coalesce ? "on" : "off",
                   static_cast<unsigned long long>(R.Ok),
                   static_cast<unsigned long long>(R.Total));
      Failed = true;
    }
  // The gate: at every device count, coalescing must strictly reduce
  // the busiest device's modelled cycles (one kernel launch per batch).
  for (unsigned Devices : {1u, 2u}) {
    uint64_t On = 0, Off = 0;
    for (const ConfigResult &R : Results)
      if (R.Devices == Devices)
        (R.Coalesce ? On : Off) = R.ModelledCycles;
    if (On >= Off) {
      std::fprintf(stderr,
                   "FAIL: devices=%u coalescing did not reduce modelled "
                   "cycles (%llu on vs %llu off)\n",
                   Devices, static_cast<unsigned long long>(On),
                   static_cast<unsigned long long>(Off));
      Failed = true;
    }
  }
  return Failed ? 1 : 0;
}
