//===- bench_serve_soak.cpp - Router-stack soak: batching, fairness, memo ----==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Soak gates for the serving stack's three scheduling features, each
/// driven to a deterministic conclusion and recorded with latency
/// percentiles:
///
///  1. Continuous batching at saturation. A plug request wedges the only
///     device inside its completion callback while a stream of
///     same-shape requests arrives. With continuous batching they join
///     the one queued batch; without it each opens its own batch behind
///     a serial device. Gate: continuous batching strictly reduces both
///     the mean queue wait and the batch count.
///
///  2. Weighted fairness. Two tenants with a 10:1 weight ratio backlog a
///     paused single-device engine; the deficit-round-robin drain must
///     hand them goodput in that ratio. Gate: over the contended prefix
///     the heavy:light completion ratio is within 15% of 10, and the
///     heavy tenant's p99 latency beats the light tenant's.
///
///  3. Memoization. A repeated-request workload (every unique executed
///     once, then streamed again as repeats) must hit the cache at
///     >= 90% and never re-execute. Gate: hit rate >= 0.9 and the
///     devices saw exactly one request per unique problem.
///
/// All three phases are scheduling-deterministic (virtual clock, paused
/// fills, plugged devices); only wall-clock latencies vary run to run,
/// and every wall-clock gate compares two measurements of the same run
/// whose difference is execution-serialization, not noise.
///
/// Usage: bench_serve_soak [--smoke] [--out=PATH]
///   --smoke    smaller streams (CI gate)
///   --out=PATH JSON output path (default BENCH_soak.json)
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "bio/Fasta.h"
#include "bio/SubstitutionMatrix.h"
#include "runtime/CompiledRecurrence.h"
#include "serve/Engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
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

struct Percentiles {
  double P50 = 0.0;
  double P95 = 0.0;
  double P99 = 0.0;
};

Percentiles percentiles(std::vector<double> Latencies) {
  Percentiles P;
  if (Latencies.empty())
    return P;
  std::sort(Latencies.begin(), Latencies.end());
  auto At = [&](double Q) {
    size_t I = static_cast<size_t>(Q * static_cast<double>(Latencies.size()));
    return Latencies[std::min(I, Latencies.size() - 1)];
  };
  P.P50 = At(0.50);
  P.P95 = At(0.95);
  P.P99 = At(0.99);
  return P;
}

/// Smith-Waterman requests against one query; Subject length selects the
/// plan key, Seed the contents.
struct SwFactory {
  CompiledRecurrence Sw = [] {
    DiagnosticEngine Diags;
    auto Compiled = CompiledRecurrence::compile(SwSource, Diags);
    if (!Compiled) {
      std::fprintf(stderr, "bench recurrence failure:\n%s",
                   Diags.str().c_str());
      std::exit(2);
    }
    return std::move(*Compiled);
  }();
  const bio::SubstitutionMatrix &Blosum = bio::SubstitutionMatrix::blosum62();
  std::deque<bio::Sequence> Seqs;

  SwFactory() {
    Seqs.push_back(bio::randomSequence(bio::Alphabet::protein(), 32,
                                       /*Seed=*/0x50AC, "query"));
  }

  serve::Request request(int64_t SubjectLength, uint64_t Seed) {
    Seqs.push_back(bio::randomSequence(bio::Alphabet::protein(),
                                       SubjectLength, Seed, "s"));
    serve::Request Req;
    Req.Fn = &Sw;
    Req.Args = {ArgValue::ofMatrix(&Blosum), ArgValue::ofSeq(&Seqs.front()),
                ArgValue(), ArgValue::ofSeq(&Seqs.back()), ArgValue()};
    return Req;
  }
};

bool waitFor(const std::function<bool()> &Done) {
  for (int Spin = 0; Spin != 10000; ++Spin) {
    if (Done())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Done();
}

int Failures = 0;

void gate(bool Ok, const char *What) {
  if (!Ok) {
    std::fprintf(stderr, "FAIL: %s\n", What);
    ++Failures;
  }
}

//===----------------------------------------------------------------------===//
// Phase 1: continuous batching at saturation
//===----------------------------------------------------------------------===//

struct SaturationResult {
  uint64_t Requests = 0;
  uint64_t Batches = 0;
  uint64_t Joins = 0;
  double MeanQueueWaitSeconds = 0.0;
  Percentiles Latency;
};

SaturationResult runSaturation(bool Continuous, uint64_t Stream) {
  SwFactory Factory;
  serve::Engine::Options Opts;
  Opts.Devices = 1;
  Opts.MaxBatch = Stream + 1;
  Opts.QueueCapacity = Stream + 16;
  Opts.ContinuousBatch = Continuous;
  serve::Engine Engine(Opts);

  // The plug wedges the device inside its callback, so everything that
  // arrives next queues behind a busy device: saturation, on demand.
  std::mutex Mutex;
  std::condition_variable Cv;
  bool PlugDone = false, Released = false;
  serve::Future Plug = Engine.submit(
      Factory.request(/*SubjectLength=*/96, /*Seed=*/1),
      [&](const serve::Response &) {
        std::unique_lock<std::mutex> Lock(Mutex);
        PlugDone = true;
        Cv.notify_all();
        Cv.wait(Lock, [&] { return Released; });
      });
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Cv.wait(Lock, [&] { return PlugDone; });
  }

  // A same-shape stream: the seed opens one queued batch; with
  // continuous batching every later arrival joins it. Without it each
  // straggler must open a batch of its own behind the serial device, so
  // it is submitted only once the previous one's batch is counted:
  // stragglers that reach the queue together would coalesce into one
  // batch — correct engine behaviour, but not the saturation this phase
  // measures.
  std::vector<serve::Future> Stragglers;
  Stragglers.push_back(Engine.submit(Factory.request(48, 100)));
  gate(waitFor([&] { return Engine.stats().Batches == 2; }),
       "saturation: the seed request opened no batch");
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  for (uint64_t I = 1; I != Stream; ++I) {
    Stragglers.push_back(Engine.submit(Factory.request(48, 100 + I)));
    if (!Continuous &&
        !waitFor([&] { return Engine.stats().Batches == 2 + I; })) {
      gate(false, "saturation: a straggler opened no batch of its own");
      break;
    }
  }
  if (Continuous)
    gate(waitFor([&] {
           return Engine.stats().ContinuousJoins == Stream - 1;
         }),
         "saturation: stragglers did not all join the queued batch");

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Released = true;
  }
  Cv.notify_all();
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);
  gate(Plug.wait().St == serve::Status::Ok, "saturation: plug not Ok");

  SaturationResult R;
  R.Requests = Stragglers.size();
  std::vector<double> Latencies;
  double WaitSum = 0.0;
  for (serve::Future &F : Stragglers) {
    const serve::Response &Resp = F.wait();
    gate(Resp.St == serve::Status::Ok, "saturation: request not Ok");
    WaitSum += Resp.QueueSeconds;
    Latencies.push_back(Resp.TotalSeconds);
  }
  R.MeanQueueWaitSeconds = WaitSum / static_cast<double>(Stragglers.size());
  R.Latency = percentiles(std::move(Latencies));
  serve::Engine::Stats Stats = Engine.stats();
  R.Batches = Stats.Batches;
  R.Joins = Stats.ContinuousJoins;
  return R;
}

//===----------------------------------------------------------------------===//
// Phase 2: 10:1 weighted fairness under backlog
//===----------------------------------------------------------------------===//

struct FairnessResult {
  uint64_t PerTenant = 0;
  uint64_t PrefixHeavy = 0;
  uint64_t PrefixLight = 0;
  double GoodputRatio = 0.0;
  Percentiles HeavyLatency;
  Percentiles LightLatency;
};

FairnessResult runFairness(uint64_t PerTenant) {
  SwFactory Factory;
  serve::Engine::Options Opts;
  Opts.Devices = 1;
  Opts.MaxBatch = 1; // Dispatch order == schedule order, exactly.
  Opts.StartPaused = true;
  Opts.QueueCapacity = 2 * PerTenant + 16;
  Opts.TenantWeights = {{"heavy", 10}, {"light", 1}};
  serve::Engine Engine(Opts);

  std::vector<serve::Future> Heavy, Light;
  for (uint64_t I = 0; I != PerTenant; ++I) {
    serve::Request H = Factory.request(24, 1000 + I);
    H.Tenant = "heavy";
    Heavy.push_back(Engine.submit(std::move(H)));
    serve::Request L = Factory.request(24, 5000 + I);
    L.Tenant = "light";
    Light.push_back(Engine.submit(std::move(L)));
  }
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);

  // Completion order over the contended prefix — the window where both
  // tenants are still backlogged — is the goodput split the fair queue
  // actually delivered.
  std::vector<std::pair<uint64_t, bool>> Order; // (CompletionSeq, heavy)
  std::vector<double> HeavyLat, LightLat;
  for (serve::Future &F : Heavy) {
    const serve::Response &R = F.wait();
    gate(R.St == serve::Status::Ok, "fairness: heavy request not Ok");
    Order.push_back({R.CompletionSeq, true});
    HeavyLat.push_back(R.TotalSeconds);
  }
  for (serve::Future &F : Light) {
    const serve::Response &R = F.wait();
    gate(R.St == serve::Status::Ok, "fairness: light request not Ok");
    Order.push_back({R.CompletionSeq, false});
    LightLat.push_back(R.TotalSeconds);
  }
  std::sort(Order.begin(), Order.end());

  // Heavy exhausts after PerTenant + PerTenant/10 dispatches; stop the
  // prefix one full round earlier so both sides stay contended in it.
  size_t Prefix = static_cast<size_t>(PerTenant / 10 * 11);
  FairnessResult R;
  R.PerTenant = PerTenant;
  for (size_t I = 0; I != Prefix && I != Order.size(); ++I)
    ++(Order[I].second ? R.PrefixHeavy : R.PrefixLight);
  R.GoodputRatio = R.PrefixLight
                       ? static_cast<double>(R.PrefixHeavy) /
                             static_cast<double>(R.PrefixLight)
                       : 0.0;
  R.HeavyLatency = percentiles(std::move(HeavyLat));
  R.LightLatency = percentiles(std::move(LightLat));
  return R;
}

//===----------------------------------------------------------------------===//
// Phase 3: memoized repeats
//===----------------------------------------------------------------------===//

struct MemoResult {
  uint64_t Unique = 0;
  uint64_t Total = 0;
  uint64_t Hits = 0;
  uint64_t Executed = 0;
  double HitRate = 0.0;
  Percentiles WarmLatency;
  Percentiles RepeatLatency;
};

MemoResult runMemo(uint64_t Unique, uint64_t RepeatsPerUnique) {
  SwFactory Factory;
  serve::Engine::Options Opts;
  Opts.Devices = 1;
  Opts.Memo = std::make_shared<serve::MemoCache>(Unique + 8);
  Opts.QueueCapacity = Unique * (RepeatsPerUnique + 1) + 16;
  serve::Engine Engine(Opts);

  // One submission per unique problem, completed before the repeat
  // stream starts (the warm phase of any steady-state cache).
  std::vector<serve::Request> Uniques;
  std::vector<double> WarmLat;
  for (uint64_t I = 0; I != Unique; ++I)
    Uniques.push_back(Factory.request(32 + 4 * (I % 4), 9000 + I));
  for (const serve::Request &Req : Uniques) {
    const serve::Response &R = Engine.submit(Req).wait();
    gate(R.St == serve::Status::Ok && !R.Memoized,
         "memo: warm-up request not executed Ok");
    WarmLat.push_back(R.TotalSeconds);
  }

  MemoResult R;
  R.Unique = Unique;
  R.WarmLatency = percentiles(std::move(WarmLat));
  R.Total = Unique * (RepeatsPerUnique + 1);
  std::vector<double> Latencies;
  for (uint64_t Round = 0; Round != RepeatsPerUnique; ++Round)
    for (const serve::Request &Req : Uniques) {
      const serve::Response &Resp = Engine.submit(Req).wait();
      gate(Resp.St == serve::Status::Ok, "memo: repeat not Ok");
      gate(Resp.Memoized, "memo: repeat missed the cache");
      Latencies.push_back(Resp.TotalSeconds);
    }
  Engine.shutdown(serve::Engine::ShutdownMode::Drain);

  serve::Engine::Stats Stats = Engine.stats();
  R.Hits = Stats.MemoHits;
  R.HitRate = static_cast<double>(R.Hits) / static_cast<double>(R.Total);
  for (uint64_t N : Stats.DeviceRequests)
    R.Executed += N;
  R.RepeatLatency = percentiles(std::move(Latencies));
  return R;
}

void writeJson(const std::string &Path, bool Smoke,
               const SaturationResult &Off, const SaturationResult &On,
               const FairnessResult &Fair, const MemoResult &Memo) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    std::exit(2);
  }
  auto Sat = [&](const char *Name, const SaturationResult &R,
                 const char *Tail) {
    std::fprintf(F,
                 "    \"%s\": {\"requests\": %llu, \"batches\": %llu, "
                 "\"continuous_joins\": %llu, "
                 "\"mean_queue_wait_seconds\": %.6f, "
                 "\"latency_seconds\": {\"p50\": %.6f, \"p95\": %.6f, "
                 "\"p99\": %.6f}}%s\n",
                 Name, static_cast<unsigned long long>(R.Requests),
                 static_cast<unsigned long long>(R.Batches),
                 static_cast<unsigned long long>(R.Joins),
                 R.MeanQueueWaitSeconds, R.Latency.P50, R.Latency.P95,
                 R.Latency.P99, Tail);
  };
  std::fprintf(F, "{\n  \"benchmark\": \"serve_soak\",\n");
  std::fprintf(F, "  \"mode\": \"%s\",\n", Smoke ? "smoke" : "full");
  std::fprintf(F, "  \"host\": %s,\n", parrecbench::hostJson().c_str());
  std::fprintf(F, "  \"continuous_batching\": {\n");
  Sat("off", Off, ",");
  Sat("on", On, "");
  std::fprintf(F, "  },\n");
  std::fprintf(
      F,
      "  \"fairness\": {\"per_tenant\": %llu, \"weights\": [10, 1], "
      "\"prefix_heavy\": %llu, \"prefix_light\": %llu, "
      "\"goodput_ratio\": %.3f,\n"
      "    \"heavy_latency_seconds\": {\"p50\": %.6f, \"p95\": %.6f, "
      "\"p99\": %.6f},\n"
      "    \"light_latency_seconds\": {\"p50\": %.6f, \"p95\": %.6f, "
      "\"p99\": %.6f}},\n",
      static_cast<unsigned long long>(Fair.PerTenant),
      static_cast<unsigned long long>(Fair.PrefixHeavy),
      static_cast<unsigned long long>(Fair.PrefixLight), Fair.GoodputRatio,
      Fair.HeavyLatency.P50, Fair.HeavyLatency.P95, Fair.HeavyLatency.P99,
      Fair.LightLatency.P50, Fair.LightLatency.P95, Fair.LightLatency.P99);
  std::fprintf(
      F,
      "  \"memoization\": {\"unique\": %llu, \"total\": %llu, "
      "\"hits\": %llu, \"executed\": %llu, \"hit_rate\": %.3f,\n"
      "    \"warm_latency_seconds\": {\"p50\": %.6f, \"p95\": %.6f, "
      "\"p99\": %.6f},\n"
      "    \"repeat_latency_seconds\": {\"p50\": %.6f, \"p95\": %.6f, "
      "\"p99\": %.6f}}\n",
      static_cast<unsigned long long>(Memo.Unique),
      static_cast<unsigned long long>(Memo.Total),
      static_cast<unsigned long long>(Memo.Hits),
      static_cast<unsigned long long>(Memo.Executed), Memo.HitRate,
      Memo.WarmLatency.P50, Memo.WarmLatency.P95, Memo.WarmLatency.P99,
      Memo.RepeatLatency.P50, Memo.RepeatLatency.P95,
      Memo.RepeatLatency.P99);
  std::fprintf(F, "}\n");
  std::fclose(F);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  std::string OutPath = "BENCH_soak.json";
  for (int I = 1; I != Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strncmp(Argv[I], "--out=", 6) == 0)
      OutPath = Argv[I] + 6;
    else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH]\n", Argv[0]);
      return 2;
    }
  }

  const uint64_t Stream = Smoke ? 12 : 32;
  const uint64_t PerTenant = Smoke ? 40 : 120;
  const uint64_t Unique = Smoke ? 4 : 8;

  SaturationResult Off = runSaturation(false, Stream);
  SaturationResult On = runSaturation(true, Stream);
  FairnessResult Fair = runFairness(PerTenant);
  MemoResult Memo = runMemo(Unique, /*RepeatsPerUnique=*/9);

  std::printf("continuous off: batches=%llu joins=%llu mean-wait=%.4fs "
              "p99=%.4fs\n",
              static_cast<unsigned long long>(Off.Batches),
              static_cast<unsigned long long>(Off.Joins),
              Off.MeanQueueWaitSeconds, Off.Latency.P99);
  std::printf("continuous on:  batches=%llu joins=%llu mean-wait=%.4fs "
              "p99=%.4fs\n",
              static_cast<unsigned long long>(On.Batches),
              static_cast<unsigned long long>(On.Joins),
              On.MeanQueueWaitSeconds, On.Latency.P99);
  std::printf("fairness 10:1:  prefix heavy=%llu light=%llu ratio=%.2f "
              "heavy-p99=%.4fs light-p99=%.4fs\n",
              static_cast<unsigned long long>(Fair.PrefixHeavy),
              static_cast<unsigned long long>(Fair.PrefixLight),
              Fair.GoodputRatio, Fair.HeavyLatency.P99,
              Fair.LightLatency.P99);
  std::printf("memoization:    hits=%llu/%llu (%.0f%%) executed=%llu "
              "repeat-p99=%.6fs\n",
              static_cast<unsigned long long>(Memo.Hits),
              static_cast<unsigned long long>(Memo.Total),
              100.0 * Memo.HitRate,
              static_cast<unsigned long long>(Memo.Executed),
              Memo.RepeatLatency.P99);

  // Gate (a): continuous batching strictly reduces mean queue wait at
  // saturation — and does it the honest way, by collapsing batches.
  gate(On.Joins == Stream - 1, "continuous batching joined nothing");
  gate(Off.Joins == 0, "baseline joined batches with the feature off");
  gate(Off.Batches == Stream + 1,
       "baseline did not open one batch per straggler");
  gate(On.Batches < Off.Batches,
       "continuous batching did not reduce batch count");
  gate(On.MeanQueueWaitSeconds < Off.MeanQueueWaitSeconds,
       "continuous batching did not reduce mean queue wait");
  // Gate (b): goodput within 15% of the 10:1 weight ratio, and the
  // favoured tenant's p99 ahead of the unfavoured one's.
  gate(Fair.GoodputRatio > 10.0 * 0.85 && Fair.GoodputRatio < 10.0 * 1.15,
       "weighted goodput ratio outside 10:1 +/- 15%");
  gate(Fair.HeavyLatency.P99 < Fair.LightLatency.P99,
       "heavy tenant's p99 not ahead of light tenant's");
  // Gate (c): >= 90% memo hits, zero extra executions, and hit p99
  // beating even the executed path's median (the point of the cache).
  gate(Memo.HitRate >= 0.9, "memo hit rate below 90%");
  gate(Memo.Executed == Memo.Unique,
       "memoized repeats reached a device (extra executions)");
  gate(Memo.RepeatLatency.P99 < Memo.WarmLatency.P50,
       "memo-hit p99 latency not below executed-path p50");

  writeJson(OutPath, Smoke, Off, On, Fair, Memo);
  return Failures == 0 ? 0 : 1;
}
