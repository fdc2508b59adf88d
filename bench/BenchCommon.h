//===- BenchCommon.h - Shared workloads for the figure benches ----*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared between the bench binaries: the case-study DSL sources, seeded
/// synthetic workload builders matching the paper's evaluation shapes,
/// run helpers, a collector that prints each figure's series as a
/// paper-style table after the google-benchmark run, and the host block
/// a BENCH file records beside its wall-clock numbers.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_BENCH_BENCHCOMMON_H
#define PARREC_BENCH_BENCHCOMMON_H

#include "baselines/HmmBaselines.h"
#include "baselines/SmithWaterman.h"
#include "bio/Fasta.h"
#include "bio/HmmZoo.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "runtime/CompiledRecurrence.h"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include <sched.h>

namespace parrecbench {

/// The Smith-Waterman recursion of the Section 6.1 case study (linear gap
/// penalty 4, substitution-matrix extension).
inline const char *smithWatermanSource() {
  return "int sw(matrix[protein] m, seq[protein] a, index[a] i,\n"
         "       seq[protein] b, index[b] j) =\n"
         "  if i == 0 then 0\n"
         "  else if j == 0 then 0\n"
         "  else 0 max (sw(i-1, j-1) + m[a[i-1], b[j-1]])\n"
         "       max (sw(i-1, j) - 4) max (sw(i, j-1) - 4)\n";
}

/// The Figure 11 forward algorithm (HMM extension), over any alphabet.
inline const char *forwardSource() {
  return "prob forward(hmm h, state[h] s, seq[*] x, index[x] i) =\n"
         "  if i == 0 then\n"
         "    if s.isstart then 1.0 else 0.0\n"
         "  else\n"
         "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
         "    sum(t in s.transitionsto : t.prob * forward(t.start, "
         "i - 1))\n";
}

/// Collects (figure, series, x, y) points during benchmark runs and
/// prints them as tables afterwards; this regenerates the paper's
/// figures as text.
class FigureTable {
public:
  static FigureTable &instance() {
    static FigureTable Table;
    return Table;
  }

  void record(const std::string &Figure, const std::string &Series,
              int64_t X, double Seconds) {
    Data[Figure][X][Series] = Seconds;
  }

  void printAll() {
    for (const auto &[Figure, Rows] : Data) {
      // Collect the union of series names for the header.
      std::vector<std::string> SeriesNames;
      for (const auto &[X, Cells] : Rows)
        for (const auto &[Name, Value] : Cells) {
          (void)Value;
          bool Known = false;
          for (const std::string &Existing : SeriesNames)
            Known |= Existing == Name;
          if (!Known)
            SeriesNames.push_back(Name);
        }
      std::printf("\n== %s (modelled seconds) ==\n", Figure.c_str());
      std::printf("%12s", "x");
      for (const std::string &Name : SeriesNames)
        std::printf(" %16s", Name.c_str());
      std::printf("\n");
      for (const auto &[X, Cells] : Rows) {
        std::printf("%12lld", static_cast<long long>(X));
        for (const std::string &Name : SeriesNames) {
          auto It = Cells.find(Name);
          if (It == Cells.end())
            std::printf(" %16s", "-");
          else
            std::printf(" %16.6f", It->second);
        }
        std::printf("\n");
      }
    }
  }

private:
  std::map<std::string, std::map<int64_t, std::map<std::string, double>>>
      Data;
};

/// Scan-worker count the bench run helpers pass to every batch
/// (RunOptions::ScanWorkers): 0 shares the host budget with the batch
/// stripe, 1 forces serial scans. Set by benchMain from --scan-workers=.
inline unsigned &benchScanWorkers() {
  static unsigned Workers = 0;
  return Workers;
}

/// Workload-seed override set by benchMain from --seed=. 0 (the default)
/// keeps every builder's baked-in seed, so runs without the flag are
/// bit-identical to historical ones.
inline uint64_t &benchSeed() {
  static uint64_t Seed = 0;
  return Seed;
}

/// Mixes the --seed override into a builder's baked-in base seed.
/// Identity when no override is set; otherwise a splitmix-style blend so
/// distinct builders still draw decorrelated streams under one --seed.
inline uint64_t benchMixSeed(uint64_t Base) {
  uint64_t Override = benchSeed();
  if (!Override)
    return Base;
  return Base ^ (Override * 0x9E3779B97F4A7C15ull);
}

/// The host a bench ran on, as one JSON object: the CPUs this process
/// may run on (what `nproc` prints), std::thread::hardware_concurrency,
/// the CPU model from /proc/cpuinfo, the compiler and its version, and
/// the CMake build type (PARREC_BUILD_TYPE, set by bench/CMakeLists.txt).
inline std::string hostJson() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  int Nproc = sched_getaffinity(0, sizeof(Set), &Set) == 0 ? CPU_COUNT(&Set)
                                                            : 0;
  std::string Model = "unknown";
  std::ifstream CpuInfo("/proc/cpuinfo");
  for (std::string Line; std::getline(CpuInfo, Line);)
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos && Colon + 2 <= Line.size())
        Model = Line.substr(Colon + 2);
      break;
    }
#if defined(__clang__)
  const char *Compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char *Compiler = "gcc " __VERSION__;
#else
  const char *Compiler = "unknown";
#endif
  parrec::obs::JsonWriter W;
  W.beginObject();
  W.key("nproc").value(Nproc);
  W.key("hardware_concurrency").value(std::thread::hardware_concurrency());
  W.key("cpu_model").value(Model);
  W.key("compiler").value(Compiler);
  W.key("build_type").value(PARREC_BUILD_TYPE);
  W.endObject();
  return W.str();
}

/// Runs registered benchmarks, then prints the figure tables. Every bench
/// binary uses this main. `--metrics-out=<file>` (stripped before
/// google-benchmark sees the arguments) dumps the parrec metrics
/// registry as JSON after the run; `--scan-workers=<n>` (also stripped)
/// sets the wavefront scan-worker count used by the run helpers;
/// `--seed=<n>` (also stripped) re-seeds the synthetic workload builders
/// so a figure can be replicated over independent draws.
inline int benchMain(int Argc, char **Argv) {
  std::string MetricsOut;
  {
    int Out = 1;
    for (int In = 1; In < Argc; ++In) {
      constexpr const char *MetricsFlag = "--metrics-out=";
      constexpr const char *ScanFlag = "--scan-workers=";
      constexpr const char *SeedFlag = "--seed=";
      if (std::strncmp(Argv[In], MetricsFlag, std::strlen(MetricsFlag)) ==
          0)
        MetricsOut = Argv[In] + std::strlen(MetricsFlag);
      else if (std::strncmp(Argv[In], ScanFlag, std::strlen(ScanFlag)) ==
               0)
        benchScanWorkers() = static_cast<unsigned>(
            std::atoi(Argv[In] + std::strlen(ScanFlag)));
      else if (std::strncmp(Argv[In], SeedFlag, std::strlen(SeedFlag)) ==
               0)
        benchSeed() = std::strtoull(Argv[In] + std::strlen(SeedFlag),
                                    nullptr, 10);
      else
        Argv[Out++] = Argv[In];
    }
    Argc = Out;
  }
  ::benchmark::Initialize(&Argc, Argv);
  if (::benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  FigureTable::instance().printAll();
  if (!MetricsOut.empty()) {
    std::ofstream Out(MetricsOut, std::ios::binary | std::ios::trunc);
    Out << parrec::obs::MetricsRegistry::global().snapshot().json()
        << '\n';
    if (!Out) {
      std::fprintf(stderr, "bench: cannot write metrics to '%s'\n",
                   MetricsOut.c_str());
      return 1;
    }
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Workload builders (all deterministic in their seeds)
//===----------------------------------------------------------------------===//

/// The protein database the Smith-Waterman figure searches. The paper
/// used a real sequence database; shape-preserving substitute: uniform
/// random proteins with the length spread of typical entries.
inline parrec::bio::SequenceDatabase
proteinDatabase(unsigned Count, int64_t MinLength = 30,
                int64_t MaxLength = 600) {
  return parrec::bio::randomDatabase(parrec::bio::Alphabet::protein(),
                                     Count, MinLength, MaxLength,
                                     benchMixSeed(0xB105));
}

/// DNA sequences drawn from the gene-finder model itself (so likelihoods
/// are meaningful), padded from uniform DNA when sampling ends early.
inline parrec::bio::SequenceDatabase
geneDatabase(const parrec::bio::Hmm &Model, unsigned Count,
             int64_t Length) {
  parrec::bio::SequenceDatabase Db;
  Db.reserve(Count);
  parrec::SplitMix64 Rng(benchMixSeed(0x6E43));
  for (unsigned I = 0; I != Count; ++I) {
    std::string S = Model.sample(Rng.next(),
                                 static_cast<size_t>(Length));
    while (static_cast<int64_t>(S.size()) < Length)
      S += Model.alphabet().charAt(
          static_cast<unsigned>(Rng.nextBelow(Model.alphabet().size())));
    S.resize(static_cast<size_t>(Length));
    Db.emplace_back("g" + std::to_string(I), std::move(S));
  }
  return Db;
}

/// Protein sequences for the profile-HMM searches.
inline parrec::bio::SequenceDatabase proteinReads(unsigned Count,
                                                  int64_t Length) {
  return parrec::bio::randomDatabase(parrec::bio::Alphabet::protein(),
                                     Count, Length, Length,
                                     benchMixSeed(0xF00D));
}

//===----------------------------------------------------------------------===//
// Run helpers
//===----------------------------------------------------------------------===//

/// Compiles a case-study source once per process.
inline const parrec::runtime::CompiledRecurrence &
compiledOnce(const char *Source) {
  static std::map<std::string, parrec::runtime::CompiledRecurrence>
      Cache;
  auto It = Cache.find(Source);
  if (It == Cache.end()) {
    parrec::DiagnosticEngine Diags;
    auto Compiled =
        parrec::runtime::CompiledRecurrence::compile(Source, Diags);
    if (!Compiled) {
      std::fprintf(stderr, "bench compile failure:\n%s",
                   Diags.str().c_str());
      std::abort();
    }
    It = Cache.emplace(Source, std::move(*Compiled)).first;
  }
  return It->second;
}

/// ParRec database search with the Smith-Waterman recursion: one problem
/// per subject, table-max scores. Returns modelled GPU seconds.
inline double parrecSwSearch(const parrec::bio::Sequence &Query,
                             const parrec::bio::SequenceDatabase &Db,
                             const parrec::gpu::Device &Device,
                             std::vector<int> *ScoresOut = nullptr) {
  const auto &Fn = compiledOnce(smithWatermanSource());
  const auto &Matrix = parrec::bio::SubstitutionMatrix::blosum62();
  std::vector<std::vector<parrec::codegen::ArgValue>> Problems;
  Problems.reserve(Db.size());
  for (const parrec::bio::Sequence &Subject : Db)
    Problems.push_back({parrec::codegen::ArgValue::ofMatrix(&Matrix),
                        parrec::codegen::ArgValue::ofSeq(&Query),
                        parrec::codegen::ArgValue(),
                        parrec::codegen::ArgValue::ofSeq(&Subject),
                        parrec::codegen::ArgValue()});
  parrec::DiagnosticEngine Diags;
  parrec::runtime::RunOptions Options;
  Options.ScanWorkers = benchScanWorkers();
  auto Batch = Fn.runGpuBatch(Problems, Device, Diags, Options);
  if (!Batch) {
    std::fprintf(stderr, "bench run failure:\n%s", Diags.str().c_str());
    std::abort();
  }
  if (ScoresOut) {
    ScoresOut->clear();
    for (const parrec::runtime::RunResult &R : Batch->Problems)
      ScoresOut->push_back(static_cast<int>(R.TableMax));
  }
  return Batch->Seconds;
}

/// ParRec database scoring with the forward recursion. Returns modelled
/// GPU seconds.
inline double
parrecForwardSearch(const parrec::bio::Hmm &Model,
                    const parrec::bio::SequenceDatabase &Db,
                    const parrec::gpu::Device &Device,
                    std::vector<double> *LogLiksOut = nullptr) {
  const auto &Fn = compiledOnce(forwardSource());
  std::vector<std::vector<parrec::codegen::ArgValue>> Problems;
  Problems.reserve(Db.size());
  for (const parrec::bio::Sequence &Seq : Db)
    Problems.push_back({parrec::codegen::ArgValue::ofHmm(&Model),
                        parrec::codegen::ArgValue(),
                        parrec::codegen::ArgValue::ofSeq(&Seq),
                        parrec::codegen::ArgValue()});
  parrec::DiagnosticEngine Diags;
  parrec::runtime::RunOptions Options;
  Options.ScanWorkers = benchScanWorkers();
  auto Batch = Fn.runGpuBatch(Problems, Device, Diags, Options);
  if (!Batch) {
    std::fprintf(stderr, "bench run failure:\n%s", Diags.str().c_str());
    std::abort();
  }
  if (LogLiksOut) {
    LogLiksOut->clear();
    for (const parrec::runtime::RunResult &R : Batch->Problems)
      LogLiksOut->push_back(R.RootValue);
  }
  return Batch->Seconds;
}

} // namespace parrecbench

#endif // PARREC_BENCH_BENCHCOMMON_H
