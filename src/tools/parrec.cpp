//===- parrec.cpp - The ParRec command-line driver ----------------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler driver:
///   parrec run <script.rdsl>         execute a script on the simulator
///   parrec run --cpu <script.rdsl>   execute with the modelled CPU
///   parrec check <fn.rdsl>           compile and validate one function
///   parrec schedule <fn.rdsl> n1 n2  print the minimal schedule for a box
///   parrec emit <fn.rdsl>            print the synthesized CUDA source
///   parrec loops <fn.rdsl> n1 n2     print the Figure 9/10 loop nests
///   parrec serve --replay=<w.json>   replay a workload through the
///                                    serving engine and print throughput
///                                    and latency percentiles
///
/// `run` observability flags:
///   --trace-out=<file>   trace the pipeline and write Chrome trace-event
///                        JSON (open in Perfetto / chrome://tracing)
///   --trace-tree         print the span tree to stderr after the run
///   --stats[=json]       print the metrics registry to stderr
///   --stats-out=<file>   write the metrics registry snapshot JSON
///   --dump-passes        print each compiler pass's runs and wall time
///                        to stderr after the run
///
/// `emit` and `loops` accept `--schedule=a1,a2,...` to use a
/// user-provided scheduling function instead of the derived one; it is
/// verified against the dependency criteria first (Section 4.5).
///
//===----------------------------------------------------------------------===//

#include "codegen/CudaEmitter.h"
#include "compiler/Pipeline.h"
#include "obs/Export.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "poly/CPrinter.h"
#include "runtime/CompiledRecurrence.h"
#include "runtime/Interpreter.h"
#include "serve/Router.h"
#include "serve/Workload.h"
#include "support/StringUtils.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace parrec;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: parrec <command> [options] <file> [extents...]\n"
               "commands:\n"
               "  run [--cpu] [--scan-workers=<n>]\n"
               "      [--pipeline|--no-pipeline]\n"
               "      [--evaluator=ast|vm|jit] [--jit-cache-dir=<dir>]\n"
               "      [--trace-out=<f>] [--trace-tree] [--stats[=json]]\n"
               "      [--stats-out=<f>] [--dump-passes]\n"
               "      <script>           execute a script\n"
               "                         (--scan-workers: host threads per\n"
               "                         partition scan; 0 auto, 1 serial —\n"
               "                         results are identical either way;\n"
               "                         --evaluator: cell evaluator — ast\n"
               "                         oracle, vm bytecode (default), jit\n"
               "                         native; all bit-identical;\n"
               "                         --pipeline: overlap batch members'\n"
               "                         partitions across multiprocessors;\n"
               "                         changes modelled wall-clock only;\n"
               "                         --dump-passes: each compiler\n"
               "                         pass's runs and wall time)\n"
               "  check <function>       analyse a single function\n"
               "  schedule <fn> <n...>   derive the minimal schedule\n"
               "  emit [--schedule=<a1,...>] <fn>\n"
               "                         print synthesized CUDA source\n"
               "  loops [--schedule=<a1,...>] <fn> <n...>\n"
               "                         print generated loop nests\n"
               "  serve --replay=<w.json> [--devices=<n>]\n"
               "      [--queue-cap=<n>] [--max-batch=<n>]\n"
               "      [--linger=<ticks>]\n"
               "      [--router-shards=<n>] [--spill-depth=<n>]\n"
               "      [--tenant-weight=<name>=<w>] [--continuous-batch]\n"
               "      [--memo-cap=<entries>]\n"
               "      [--pipeline|--no-pipeline]\n"
               "      [--batch-workers=<n>] [--scan-workers=<n>]\n"
               "      [--strict] [--stats-out=<f>] [--trace-out=<f>]\n"
               "      [--prom-out=<f>] [--export-jsonl=<f>]\n"
               "      [--export-interval=<ms>] [--flight-dump=<f>]\n"
               "                         replay a workload through the\n"
               "                         serving engine (--strict: fail\n"
               "                         on any non-ok response;\n"
               "                         --router-shards: front router over\n"
               "                         N engine shards, --spill-depth:\n"
               "                         re-route when the sticky shard's\n"
               "                         queue is deeper than this;\n"
               "                         --tenant-weight: fair-queue weight\n"
               "                         override (repeatable);\n"
               "                         --continuous-batch: admit matching\n"
               "                         late arrivals into queued batches;\n"
               "                         --memo-cap: memoize results, LRU\n"
               "                         over this many entries;\n"
               "                         --prom-out: continuously export\n"
               "                         Prometheus text; --export-jsonl:\n"
               "                         append a JSONL metrics series;\n"
               "                         --flight-dump: dump the flight\n"
               "                         recorder here after the replay,\n"
               "                         and on the first deadline/failed\n"
               "                         response; not with\n"
               "                         --router-shards)\n");
  return 2;
}

/// Strictly parses an unsigned decimal flag value; one-line error and
/// false on anything else (including trailing junk and overflow).
bool parseCount(const char *Flag, const char *Value, uint64_t *Out) {
  if (*Value == '\0') {
    std::fprintf(stderr, "error: %s needs a number, got ''\n", Flag);
    return false;
  }
  char *End = nullptr;
  errno = 0;
  unsigned long long Parsed = std::strtoull(Value, &End, 10);
  if (errno != 0 || *End != '\0' || Value[0] == '-') {
    std::fprintf(stderr, "error: %s needs a number, got '%s'\n", Flag,
                 Value);
    return false;
  }
  *Out = Parsed;
  return true;
}

bool parseCount(const char *Flag, const char *Value, unsigned *Out) {
  uint64_t Wide = 0;
  if (!parseCount(Flag, Value, &Wide))
    return false;
  if (Wide > 0xFFFFFFFFull) {
    std::fprintf(stderr, "error: %s value '%s' is out of range\n", Flag,
                 Value);
    return false;
  }
  *Out = static_cast<unsigned>(Wide);
  return true;
}

std::optional<std::string> readFile(const char *Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Compiles the one function in \p Path through the compiler's frontend
/// passes, so `check`, `schedule`, `emit` and `loops` reject what
/// `run` rejects.
std::optional<runtime::CompiledRecurrence>
compileFile(const char *Path, DiagnosticEngine &Diags) {
  std::optional<std::string> Source = readFile(Path);
  if (!Source) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path);
    return std::nullopt;
  }
  return runtime::CompiledRecurrence::compile(*Source, Diags);
}

/// Returns the value of a `--name=value` option, or null when \p Arg is
/// not that option.
const char *optionValue(const char *Arg, const char *Name) {
  size_t Len = std::strlen(Name);
  if (std::strncmp(Arg, Name, Len) != 0 || Arg[Len] != '=')
    return nullptr;
  return Arg + Len + 1;
}

/// Reads emit's and loops' one option, `--schedule=a1,a2,...`, into \p S
/// when Argv[*Index] is an option, advancing *Index past it. Returns
/// false after a one-line error on any other option or on a coefficient
/// that is not a whole integer.
bool parseScheduleOption(int Argc, char **Argv, int *Index,
                         std::optional<solver::Schedule> &S) {
  if (*Index >= Argc || Argv[*Index][0] != '-')
    return true;
  const char *Value = optionValue(Argv[*Index], "--schedule");
  S.emplace();
  for (const std::string &Piece : splitString(Value ? Value : "", ',')) {
    char *End = nullptr;
    errno = 0;
    S->Coefficients.push_back(std::strtoll(Piece.c_str(), &End, 10));
    if (!Value || Piece.empty() || errno != 0 || *End != '\0') {
      std::fprintf(stderr,
                   "error: %s takes --schedule=a1,a2,... with whole-integer "
                   "coefficients, got '%s'\n",
                   Argv[1], Argv[*Index]);
      return false;
    }
  }
  ++*Index;
  return true;
}

std::optional<solver::DomainBox> boxFromArgs(int Argc, char **Argv,
                                             int First, unsigned Dims) {
  if (Argc - First != static_cast<int>(Dims)) {
    std::fprintf(stderr,
                 "error: expected %u domain extents, got %d\n", Dims,
                 Argc - First);
    return std::nullopt;
  }
  std::vector<int64_t> Extents;
  for (int I = First; I != Argc; ++I)
    Extents.push_back(std::atoll(Argv[I]));
  for (int64_t E : Extents)
    if (E <= 0) {
      std::fprintf(stderr, "error: extents must be positive\n");
      return std::nullopt;
    }
  return solver::DomainBox::fromExtents(Extents);
}

int cmdRun(int Argc, char **Argv) {
  bool UseCpu = false, DumpPasses = false;
  bool StatsHuman = false, StatsJson = false, TraceTree = false;
  bool Pipeline = false;
  unsigned ScanWorkers = 0;
  exec::EvalKind Evaluator = exec::EvalKind::Vm;
  std::string TraceOut, StatsOut, JitCacheDir;
  int FileIndex = 2;
  for (; FileIndex < Argc && Argv[FileIndex][0] == '-'; ++FileIndex) {
    const char *Arg = Argv[FileIndex];
    const char *Value;
    if (std::strcmp(Arg, "--cpu") == 0)
      UseCpu = true;
    else if (std::strcmp(Arg, "--pipeline") == 0)
      Pipeline = true;
    else if (std::strcmp(Arg, "--no-pipeline") == 0)
      Pipeline = false;
    else if (std::strcmp(Arg, "--dump-passes") == 0)
      DumpPasses = true;
    else if ((Value = optionValue(Arg, "--scan-workers"))) {
      if (!parseCount("--scan-workers", Value, &ScanWorkers))
        return 2;
    } else if ((Value = optionValue(Arg, "--evaluator"))) {
      if (std::strcmp(Value, "ast") == 0)
        Evaluator = exec::EvalKind::Ast;
      else if (std::strcmp(Value, "vm") == 0)
        Evaluator = exec::EvalKind::Vm;
      else if (std::strcmp(Value, "jit") == 0)
        Evaluator = exec::EvalKind::Jit;
      else {
        std::fprintf(stderr,
                     "error: --evaluator must be ast, vm or jit, got "
                     "'%s'\n",
                     Value);
        return 2;
      }
    } else if ((Value = optionValue(Arg, "--jit-cache-dir"))) {
      JitCacheDir = Value;
    } else if ((Value = optionValue(Arg, "--trace-out")))
      TraceOut = Value;
    else if (std::strcmp(Arg, "--trace-tree") == 0)
      TraceTree = true;
    else if (std::strcmp(Arg, "--stats") == 0)
      StatsHuman = true;
    else if (std::strcmp(Arg, "--stats=json") == 0)
      StatsJson = true;
    else if ((Value = optionValue(Arg, "--stats-out")))
      StatsOut = Value;
    else {
      std::fprintf(stderr, "error: unknown run option '%s'\n", Arg);
      return usage();
    }
  }
  if (FileIndex >= Argc)
    return usage();
  if (!TraceOut.empty() || TraceTree)
    obs::Tracer::instance().enable();
  std::optional<std::string> Source = readFile(Argv[FileIndex]);
  if (!Source) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Argv[FileIndex]);
    return 1;
  }
  // Loads resolve relative to the script's directory.
  std::string Dir = Argv[FileIndex];
  size_t Slash = Dir.rfind('/');
  Dir = Slash == std::string::npos ? std::string(".")
                                   : Dir.substr(0, Slash);

  DiagnosticEngine Diags;
  runtime::Interpreter::Options Opts;
  Opts.UseGpu = !UseCpu;
  Opts.BasePath = Dir;
  Opts.Run.Trace = obs::Tracer::enabled();
  Opts.Run.ScanWorkers = ScanWorkers;
  Opts.Run.Pipeline = Pipeline;
  Opts.Run.Evaluator = Evaluator;
  Opts.Run.JitCacheDir = JitCacheDir;
  runtime::Interpreter Interp(Diags, std::move(Opts));
  std::optional<std::string> Output = Interp.run(*Source);
  std::fputs(Diags.str().c_str(), stderr);

  if (DumpPasses) {
    obs::MetricsSnapshot Snap = obs::MetricsRegistry::global().snapshot();
    std::fprintf(stderr, "%-20s %8s %12s\n", "pass", "runs", "total ms");
    for (std::string_view Pass : compiler::PassNames) {
      std::string Name(Pass);
      auto It = Snap.Distributions.find("compile.pass." + Name + ".ns");
      uint64_t Runs = It == Snap.Distributions.end() ? 0 : It->second.Count;
      double Ms =
          It == Snap.Distributions.end() ? 0.0 : It->second.Sum / 1e6;
      std::fprintf(stderr, "%-20s %8llu %12.3f\n", Name.c_str(),
                   static_cast<unsigned long long>(Runs), Ms);
    }
  }

  if (!TraceOut.empty() &&
      !obs::Tracer::instance().writeChromeTrace(TraceOut)) {
    std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                 TraceOut.c_str());
    return 1;
  }
  if (TraceTree)
    std::fputs(obs::Tracer::instance().spanTree().c_str(), stderr);
  if (StatsHuman || StatsJson || !StatsOut.empty()) {
    obs::MetricsSnapshot Snap = obs::MetricsRegistry::global().snapshot();
    if (StatsJson)
      std::fprintf(stderr, "%s\n", Snap.json().c_str());
    else if (StatsHuman)
      std::fputs(Snap.str().c_str(), stderr);
    if (!StatsOut.empty()) {
      std::ofstream StatsFile(StatsOut, std::ios::binary | std::ios::trunc);
      StatsFile << Snap.json() << '\n';
      if (!StatsFile) {
        std::fprintf(stderr, "error: cannot write stats to '%s'\n",
                     StatsOut.c_str());
        return 1;
      }
    }
  }
  if (!Output)
    return 1;
  std::fputs(Output->c_str(), stdout);
  return 0;
}

int cmdCheck(int Argc, char **Argv) {
  if (Argc < 3)
    return usage();
  DiagnosticEngine Diags;
  auto Fn = compileFile(Argv[2], Diags);
  std::fputs(Diags.str().c_str(), stderr);
  if (!Fn)
    return 1;
  std::printf("%s\n", Fn->decl().signatureStr().c_str());
  std::printf("recursion dimensions:");
  for (const lang::DimInfo &Dim : Fn->info().Dims)
    std::printf(" %s", Dim.Name.c_str());
  std::printf("\nrecursive calls:\n");
  for (const solver::DescentFunction &Call :
       Fn->info().Recurrence.Calls)
    std::printf("  %s%s\n",
                Call.str(Fn->info().Recurrence.DimNames).c_str(),
                Call.isUniform() ? " (uniform)" : " (affine)");
  return 0;
}

int cmdSchedule(int Argc, char **Argv) {
  if (Argc < 3)
    return usage();
  DiagnosticEngine Diags;
  auto Fn = compileFile(Argv[2], Diags);
  if (!Fn) {
    std::fputs(Diags.str().c_str(), stderr);
    return 1;
  }
  auto Box = boxFromArgs(Argc, Argv, 3, Fn->info().numDims());
  if (!Box)
    return 1;
  auto S = solver::findMinimalSchedule(Fn->info().Recurrence, *Box, Diags);
  std::fputs(Diags.str().c_str(), stderr);
  if (!S)
    return 1;
  std::printf("S_%s = %s\n", Fn->decl().Name.c_str(),
              S->str(Fn->info().Recurrence.DimNames).c_str());
  std::printf("partitions: %lld\n",
              static_cast<long long>(S->partitionCount(*Box)));
  auto Window = solver::slidingWindowDepth(Fn->info().Recurrence, *S);
  if (Window)
    std::printf("sliding window: %lld previous partitions\n",
                static_cast<long long>(*Window));
  else
    std::printf("sliding window: unavailable (affine descents)\n");
  return 0;
}

int cmdEmit(int Argc, char **Argv) {
  int Index = 2;
  DiagnosticEngine Diags;
  std::optional<solver::Schedule> S;
  if (!parseScheduleOption(Argc, Argv, &Index, S))
    return 2;
  if (Index >= Argc)
    return usage();
  auto Fn = compileFile(Argv[Index], Diags);
  if (!Fn) {
    std::fputs(Diags.str().c_str(), stderr);
    return 1;
  }
  if (S) {
    // Verify against the criteria before emitting (Section 4.5); with
    // uniform descents no box is needed.
    if (!solver::verifySchedule(Fn->info().Recurrence, *S, std::nullopt,
                                Diags))
      S.reset();
  } else {
    // Conditional derivation needs no box; fall back to a generic box
    // for affine descents.
    if (Fn->info().Recurrence.allUniform()) {
      auto Candidates =
          solver::findConditionalSchedules(Fn->info().Recurrence, Diags);
      if (Candidates && !Candidates->empty())
        S = (*Candidates)[0].S;
    }
    if (!S)
      S = solver::findMinimalSchedule(
          Fn->info().Recurrence,
          solver::DomainBox::fromExtents(
              std::vector<int64_t>(Fn->info().numDims(), 128)),
          Diags);
  }
  std::fputs(Diags.str().c_str(), stderr);
  if (!S)
    return 1;
  std::printf("%s\n%s",
              codegen::emitCudaKernel(Fn->decl(), Fn->info(), *S).c_str(),
              codegen::emitHostLaunchStub(Fn->decl(), Fn->info())
                  .c_str());
  return 0;
}

int cmdLoops(int Argc, char **Argv) {
  int Index = 2;
  DiagnosticEngine Diags;
  std::optional<solver::Schedule> UserSchedule;
  if (!parseScheduleOption(Argc, Argv, &Index, UserSchedule))
    return 2;
  if (Index >= Argc)
    return usage();
  auto Fn = compileFile(Argv[Index], Diags);
  if (!Fn) {
    std::fputs(Diags.str().c_str(), stderr);
    return 1;
  }
  auto Box = boxFromArgs(Argc, Argv, Index + 1, Fn->info().numDims());
  if (!Box)
    return 1;
  std::optional<solver::Schedule> S;
  if (UserSchedule) {
    if (!solver::verifySchedule(Fn->info().Recurrence, *UserSchedule,
                                *Box, Diags)) {
      std::fputs(Diags.str().c_str(), stderr);
      return 1;
    }
    S = std::move(UserSchedule);
  } else {
    S = solver::findMinimalSchedule(Fn->info().Recurrence, *Box, Diags);
  }
  std::fputs(Diags.str().c_str(), stderr);
  if (!S)
    return 1;

  // The extents chose the schedule; the nest is the recursion's one
  // parametric nest under it, the paper's Figure 9/10 form.
  poly::LoopNest Nest = poly::generateBoxLoops(
      Fn->info().Recurrence.DimNames, S->Coefficients);
  std::printf("// CLooG-style sequential scan (Figure 9)\n%s\n",
              poly::printSequentialLoops(Nest).c_str());
  std::printf("// Thread-partitioned conversion (Figure 10)\n%s",
              poly::printParallelLoops(Nest).c_str());
  return 0;
}

int cmdServe(int Argc, char **Argv) {
  serve::Engine::Options Opts;
  bool Strict = false;
  std::string Replay, StatsOut, TraceOut;
  std::string PromOut, ExportJsonl, FlightDump;
  uint64_t ExportIntervalMs = 0;
  unsigned RouterShards = 0; // 0 = no front router, direct engine.
  uint64_t SpillDepth = 0;
  std::map<std::string, uint64_t> WeightOverrides;
  for (int Index = 2; Index < Argc; ++Index) {
    const char *Arg = Argv[Index];
    const char *Value;
    if (Arg[0] != '-') {
      // A bare path is the workload file.
      if (!Replay.empty()) {
        std::fprintf(stderr,
                     "error: more than one workload file ('%s', '%s')\n",
                     Replay.c_str(), Arg);
        return 2;
      }
      Replay = Arg;
    } else if ((Value = optionValue(Arg, "--replay"))) {
      Replay = Value;
    } else if ((Value = optionValue(Arg, "--devices"))) {
      if (!parseCount("--devices", Value, &Opts.Devices))
        return 2;
      if (Opts.Devices == 0) {
        std::fprintf(stderr, "error: --devices must be at least 1\n");
        return 2;
      }
    } else if ((Value = optionValue(Arg, "--queue-cap"))) {
      uint64_t Cap = 0;
      if (!parseCount("--queue-cap", Value, &Cap))
        return 2;
      if (Cap == 0) {
        std::fprintf(stderr, "error: --queue-cap must be at least 1\n");
        return 2;
      }
      Opts.QueueCapacity = static_cast<size_t>(Cap);
    } else if ((Value = optionValue(Arg, "--max-batch"))) {
      uint64_t Max = 0;
      if (!parseCount("--max-batch", Value, &Max))
        return 2;
      if (Max == 0) {
        std::fprintf(stderr, "error: --max-batch must be at least 1\n");
        return 2;
      }
      Opts.MaxBatch = static_cast<size_t>(Max);
    } else if ((Value = optionValue(Arg, "--linger"))) {
      if (!parseCount("--linger", Value, &Opts.LingerTicks))
        return 2;
    } else if ((Value = optionValue(Arg, "--router-shards"))) {
      if (!parseCount("--router-shards", Value, &RouterShards))
        return 2;
      if (RouterShards == 0) {
        std::fprintf(stderr,
                     "error: --router-shards must be at least 1\n");
        return 2;
      }
    } else if ((Value = optionValue(Arg, "--spill-depth"))) {
      if (!parseCount("--spill-depth", Value, &SpillDepth))
        return 2;
    } else if ((Value = optionValue(Arg, "--tenant-weight"))) {
      const char *Eq = std::strchr(Value, '=');
      if (!Eq || Eq == Value) {
        std::fprintf(stderr, "error: --tenant-weight needs "
                             "<name>=<weight>, got '%s'\n",
                     Value);
        return 2;
      }
      uint64_t Weight = 0;
      if (!parseCount("--tenant-weight", Eq + 1, &Weight))
        return 2;
      if (Weight == 0) {
        std::fprintf(stderr,
                     "error: --tenant-weight must be at least 1\n");
        return 2;
      }
      WeightOverrides[std::string(Value, Eq)] = Weight;
    } else if (std::strcmp(Arg, "--continuous-batch") == 0) {
      Opts.ContinuousBatch = true;
    } else if ((Value = optionValue(Arg, "--memo-cap"))) {
      uint64_t Cap = 0;
      if (!parseCount("--memo-cap", Value, &Cap))
        return 2;
      Opts.Memo = Cap ? std::make_shared<serve::MemoCache>(Cap) : nullptr;
    } else if (std::strcmp(Arg, "--pipeline") == 0) {
      Opts.Pipeline = true;
    } else if (std::strcmp(Arg, "--no-pipeline") == 0) {
      Opts.Pipeline = false;
    } else if ((Value = optionValue(Arg, "--batch-workers"))) {
      if (!parseCount("--batch-workers", Value,
                      &Opts.BatchWorkersPerDevice))
        return 2;
    } else if ((Value = optionValue(Arg, "--scan-workers"))) {
      if (!parseCount("--scan-workers", Value,
                      &Opts.ScanWorkersPerDevice))
        return 2;
    } else if (std::strcmp(Arg, "--strict") == 0) {
      Strict = true;
    } else if ((Value = optionValue(Arg, "--stats-out"))) {
      StatsOut = Value;
    } else if ((Value = optionValue(Arg, "--trace-out"))) {
      TraceOut = Value;
    } else if ((Value = optionValue(Arg, "--prom-out"))) {
      PromOut = Value;
    } else if ((Value = optionValue(Arg, "--export-jsonl"))) {
      ExportJsonl = Value;
    } else if ((Value = optionValue(Arg, "--export-interval"))) {
      if (!parseCount("--export-interval", Value, &ExportIntervalMs))
        return 2;
    } else if ((Value = optionValue(Arg, "--flight-dump"))) {
      FlightDump = Value;
    } else {
      std::fprintf(stderr, "error: unknown serve option '%s'\n", Arg);
      return 2;
    }
  }
  if (ExportIntervalMs != 0 && PromOut.empty() && ExportJsonl.empty()) {
    std::fprintf(stderr, "error: --export-interval needs --prom-out "
                         "and/or --export-jsonl\n");
    return 2;
  }
  if (Replay.empty()) {
    std::fprintf(stderr,
                 "error: serve needs a workload (--replay=<file>)\n");
    return 2;
  }
  if (!FlightDump.empty() && RouterShards != 0) {
    std::fprintf(stderr, "error: --flight-dump needs a single engine, not "
                         "--router-shards\n");
    return 2;
  }
  if (!TraceOut.empty())
    obs::Tracer::instance().enable();

  std::string SpecError;
  std::optional<serve::WorkloadSpec> Spec =
      serve::loadWorkloadSpec(Replay, &SpecError);
  if (!Spec) {
    std::fprintf(stderr, "error: %s\n", SpecError.c_str());
    return 1;
  }
  DiagnosticEngine Diags;
  std::optional<serve::Workload> Workload =
      serve::Workload::build(*Spec, Diags);
  if (!Workload) {
    std::fputs(Diags.str().c_str(), stderr);
    std::fprintf(stderr, "error: cannot build workload from '%s'\n",
                 Replay.c_str());
    return 1;
  }

  if (!FlightDump.empty())
    Opts.FlightDumpPath = FlightDump;
  // Fair-queue weights: workload spec first, CLI overrides on top.
  Opts.TenantWeights = Spec->tenantWeights();
  for (const auto &[Tenant, Weight] : WeightOverrides)
    Opts.TenantWeights[Tenant] = Weight;

  std::optional<serve::Engine> Engine;
  std::optional<serve::Router> Router;
  if (RouterShards != 0) {
    serve::Router::Options RouterOpts;
    RouterOpts.Shard = Opts;
    RouterOpts.Shards = RouterShards;
    RouterOpts.SpillQueueDepth = static_cast<size_t>(SpillDepth);
    Router.emplace(std::move(RouterOpts));
  } else {
    Engine.emplace(Opts);
  }

  // The exporter samples the registry on its own thread during the
  // replay; stop() below writes the final snapshot, so even a replay
  // shorter than one interval leaves complete outputs.
  std::optional<obs::MetricsExporter> Exporter;
  if (!PromOut.empty() || !ExportJsonl.empty()) {
    obs::MetricsExporter::Options ExportOpts;
    ExportOpts.PromPath = PromOut;
    ExportOpts.JsonlPath = ExportJsonl;
    ExportOpts.IntervalMs = ExportIntervalMs;
    if (Router)
      ExportOpts.TickSource = [&Router] { return Router->now(); };
    else
      ExportOpts.TickSource = [&Engine] { return Engine->now(); };
    Exporter.emplace(std::move(ExportOpts));
  }

  serve::ReplayReport Report = Router
                                   ? serve::replay(*Router, *Workload)
                                   : serve::replay(*Engine, *Workload);
  if (Exporter)
    Exporter->stop();
  if (!FlightDump.empty() && !Engine->dumpFlightRecorder(FlightDump))
    std::fprintf(stderr, "error: cannot write flight dump to '%s'\n",
                 FlightDump.c_str());

  std::printf("replayed %llu requests across %u device(s)\n",
              static_cast<unsigned long long>(Report.Total),
              Opts.Devices);
  for (const auto &[Name, Count] : Report.ByStatus)
    std::printf("  %-12s %llu\n", Name.c_str(),
                static_cast<unsigned long long>(Count));
  if (!Report.ByEvaluator.empty()) {
    std::printf("ok by evaluator:");
    for (const auto &[Name, Count] : Report.ByEvaluator)
      std::printf(" %s=%llu", Name.c_str(),
                  static_cast<unsigned long long>(Count));
    std::printf("\n");
  }
  std::printf("batches: %llu (%.2f requests/batch)\n",
              static_cast<unsigned long long>(Report.Stats.Batches),
              Report.Stats.Batches
                  ? static_cast<double>(Report.Stats.Completed) /
                        static_cast<double>(Report.Stats.Batches)
                  : 0.0);
  std::printf("throughput: %.1f ok/s over %.3fs wall\n",
              Report.Throughput, Report.WallSeconds);
  std::printf("latency p50/p95/p99: %.6fs / %.6fs / %.6fs\n",
              Report.P50Seconds, Report.P95Seconds, Report.P99Seconds);
  for (const auto &[Tenant, TL] : Report.ByTenant)
    std::printf("  tenant %-12s ok=%llu p50/p95/p99: %.6fs / %.6fs / "
                "%.6fs\n",
                Tenant.c_str(), static_cast<unsigned long long>(TL.Ok),
                TL.P50Seconds, TL.P95Seconds, TL.P99Seconds);
  if (Report.Stats.MemoHits || Report.Stats.ContinuousJoins)
    std::printf("memo hits: %llu, continuous joins: %llu\n",
                static_cast<unsigned long long>(Report.Stats.MemoHits),
                static_cast<unsigned long long>(
                    Report.Stats.ContinuousJoins));
  if (Report.RouterShards)
    std::printf("router: %u shard(s), spilled=%llu\n", Report.RouterShards,
                static_cast<unsigned long long>(Report.RouterSpilled));
  std::printf("modelled busiest device: %llu cycles (%.6fs)\n",
              static_cast<unsigned long long>(Report.ModelledCycles),
              Report.ModelledSeconds);
  std::printf(
      "completion cycles p50/p95/p99: %llu / %llu / %llu\n",
      static_cast<unsigned long long>(Report.CompletionCycleP50),
      static_cast<unsigned long long>(Report.CompletionCycleP95),
      static_cast<unsigned long long>(Report.CompletionCycleP99));

  if (!TraceOut.empty() &&
      !obs::Tracer::instance().writeChromeTrace(TraceOut)) {
    std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                 TraceOut.c_str());
    return 1;
  }
  if (!StatsOut.empty()) {
    std::ofstream StatsFile(StatsOut, std::ios::binary | std::ios::trunc);
    StatsFile << Report.json() << '\n';
    if (!StatsFile) {
      std::fprintf(stderr, "error: cannot write stats to '%s'\n",
                   StatsOut.c_str());
      return 1;
    }
  }
  if (Strict && Report.okCount() != Report.Total) {
    std::fprintf(stderr,
                 "error: %llu of %llu requests did not complete ok\n",
                 static_cast<unsigned long long>(Report.Total -
                                                 Report.okCount()),
                 static_cast<unsigned long long>(Report.Total));
    return 1;
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  try {
    if (Argc < 2)
      return usage();
    if (std::strcmp(Argv[1], "run") == 0)
      return cmdRun(Argc, Argv);
    if (std::strcmp(Argv[1], "check") == 0)
      return cmdCheck(Argc, Argv);
    if (std::strcmp(Argv[1], "schedule") == 0)
      return cmdSchedule(Argc, Argv);
    if (std::strcmp(Argv[1], "emit") == 0)
      return cmdEmit(Argc, Argv);
    if (std::strcmp(Argv[1], "loops") == 0)
      return cmdLoops(Argc, Argv);
    if (std::strcmp(Argv[1], "serve") == 0)
      return cmdServe(Argc, Argv);
    std::fprintf(stderr, "error: unknown command '%s'\n", Argv[1]);
    return usage();
  } catch (const std::exception &E) {
    std::fprintf(stderr, "parrec: internal error: %s\n", E.what());
    return 1;
  }
}
