//===- main.cpp - End-to-end benchmark entry point -------------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
//   parbench --workload <sw_db|profile_forward|sw_long|serve_mixed>
//            --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//
// Prints a host block, the inputs and sample counts, a metric table and,
// as the last line, one JSON object {correct, attempted, failed,
// metrics}. Exits non-zero when any output disagrees with its oracle.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace perfbench;

namespace {

/// The metrics every end-to-end (trace 0) and every per-layer (trace 1)
/// result carries, in print order.
const std::vector<Metric> &endToEndMetrics() {
  static const std::vector<Metric> List = {
      {"setup_s", 0, "s"},          {"gcups", 0, "Gcell/s"},
      {"modelled_gpu_ms", 0, "ms"}, {"latency_p50_ms", 0, "ms"},
      {"latency_p90_ms", 0, "ms"},  {"peak_rss_mb", 0, "MiB"},
  };
  return List;
}

const std::vector<Metric> &perLayerMetrics() {
  static const std::vector<Metric> List = {
      {"frontend.compile_ms", 0, "ms"},
      {"plan.builds", 0, "count"},
      {"plan.build_ms", 0, "ms"},
      {"plan.lookup_us_p50", 0, "us"},
      {"plan.hit_ratio", 0, "fraction"},
      {"jit.kernels_compiled", 0, "count"},
      {"jit.compile_ms", 0, "ms"},
      {"jit.fallbacks", 0, "count"},
      {"bind.us_p50", 0, "us"},
      {"scan.ms_p50", 0, "ms"},
      {"scan.gcups", 0, "Gcell/s"},
      {"dispatch.us", 0, "us"},
      {"batch.fanout_speedup", 0, "x"},
      {"batch.unattributed_frac", 0, "fraction"},
      {"scan.fanout_speedup", 0, "x"},
      {"scan.partitions", 0, "count"},
      {"gpu.makespan_cycles", 0, "cycles"},
      {"gpu.problem_cycles_sum", 0, "cycles"},
      {"gpu.mp_occupancy", 0, "fraction"},
      {"serve.submit_us_p50", 0, "us"},
      {"serve.exec_ms_p50", 0, "ms"},
      {"memo.hit_ratio", 0, "fraction"},
      {"serve.queue_ms_p50", 0, "ms"},
      {"serve.queue_ms_p90", 0, "ms"},
      {"serve.batch_size_mean", 0, "requests"},
      {"serve.continuous_joins", 0, "count"},
      {"serve.max_queue_depth", 0, "count"},
      {"router.spilled", 0, "count"},
      {"serve.latency_p99_ms", 0, "ms"},
      {"serve.latency_samples", 0, "count"},
      {"gen.late_ms_p99", 0, "ms"},
      {"trace.overhead_frac", 0, "fraction"},
  };
  return List;
}

/// Orders \p Out's metrics as the lists above; a workload that does not
/// cross a layer reports 0 for that layer's metrics.
void completeMetrics(Outcome &Out, bool Trace) {
  std::vector<Metric> Ordered;
  for (const Metric &Want : Trace ? perLayerMetrics() : endToEndMetrics()) {
    Metric M = Want;
    for (const Metric &Got : Out.Metrics)
      if (Got.Name == Want.Name)
        M = Got;
    Ordered.push_back(M);
  }
  Out.Metrics = std::move(Ordered);
}

/// Host worker threads a workload keeps busy at once: sw_db and
/// profile_forward run 2 batch workers, sw_long 2 scan workers,
/// serve_mixed 2 device threads beside its generator.
unsigned workloadThreads(const std::string &Name) {
  return Name == "serve_mixed" ? 3 : 2;
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "parbench: %s\nusage: parbench --workload <sw_db|"
               "profile_forward|sw_long|serve_mixed> --seed <n> --seconds "
               "<s> --trace <0|1> --scratch <dir>\n",
               Why);
  return 2;
}

/// Variables that silently change what is measured.
const char *const RefusedEnv[] = {
    "ParRec_EVAL_AST", "PARREC_EVAL_AST",  "ParRec_TRACE",
    "PARREC_TRACE",    "ParRec_JIT_CACHE", "PARREC_JIT_CACHE",
    "ParRec_FLIGHT_DUMP",
};

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Config;
  bool HaveSeed = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const char *Flag = Argv[I], *Value = Argv[I + 1];
    if (!std::strcmp(Flag, "--workload"))
      Config.Workload = Value;
    else if (!std::strcmp(Flag, "--seed")) {
      Config.Seed = std::strtoull(Value, nullptr, 10);
      HaveSeed = true;
    } else if (!std::strcmp(Flag, "--seconds"))
      Config.Seconds = std::strtod(Value, nullptr);
    else if (!std::strcmp(Flag, "--trace"))
      Config.Trace = std::strcmp(Value, "0") != 0;
    else if (!std::strcmp(Flag, "--scratch"))
      Config.ScratchRoot = Value;
    else
      return usage("unknown flag");
  }
  if (Argc % 2 == 0)
    return usage("every flag takes a value");
  if (!HaveSeed || Config.ScratchRoot.empty() || !(Config.Seconds > 0.0))
    return usage("--seed, --scratch and a positive --seconds are required");
  if (!isBatchWorkload(Config.Workload) && Config.Workload != "serve_mixed")
    return usage("unknown workload");

  for (const char *Var : RefusedEnv)
    if (std::getenv(Var)) {
      std::fprintf(stderr,
                   "parbench: refusing to run with %s set: it changes what "
                   "the benchmark measures\n",
                   Var);
      return 2;
    }
  long Cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (Cpus < static_cast<long>(workloadThreads(Config.Workload))) {
    std::fprintf(stderr,
                 "parbench: %s keeps %u threads busy but this host has %ld "
                 "CPUs\n",
                 Config.Workload.c_str(), workloadThreads(Config.Workload),
                 Cpus);
    return 2;
  }

  printHostBlock(Config);
  Outcome Out = isBatchWorkload(Config.Workload) ? runBatchWorkload(Config)
                                                 : runServeWorkload(Config);
  completeMetrics(Out, Config.Trace);
  printOutcome(Config, Out);
  bool Correct = Out.InvariantsHold && Out.Failed == 0 && Out.Attempted > 0;
  return Correct ? 0 : 1;
}
