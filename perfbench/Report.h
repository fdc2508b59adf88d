//===- Report.h - Shared helpers of the end-to-end benchmark -----*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: the run configuration,
/// the metric record a workload fills, sample statistics, wall timers,
/// private JIT cache directories, and the printers for the host block,
/// the human-readable tables and the final one-line JSON result.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Command-line configuration of one benchmark run.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  /// Length of the timed phase (the per-layer phase when tracing).
  double Seconds = 10.0;
  bool Trace = false;
  /// Directory under which each cold set-up gets its own empty JIT cache.
  std::filesystem::path ScratchRoot;
};

/// One metric as printed: name, value, unit.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// What a workload run produced. Attempted counts every output checked
/// against an oracle (and every request submitted); Failed counts wrong
/// results plus failed, refused, deadline-shed and aborted requests.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// False when an invariant other than an output check broke (for
  /// instance a modelled time that did not repeat, or the oracle
  /// self-check not catching a corrupted value).
  bool InvariantsHold = true;
  std::vector<Metric> Metrics;
  /// Lines printed before the result: inputs, sample counts, tables.
  std::vector<std::string> Notes;

  void metric(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void note(std::string Line) { Notes.push_back(std::move(Line)); }
  /// Records a broken invariant and explains it in the notes.
  void violate(const std::string &Why) {
    InvariantsHold = false;
    note("INVARIANT BROKEN: " + Why);
  }
};

/// Order statistics of a sample (copies, so callers keep their order).
double median(std::vector<double> Values);
/// Linear-interpolated quantile \p Q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> Values, double Q);
double sum(const std::vector<double> &Values);

/// Peak resident set size of this process in MiB.
double peakRssMiB();

/// printf-style formatting into a std::string.
std::string format(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Creates fresh, empty directories under one root and removes every one
/// of them (and the root's contents) when destroyed.
class ScratchDirs {
public:
  explicit ScratchDirs(std::filesystem::path Root);
  ~ScratchDirs();
  ScratchDirs(const ScratchDirs &) = delete;
  ScratchDirs &operator=(const ScratchDirs &) = delete;

  /// A new empty directory; its path as a string.
  std::string fresh(const std::string &Tag);

private:
  std::filesystem::path Root;
  unsigned Next = 0;
};

/// The host block printed with every run.
void printHostBlock(const RunConfig &Config);

/// Prints the notes, a metric table, and the final JSON line.
void printOutcome(const RunConfig &Config, const Outcome &Out);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
