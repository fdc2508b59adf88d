//===- Report.cpp - Shared helpers of the end-to-end benchmark -------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

using namespace perfbench;

double perfbench::median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

double perfbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

double perfbench::sum(const std::vector<double> &Values) {
  double S = 0.0;
  for (double V : Values)
    S += V;
  return S;
}

double perfbench::peakRssMiB() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak instead.
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // KiB.
  return 0.0;
}

std::string perfbench::format(const char *Fmt, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  return Buf;
}

ScratchDirs::ScratchDirs(std::filesystem::path RootDir)
    : Root(std::move(RootDir)) {
  std::filesystem::create_directories(Root);
}

ScratchDirs::~ScratchDirs() {
  std::error_code Ec;
  std::filesystem::remove_all(Root, Ec);
}

std::string ScratchDirs::fresh(const std::string &Tag) {
  std::filesystem::path Dir = Root / (Tag + "-" + std::to_string(Next++));
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
  std::filesystem::create_directories(Dir);
  return Dir.string();
}

void perfbench::printHostBlock(const RunConfig &Config) {
#ifdef NDEBUG
  const char *Asserts = "off (NDEBUG defined)";
#else
  const char *Asserts =
      "on (the top-level CMakeLists strips -DNDEBUG in every build type)";
#endif
  const char *Cc = std::getenv("CC");
  std::printf("== host ==\n");
  std::printf("nproc: %ld\n", ::sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("hardware_concurrency: %u\n",
              std::thread::hardware_concurrency());
  std::printf("compiler: %s\n", PERFBENCH_COMPILER);
  std::printf("build type: %s (flags: %s)\n", PERFBENCH_BUILD_TYPE,
              PERFBENCH_CXX_FLAGS);
  std::printf("assertions: %s\n", Asserts);
  std::printf("jit compiler: %s\n", Cc && *Cc ? Cc : "cc (default)");
  std::printf("workload: %s  seed: %llu  seconds: %g  trace: %d\n",
              Config.Workload.c_str(),
              static_cast<unsigned long long>(Config.Seed), Config.Seconds,
              Config.Trace ? 1 : 0);
}

namespace {

/// JSON number rendering with every significant digit kept.
std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

} // namespace

void perfbench::printOutcome(const RunConfig &Config, const Outcome &Out) {
  for (const std::string &Line : Out.Notes)
    std::printf("%s\n", Line.c_str());
  std::printf("== %s metrics (%s) ==\n", Config.Workload.c_str(),
              Config.Trace ? "per layer, traced run" : "end to end");
  for (const Metric &M : Out.Metrics)
    std::printf("  %-26s %16.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  double ErrorRate =
      Out.Attempted ? static_cast<double>(Out.Failed) /
                          static_cast<double>(Out.Attempted)
                    : 1.0;
  std::printf("  %-26s %16.6f %s  (%llu of %llu)\n", "error_rate", ErrorRate,
              "fraction", static_cast<unsigned long long>(Out.Failed),
              static_cast<unsigned long long>(Out.Attempted));

  bool Correct = Out.InvariantsHold && Out.Failed == 0 && Out.Attempted > 0;
  std::string Json = "{\"correct\": ";
  Json += Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Out.Attempted);
  Json += ", \"failed\": " + std::to_string(Out.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I != Out.Metrics.size(); ++I) {
    const Metric &M = Out.Metrics[I];
    if (I)
      Json += ", ";
    Json += jsonString(M.Name) + ": {\"value\": " + jsonNumber(M.Value) +
            ", \"unit\": " + jsonString(M.Unit) + "}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}
