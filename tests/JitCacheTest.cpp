//===- JitCacheTest.cpp - Native JIT disk cache and fallback ----------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native JIT's caching and degradation contract: a warm disk cache
/// means zero compiler invocations, a PlanCache hit means zero JIT work
/// of any kind, a corrupt cache entry is silently recompiled, the
/// ParRec_JIT_CACHE override is honoured, and a broken host compiler
/// degrades to the bytecode VM with identical results and exactly one
/// warning line for the whole process.
///
//===----------------------------------------------------------------------===//

#include "codegen/NativeJit.h"
#include "obs/Metrics.h"
#include "runtime/CompiledRecurrence.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>

#include <unistd.h>

using namespace parrec;
using namespace parrec::runtime;
using codegen::ArgValue;

namespace {

const char *EditDistanceSource =
    "int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =\n"
    "  if i == 0 then j\n"
    "  else if j == 0 then i\n"
    "  else if s[i-1] == t[j-1] then d(i-1, j-1)\n"
    "  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1\n";

/// A fresh per-test cache directory (removed on construction so every
/// test starts cold).
std::string freshCacheDir(const char *Tag) {
  std::string Dir = "/tmp/parrec-jit-cachetest-" +
                    std::to_string(::getpid()) + "-" + Tag;
  std::filesystem::remove_all(Dir);
  return Dir;
}

CompiledRecurrence compileOrDie() {
  DiagnosticEngine Diags;
  auto Compiled = CompiledRecurrence::compile(EditDistanceSource, Diags);
  EXPECT_TRUE(Compiled.has_value()) << Diags.str();
  return std::move(*Compiled);
}

uint64_t counter(const char *Name) {
  return obs::MetricsRegistry::global().snapshot().counter(Name);
}

uint64_t distCount(const char *Name) {
  obs::MetricsSnapshot Snap = obs::MetricsRegistry::global().snapshot();
  auto It = Snap.Distributions.find(Name);
  return It == Snap.Distributions.end() ? 0 : It->second.Count;
}

/// Runs edit distance on \p Fn with the given evaluator and cache dir,
/// returning the root value (the edit distance itself).
double runOnce(const CompiledRecurrence &Fn, exec::EvalKind Evaluator,
               const std::string &CacheDir, const char *SText = "kitten",
               const char *TText = "sitting") {
  bio::Sequence S("s", SText), T("t", TText);
  std::vector<ArgValue> Args = {ArgValue::ofSeq(&S), ArgValue(),
                                ArgValue::ofSeq(&T), ArgValue()};
  gpu::Device Dev;
  DiagnosticEngine Diags;
  RunOptions Opts;
  Opts.Evaluator = Evaluator;
  Opts.JitCacheDir = CacheDir;
  auto Result = Fn.runGpu(Args, Dev, Diags, Opts);
  EXPECT_TRUE(Result.has_value()) << Diags.str();
  return Result ? Result->RootValue : -1.0;
}

/// The one compiled kernel in \p Dir.
std::filesystem::path onlyKernel(const std::string &Dir) {
  std::filesystem::path Found;
  unsigned Count = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == ".so") {
      Found = Entry.path();
      ++Count;
    }
  EXPECT_EQ(Count, 1u) << "expected one kernel in " << Dir;
  return Found;
}

} // namespace

TEST(JitCacheTest, CompilesAndMatchesVm) {
  std::string Dir = freshCacheDir("compiles");
  CompiledRecurrence Fn = compileOrDie();
  uint64_t MissesBefore = counter("jit.cache_misses");
  double Vm = runOnce(Fn, exec::EvalKind::Vm, "");
  double Jit = runOnce(Fn, exec::EvalKind::Jit, Dir);
  EXPECT_EQ(Vm, Jit);
  EXPECT_GT(counter("jit.cache_misses"), MissesBefore);
  // The cache dir now holds the kernel (.so) and its source (.c).
  bool SawSo = false;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    SawSo |= Entry.path().extension() == ".so";
  EXPECT_TRUE(SawSo) << "no compiled kernel in " << Dir;
}

TEST(JitCacheTest, DiskCacheHitAcrossEngines) {
  std::string Dir = freshCacheDir("warm");
  {
    CompiledRecurrence Cold = compileOrDie();
    runOnce(Cold, exec::EvalKind::Jit, Dir);
  }
  // A fresh CompiledRecurrence has an empty PlanCache, so planning runs
  // the jit pass again — but the disk cache must satisfy it without a
  // single compiler invocation.
  CompiledRecurrence Warm = compileOrDie();
  uint64_t HitsBefore = counter("jit.cache_hits");
  uint64_t CompilesBefore = distCount("jit.compile_ns");
  double Vm = runOnce(Warm, exec::EvalKind::Vm, "");
  double Jit = runOnce(Warm, exec::EvalKind::Jit, Dir);
  EXPECT_EQ(Vm, Jit);
  EXPECT_GT(counter("jit.cache_hits"), HitsBefore);
  EXPECT_EQ(distCount("jit.compile_ns"), CompilesBefore)
      << "a warm disk cache still invoked the host compiler";
}

TEST(JitCacheTest, PlanCacheHitSkipsCompilation) {
  std::string Dir = freshCacheDir("plancache");
  CompiledRecurrence Fn = compileOrDie();
  runOnce(Fn, exec::EvalKind::Jit, Dir);
  // Same function, same box, same options: the PlanCache hit returns
  // the plan with its kernel already attached — the jit pass (and so
  // the whole JIT machinery) must not run at all.
  uint64_t PassRunsBefore = distCount("compile.pass.jit.ns");
  uint64_t HitsBefore = counter("jit.cache_hits");
  uint64_t MissesBefore = counter("jit.cache_misses");
  runOnce(Fn, exec::EvalKind::Jit, Dir);
  EXPECT_EQ(distCount("compile.pass.jit.ns"), PassRunsBefore);
  EXPECT_EQ(counter("jit.cache_hits"), HitsBefore);
  EXPECT_EQ(counter("jit.cache_misses"), MissesBefore);
}

TEST(JitCacheTest, CorruptEntryRecompiles) {
  std::string Dir = freshCacheDir("corrupt");
  {
    CompiledRecurrence Cold = compileOrDie();
    runOnce(Cold, exec::EvalKind::Jit, Dir);
  }
  // Truncate every cached kernel: dlopen must fail, and the entry must
  // be recompiled from scratch rather than poisoning the run.
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == ".so")
      std::ofstream(Entry.path(), std::ios::trunc).put('x');
  CompiledRecurrence Fresh = compileOrDie();
  uint64_t CompilesBefore = distCount("jit.compile_ns");
  double Vm = runOnce(Fresh, exec::EvalKind::Vm, "");
  double Jit = runOnce(Fresh, exec::EvalKind::Jit, Dir);
  EXPECT_EQ(Vm, Jit);
  EXPECT_GT(distCount("jit.compile_ns"), CompilesBefore)
      << "the corrupt entry was not recompiled";
}

TEST(JitCacheTest, EnvOverrideSelectsTheCacheDir) {
  std::string Dir = freshCacheDir("env");
  ASSERT_EQ(::setenv("ParRec_JIT_CACHE", Dir.c_str(), 1), 0);
  CompiledRecurrence Fn = compileOrDie();
  // Empty RunOptions::JitCacheDir: the env var decides.
  double Vm = runOnce(Fn, exec::EvalKind::Vm, "");
  double Jit = runOnce(Fn, exec::EvalKind::Jit, "");
  ::unsetenv("ParRec_JIT_CACHE");
  EXPECT_EQ(Vm, Jit);
  bool SawSo = false;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    SawSo |= Entry.path().extension() == ".so";
  EXPECT_TRUE(SawSo) << "ParRec_JIT_CACHE was ignored";
}

TEST(JitCacheTest, BogusCompilerFallsBackToVm) {
  std::string Dir = freshCacheDir("bogus");
  ASSERT_EQ(::setenv("CC", "/nonexistent/bin/not-a-compiler", 1), 0);
  CompiledRecurrence Fn = compileOrDie();
  uint64_t FallbacksBefore = counter("jit.fallbacks");
  double Vm = runOnce(Fn, exec::EvalKind::Vm, "");
  double Jit = runOnce(Fn, exec::EvalKind::Jit, Dir);
  ::unsetenv("CC");
  EXPECT_EQ(Vm, Jit) << "the VM fallback changed the result";
  EXPECT_GT(counter("jit.fallbacks"), FallbacksBefore);
  // Exactly one warning line per process, however many plans fall back.
  EXPECT_EQ(codegen::jitWarningsEmitted(), 1u);
  std::string Dir2 = freshCacheDir("bogus2");
  ASSERT_EQ(::setenv("CC", "/nonexistent/bin/not-a-compiler", 1), 0);
  CompiledRecurrence Again = compileOrDie();
  runOnce(Again, exec::EvalKind::Jit, Dir2);
  ::unsetenv("CC");
  EXPECT_EQ(codegen::jitWarningsEmitted(), 1u);
}

TEST(JitCacheTest, ForeignEntryRecompiles) {
  // A loadable kernel that was built for another box sits at this box's
  // cache path (a key collision, or an object left by an older
  // emitter). Its baked loop bounds belong to the other box, so it must
  // be recompiled, never run.
  std::string DirA = freshCacheDir("foreign-a");
  std::string DirB = freshCacheDir("foreign-b");
  {
    CompiledRecurrence Cold = compileOrDie();
    runOnce(Cold, exec::EvalKind::Jit, DirA);
    runOnce(Cold, exec::EvalKind::Jit, DirB, "intention", "execution");
  }
  std::filesystem::path Foreign = onlyKernel(DirA);
  std::filesystem::path Target = onlyKernel(DirB);
  ASSERT_NE(Foreign.filename(), Target.filename());
  // Every rendered kernel ends by defining the hash of its own source,
  // which is what tells the load below that the object is foreign.
  std::ifstream Source(std::filesystem::path(Target).replace_extension(".c"));
  std::string Text((std::istreambuf_iterator<char>(Source)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(Text.find("const uint64_t parrec_kernel_source_hash = 0x"),
            std::string::npos);
  std::filesystem::remove(Target);
  std::filesystem::copy_file(Foreign, Target);

  CompiledRecurrence Fresh = compileOrDie();
  uint64_t CompilesBefore = distCount("jit.compile_ns");
  double Vm = runOnce(Fresh, exec::EvalKind::Vm, "", "intention", "execution");
  double Jit =
      runOnce(Fresh, exec::EvalKind::Jit, DirB, "intention", "execution");
  EXPECT_EQ(Vm, Jit);
  EXPECT_EQ(Vm, 5.0);
  EXPECT_GT(distCount("jit.compile_ns"), CompilesBefore)
      << "the foreign kernel was loaded instead of recompiled";
}
