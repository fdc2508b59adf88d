//===- JitCacheTest.cpp - Native JIT disk cache and fallback ----------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native JIT's caching and degradation contract: a warm disk cache
/// means zero compiler invocations, every box of a recursion and
/// schedule shares one kernel, a PlanCache hit means zero JIT work
/// of any kind, concurrent compiles of one kernel all load it, a
/// corrupt, foreign, hash-colliding or older-ABI cache entry is silently
/// recompiled, the ParRec_JIT_CACHE override is honoured, any cache path
/// works, and a broken host compiler degrades to the bytecode VM with
/// identical results and exactly one warning line for the whole
/// process. Also the shape of the forward kernel's log-space sum.
///
//===----------------------------------------------------------------------===//

#include "bio/HmmZoo.h"
#include "codegen/NativeJit.h"
#include "obs/Metrics.h"
#include "runtime/CompiledRecurrence.h"
#include "KernelText.h"
#include "TempPath.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>
#include <vector>

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
/// test starts cold), inside one that the process removes at exit.
std::string freshCacheDir(const char *Tag) {
  static const TempPath Root("jit-cachetest");
  std::string Dir = Root.str() + "/" + Tag;
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

/// Runs edit distance of \p SText and \p TText on \p Fn under \p Opts.
std::optional<exec::RunResult> run(const CompiledRecurrence &Fn,
                                   const RunOptions &Opts, const char *SText,
                                   const char *TText) {
  bio::Sequence S("s", SText), T("t", TText);
  std::vector<ArgValue> Args = {ArgValue::ofSeq(&S), ArgValue(),
                                ArgValue::ofSeq(&T), ArgValue()};
  gpu::Device Dev;
  DiagnosticEngine Diags;
  auto Result = Fn.runGpu(Args, Dev, Diags, Opts);
  EXPECT_TRUE(Result.has_value()) << Diags.str();
  return Result;
}

/// Runs edit distance on \p Fn with the given evaluator and cache dir,
/// returning the root value (the edit distance itself).
double runOnce(const CompiledRecurrence &Fn, exec::EvalKind Evaluator,
               const std::string &CacheDir, const char *SText = "kitten",
               const char *TText = "sitting") {
  RunOptions Opts;
  Opts.Evaluator = Evaluator;
  Opts.JitCacheDir = CacheDir;
  auto Result = run(Fn, Opts, SText, TText);
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
  // A loadable kernel that was built for another schedule sits at this
  // plan's cache path (a key collision, or an object left by an older
  // emitter). Its baked nest belongs to the other schedule, so it must
  // be recompiled, never run. (A kernel of another box would not do:
  // every box of a recursion and schedule shares one.)
  std::string DirA = freshCacheDir("foreign-a");
  std::string DirB = freshCacheDir("foreign-b");
  {
    CompiledRecurrence Cold = compileOrDie();
    RunOptions Forced;
    Forced.Evaluator = exec::EvalKind::Jit;
    Forced.JitCacheDir = DirA;
    Forced.ForcedSchedule = solver::Schedule{{2, 1}};
    run(Cold, Forced, "intention", "execution");
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

TEST(JitCacheTest, CollidingSourceHashRecompiles) {
  // What two kernel texts with one source hash leave in the cache: the
  // ForcedSchedule {2, 1} kernel, compiled with its hash definition
  // rewritten to this plan's hash, at this plan's cache path, with that
  // text beside it. Its ABI and hash match, but it was built from
  // another text, so it must be recompiled, never run.
  std::string DirA = freshCacheDir("colliding-a");
  std::string DirB = freshCacheDir("colliding-b");
  {
    CompiledRecurrence Cold = compileOrDie();
    RunOptions Forced;
    Forced.Evaluator = exec::EvalKind::Jit;
    Forced.JitCacheDir = DirA;
    Forced.ForcedSchedule = solver::Schedule{{2, 1}};
    run(Cold, Forced, "intention", "execution");
    runOnce(Cold, exec::EvalKind::Jit, DirB, "intention", "execution");
  }
  auto ReadText = [](const std::filesystem::path &Path) {
    std::ifstream In(Path);
    return std::string(std::istreambuf_iterator<char>(In),
                       std::istreambuf_iterator<char>());
  };
  std::filesystem::path Target = onlyKernel(DirB);
  std::filesystem::path TargetSource =
      std::filesystem::path(Target).replace_extension(".c");
  std::string Text =
      ReadText(std::filesystem::path(onlyKernel(DirA)).replace_extension(".c"));
  std::string TargetText = ReadText(TargetSource);
  const std::string HashDef = "const uint64_t parrec_kernel_source_hash = 0x";
  size_t At = Text.find(HashDef);
  size_t TargetAt = TargetText.find(HashDef);
  ASSERT_NE(At, std::string::npos);
  ASSERT_NE(TargetAt, std::string::npos);
  Text.replace(At + HashDef.size(), 16, TargetText, TargetAt + HashDef.size(),
               16);
  ASSERT_NE(Text, TargetText);
  std::ofstream(TargetSource, std::ios::trunc) << Text;
  std::filesystem::remove(Target);
  std::string Cmd = "cc -O2 -shared -fPIC -o " + Target.string() + " " +
                    TargetSource.string();
  ASSERT_EQ(std::system(Cmd.c_str()), 0) << Cmd;

  CompiledRecurrence Fresh = compileOrDie();
  uint64_t CompilesBefore = distCount("jit.compile_ns");
  uint64_t MissesBefore = counter("jit.cache_misses");
  double Vm = runOnce(Fresh, exec::EvalKind::Vm, "", "intention", "execution");
  double Jit =
      runOnce(Fresh, exec::EvalKind::Jit, DirB, "intention", "execution");
  EXPECT_EQ(Vm, Jit);
  EXPECT_EQ(Vm, 5.0);
  EXPECT_GT(distCount("jit.compile_ns"), CompilesBefore)
      << "the colliding kernel was loaded instead of recompiled";
  EXPECT_EQ(counter("jit.cache_misses"), MissesBefore + 1);
}

TEST(JitCacheTest, OneKernelServesEveryBox) {
  // The kernel holds no box, so two boxes of one recursion and schedule
  // compile once, though the first (7 x 8) drops j from its window and
  // the second (10 x 10, equal extents) drops i.
  std::string Dir = freshCacheDir("boxes");
  CompiledRecurrence Fn = compileOrDie();
  uint64_t MissesBefore = counter("jit.cache_misses");
  uint64_t FallbacksBefore = counter("jit.fallbacks");
  RunOptions Vm, Jit;
  Jit.Evaluator = exec::EvalKind::Jit;
  Jit.JitCacheDir = Dir;
  std::vector<unsigned> DropDims;
  for (auto [SText, TText] : {std::pair{"kitten", "sitting"},
                              std::pair{"intention", "execution"}}) {
    auto Want = run(Fn, Vm, SText, TText);
    auto Got = run(Fn, Jit, SText, TText);
    ASSERT_TRUE(Want && Got);
    EXPECT_EQ(Got->RootValue, Want->RootValue) << SText;
    EXPECT_EQ(Got->Cells, Want->Cells) << SText;
    EXPECT_EQ(Got->Cycles, Want->Cycles) << SText;

    bio::Sequence S("s", SText), T("t", TText);
    DiagnosticEngine Diags;
    auto Box = Fn.domainFor({ArgValue::ofSeq(&S), ArgValue(),
                             ArgValue::ofSeq(&T), ArgValue()},
                            Diags);
    ASSERT_TRUE(Box.has_value()) << Diags.str();
    auto Plan = Fn.planFor(*Box, Jit, nullptr, Diags);
    ASSERT_NE(Plan, nullptr) << Diags.str();
    ASSERT_TRUE(Plan->UseWindow);
    DropDims.push_back(Plan->WindowDropDim);
  }
  EXPECT_EQ(DropDims, (std::vector<unsigned>{1, 0}));
  EXPECT_EQ(counter("jit.cache_misses"), MissesBefore + 1);
  EXPECT_EQ(counter("jit.fallbacks"), FallbacksBefore);
  // One scan per droppable dimension, each with both strides baked, so
  // no address multiplies a stride read at run time.
  std::ifstream Source(onlyKernel(Dir).replace_extension(".c"));
  std::string Text((std::istreambuf_iterator<char>(Source)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(Text.find("if (st0 == 0) {"), std::string::npos);
  EXPECT_EQ(Text.find("st0 * "), std::string::npos);
  EXPECT_EQ(Text.find("st1 * "), std::string::npos);
}

TEST(JitCacheTest, CacheDirWithSpaceAndQuoteCompiles) {
  // The compiler is started without a shell, so no character of the
  // cache path is special.
  std::string Dir = freshCacheDir("q dir/it's");
  CompiledRecurrence Fn = compileOrDie();
  uint64_t FallbacksBefore = counter("jit.fallbacks");
  uint64_t MissesBefore = counter("jit.cache_misses");
  double Vm = runOnce(Fn, exec::EvalKind::Vm, "");
  double Jit = runOnce(Fn, exec::EvalKind::Jit, Dir);
  EXPECT_EQ(Vm, Jit);
  EXPECT_EQ(counter("jit.fallbacks"), FallbacksBefore);
  EXPECT_EQ(counter("jit.cache_misses"), MissesBefore + 1);
  EXPECT_TRUE(std::filesystem::exists(onlyKernel(Dir)));
}

TEST(JitCacheTest, ConcurrentCompilesOfOneKernelAllLoadIt) {
  // Four threads plan one new box into a cold cache, a few milliseconds
  // apart, so their compiles of the one kernel overlap (router shards
  // planning one shape do the same). No compile may read a source that
  // another is rewriting: every plan gets a kernel, nothing falls back,
  // and only the published object and its source remain.
  std::string Dir = freshCacheDir("concurrent");
  CompiledRecurrence Fn = compileOrDie();
  bio::Sequence S("s", std::string(40, 'a')), T("t", std::string(50, 'b'));
  DiagnosticEngine BoxDiags;
  auto Box = Fn.domainFor({ArgValue::ofSeq(&S), ArgValue(),
                           ArgValue::ofSeq(&T), ArgValue()},
                          BoxDiags);
  ASSERT_TRUE(Box.has_value()) << BoxDiags.str();
  RunOptions Jit;
  Jit.Evaluator = exec::EvalKind::Jit;
  Jit.JitCacheDir = Dir;
  uint64_t FallbacksBefore = counter("jit.fallbacks");
  uint64_t MissesBefore = counter("jit.cache_misses");

  constexpr unsigned Planners = 4;
  std::vector<std::shared_ptr<const exec::ExecutablePlan>> Plans(Planners);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != Planners; ++I)
    Threads.emplace_back([&, I] {
      std::this_thread::sleep_for(std::chrono::milliseconds(4 * I));
      DiagnosticEngine Diags;
      Plans[I] = Fn.planFor(*Box, Jit, nullptr, Diags);
    });
  for (std::thread &Th : Threads)
    Th.join();

  for (unsigned I = 0; I != Planners; ++I) {
    ASSERT_NE(Plans[I], nullptr) << "planner " << I;
    EXPECT_NE(Plans[I]->Kernel, nullptr) << "planner " << I << " fell back";
  }
  EXPECT_EQ(counter("jit.fallbacks"), FallbacksBefore);
  unsigned Objects = 0, Sources = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    Objects += Entry.path().extension() == ".so";
    Sources += Entry.path().extension() == ".c";
  }
  EXPECT_EQ(Objects, 1u);
  EXPECT_EQ(Sources, 1u);
  // One process compiles the kernel once: the later planners wait for
  // the first compile and load its result.
  EXPECT_EQ(counter("jit.cache_misses"), MissesBefore + 1);
}

TEST(JitCacheTest, OlderAbiEntryRecompiles) {
  // A kernel built from this very source but exporting the previous
  // calling-convention version, as an older ParRec would have left it.
  std::string Dir = freshCacheDir("abi");
  {
    CompiledRecurrence Cold = compileOrDie();
    runOnce(Cold, exec::EvalKind::Jit, Dir);
  }
  std::filesystem::path Kernel = onlyKernel(Dir);
  std::filesystem::path Source =
      std::filesystem::path(Kernel).replace_extension(".c");
  std::string Text;
  {
    std::ifstream In(Source);
    Text.assign(std::istreambuf_iterator<char>(In),
                std::istreambuf_iterator<char>());
  }
  std::string Current = "parrec_kernel_abi = " +
                        std::to_string(codegen::JitKernelAbi) + "ULL;";
  size_t At = Text.find(Current);
  ASSERT_NE(At, std::string::npos);
  Text.replace(At, Current.size(),
               "parrec_kernel_abi = " +
                   std::to_string(codegen::JitKernelAbi - 1) + "ULL;");
  std::filesystem::path Old = Dir + "/older-abi.c";
  std::ofstream(Old) << Text;
  std::filesystem::remove(Kernel);
  std::string Cmd = "cc -O2 -shared -fPIC -o " + Kernel.string() + " " +
                    Old.string();
  ASSERT_EQ(std::system(Cmd.c_str()), 0) << Cmd;

  CompiledRecurrence Fresh = compileOrDie();
  uint64_t CompilesBefore = distCount("jit.compile_ns");
  uint64_t HitsBefore = counter("jit.cache_hits");
  double Vm = runOnce(Fresh, exec::EvalKind::Vm, "");
  double Jit = runOnce(Fresh, exec::EvalKind::Jit, Dir);
  EXPECT_EQ(Vm, Jit);
  EXPECT_EQ(counter("jit.cache_hits"), HitsBefore);
  EXPECT_GT(distCount("jit.compile_ns"), CompilesBefore)
      << "the older-ABI kernel was loaded instead of recompiled";
}

TEST(JitCacheTest, ForwardKernelSumCallsNoLibm) {
  // The forward plan's kernel: its online sum calls the emitted
  // pr_lse_exp, which calls nothing, and the kernel exports ABI 4.
  DiagnosticEngine Diags;
  auto Fn = CompiledRecurrence::compile(
      "prob forward(hmm h, state[h] s, seq[dna] x, index[x] i) =\n"
      "  if i == 0 then\n"
      "    if s.isstart then 1.0 else 0.0\n"
      "  else\n"
      "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
      "    sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))\n",
      Diags);
  ASSERT_TRUE(Fn.has_value()) << Diags.str();
  auto Profile = bio::eliminateSilentStates(
      bio::makeProfileHmm(/*MatchPositions=*/5, bio::Alphabet::dna(),
                          /*Seed=*/11),
      Diags);
  ASSERT_TRUE(Profile.has_value()) << Diags.str();
  bio::Sequence X("x", "acgtacgt");
  std::vector<ArgValue> Args = {ArgValue::ofHmm(&*Profile), ArgValue(),
                                ArgValue::ofSeq(&X), ArgValue()};
  auto Box = Fn->domainFor(Args, Diags);
  ASSERT_TRUE(Box.has_value()) << Diags.str();
  auto Plan = Fn->planFor(*Box, RunOptions(), nullptr, Diags);
  ASSERT_NE(Plan, nullptr) << Diags.str();
  std::string Kernel = codegen::renderKernelSource(*Plan);
  ASSERT_FALSE(Kernel.empty());

  EXPECT_EQ(codegen::JitKernelAbi, 4u);
  EXPECT_NE(Kernel.find("const uint64_t parrec_kernel_abi = 4ULL;\n"),
            std::string::npos);
  // From the steps pr_lse_exp shares with its lane form, which precede
  // its definition, through pr_lse_log to the end of pr_lse_result.
  size_t Begin = Kernel.find("#define PR_LSE_EXP_REDUCE");
  size_t Add = Kernel.find("static inline void pr_lse_add(");
  size_t Result = Kernel.find("static inline double pr_lse_result(");
  ASSERT_NE(Begin, std::string::npos);
  ASSERT_NE(Add, std::string::npos);
  ASSERT_NE(Result, std::string::npos);
  size_t AddEnd = Kernel.find("\n}\n", Add);
  size_t End = Kernel.find("\n}\n", Result);
  ASSERT_NE(End, std::string::npos);
  std::string Sum = Kernel.substr(Begin, End - Begin);
  EXPECT_NE(Sum.find("double l = pr_lse_log(s);"), std::string::npos) << Sum;
  EXPECT_EQ(libmCalls(Sum), std::vector<std::string>()) << Sum;
  // The check finds the libm calls of binary '+', which keeps them.
  size_t AddExp = Kernel.find("static inline double pr_logaddexp(");
  ASSERT_NE(AddExp, std::string::npos);
  EXPECT_EQ(libmCalls(Kernel.substr(
                AddExp, Kernel.find("\n}\n", AddExp) - AddExp)),
            (std::vector<std::string>{"log1p", "exp"}));
  // The scan takes the sum's result from part 3, which defines it as
  // pr_lse_result.
  EXPECT_NE(Kernel.find("= pr_lse_result_out(lm, ls);"), std::string::npos);
  EXPECT_NE(Kernel.find("  return pr_lse_result(m, s);"), std::string::npos);
  std::string AddBody = Kernel.substr(Add, AddEnd - Add);
  EXPECT_NE(AddBody.find("double e = pr_lse_exp(x - *m);"),
            std::string::npos)
      << AddBody;
  EXPECT_NE(AddBody.find("double e = pr_lse_exp(*m - x);"),
            std::string::npos)
      << AddBody;
  // The sum's body reads its own transition from the packed entry.
  EXPECT_NE(Kernel.find("= rt->log_prob;"), std::string::npos);
  EXPECT_NE(Kernel.find("= (int64_t)rt->from;"), std::string::npos);
}

TEST(JitCacheTest, SmithWatermanKernelReadsIntsWithoutLibm) {
  // An int-bodied recursion stores only double(int64) values, so its
  // kernel reads them back with a plain conversion: no llround, and the
  // only libm declarations left are those of the log-space helpers.
  DiagnosticEngine Diags;
  auto Fn = CompiledRecurrence::compile(
      "int sw(matrix[dna] m, seq[dna] a, index[a] i, seq[dna] b, "
      "index[b] j) =\n"
      "  if i == 0 then 0\n"
      "  else if j == 0 then 0\n"
      "  else 0 max (sw(i-1, j-1) + m[a[i-1], b[j-1]])\n"
      "       max (sw(i-1, j) - 2) max (sw(i, j-1) - 2)\n",
      Diags);
  ASSERT_TRUE(Fn.has_value()) << Diags.str();
  bio::SubstitutionMatrix M =
      bio::SubstitutionMatrix::matchMismatch(bio::Alphabet::dna(), 2, 1);
  bio::Sequence A("a", "acgtacgtac"), B("b", "gtacgtacgtacg");
  std::vector<ArgValue> Args = {ArgValue::ofMatrix(&M), ArgValue::ofSeq(&A),
                                ArgValue(), ArgValue::ofSeq(&B),
                                ArgValue()};
  auto Box = Fn->domainFor(Args, Diags);
  ASSERT_TRUE(Box.has_value()) << Diags.str();
  auto Plan = Fn->planFor(*Box, RunOptions(), nullptr, Diags);
  ASSERT_NE(Plan, nullptr) << Diags.str();
  std::string Kernel = codegen::renderKernelSource(*Plan);
  ASSERT_FALSE(Kernel.empty());

  EXPECT_EQ(Kernel.find("llround"), std::string::npos);
  EXPECT_NE(Kernel.find(" = (int64_t)tv;"), std::string::npos);
  EXPECT_EQ(Kernel.find("pr_round_i64(tv)"), std::string::npos);
  // Declarations without a body: "<type> <name>(<params>);" at the start
  // of a line.
  std::vector<std::string> Declared;
  std::istringstream Lines(Kernel);
  for (std::string Line; std::getline(Lines, Line);) {
    if (Line.empty() || Line[0] == ' ' || Line.back() != ';' ||
        Line.find('(') == std::string::npos ||
        Line.find('=') != std::string::npos ||
        Line.rfind("typedef", 0) == 0 || Line.rfind("static", 0) == 0)
      continue;
    size_t Open = Line.find('(');
    size_t Start = Line.rfind(' ', Open);
    Declared.push_back(Line.substr(Start + 1, Open - Start - 1));
  }
  EXPECT_EQ(Declared, (std::vector<std::string>{"exp", "log", "log1p"}))
      << Kernel.substr(0, 2000);
  // And the scan calls neither them nor a helper that does.
  size_t Scan = Kernel.find("void parrec_scan(");
  ASSERT_NE(Scan, std::string::npos);
  std::string Body = Kernel.substr(Scan);
  for (const char *Call : {"exp(", "log(", "log1p(", "pr_tolog(",
                           "pr_logaddexp(", "pr_lse_result("})
    EXPECT_EQ(Body.find(Call), std::string::npos) << Call << " in\n" << Body;
}
