//===- ObsTest.cpp - Tests for the observability layer ------------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the tracing facility (span nesting/ordering, Chrome trace-event
/// JSON well-formedness), the metrics registry (snapshot determinism,
/// plan-cache registration), and the simulator profiling depth: the
/// per-partition timeline must sum exactly to the run's modelled cycle
/// and cell totals, and tracing must never change results. Also checks
/// that the serving engine's serve.* counters, distributions and spans
/// land in the global registry and trace.
///
//===----------------------------------------------------------------------===//

#include "bio/Fasta.h"
#include "bio/HmmZoo.h"
#include "codegen/NativeJit.h"
#include "compiler/Pipeline.h"
#include "exec/PlanCache.h"
#include "gpu/Device.h"
#include "obs/Export.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "runtime/CompiledRecurrence.h"
#include "runtime/Interpreter.h"
#include "serve/Engine.h"
#include "TempPath.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace parrec;
using namespace parrec::obs;
using codegen::ArgValue;
using runtime::CompiledRecurrence;

namespace {

/// RAII guard: resets the global tracer and restores the disabled state,
/// so tests cannot leak trace state into each other.
struct TracerSandbox {
  TracerSandbox() {
    Tracer::instance().disable();
    Tracer::instance().reset();
  }
  ~TracerSandbox() {
    Tracer::instance().disable();
    Tracer::instance().reset();
  }
};

//===----------------------------------------------------------------------===//
// A minimal JSON parser, used to check the exported trace parses back.
//===----------------------------------------------------------------------===//

class JsonValidator {
public:
  explicit JsonValidator(const std::string &Text) : Text(Text) {}

  /// True iff the whole text is exactly one valid JSON value.
  bool valid() {
    Pos = 0;
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == Text.size();
  }

private:
  const std::string &Text;
  size_t Pos = 0;

  bool eof() const { return Pos >= Text.size(); }
  char peek() const { return Text[Pos]; }

  void skipWs() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r'))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }

  bool string() {
    if (eof() || peek() != '"')
      return false;
    ++Pos;
    while (!eof() && peek() != '"') {
      if (peek() == '\\') {
        ++Pos;
        if (eof())
          return false;
        char Escape = peek();
        if (Escape == 'u') {
          for (int I = 0; I < 4; ++I) {
            ++Pos;
            if (eof() || !std::isxdigit(static_cast<unsigned char>(peek())))
              return false;
          }
        } else if (!std::strchr("\"\\/bfnrt", Escape)) {
          return false;
        }
      } else if (static_cast<unsigned char>(peek()) < 0x20) {
        return false; // Control characters must be escaped.
      }
      ++Pos;
    }
    if (eof())
      return false;
    ++Pos; // Closing quote.
    return true;
  }

  bool number() {
    size_t Start = Pos;
    if (!eof() && peek() == '-')
      ++Pos;
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
      ++Pos;
    if (Pos == Start || (Text[Start] == '-' && Pos == Start + 1))
      return false;
    if (!eof() && peek() == '.') {
      ++Pos;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        return false;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++Pos;
      if (!eof() && (peek() == '+' || peek() == '-'))
        ++Pos;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        return false;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    }
    return true;
  }

  bool object() {
    ++Pos; // '{'
    skipWs();
    if (!eof() && peek() == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (eof() || peek() != ':')
        return false;
      ++Pos;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (eof())
        return false;
      if (peek() == '}') {
        ++Pos;
        return true;
      }
      if (peek() != ',')
        return false;
      ++Pos;
    }
  }

  bool array() {
    ++Pos; // '['
    skipWs();
    if (!eof() && peek() == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (eof())
        return false;
      if (peek() == ']') {
        ++Pos;
        return true;
      }
      if (peek() != ',')
        return false;
      ++Pos;
    }
  }

  bool value() {
    if (eof())
      return false;
    switch (peek()) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }
};

const char *EditDistanceSource =
    "int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =\n"
    "  if i == 0 then j\n"
    "  else if j == 0 then i\n"
    "  else if s[i-1] == t[j-1] then d(i-1, j-1)\n"
    "  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1\n";

CompiledRecurrence compileOrDie(const char *Source) {
  DiagnosticEngine Diags;
  auto Compiled = CompiledRecurrence::compile(Source, Diags);
  EXPECT_TRUE(Compiled.has_value()) << Diags.str();
  return std::move(*Compiled);
}

std::vector<ArgValue> editDistanceArgs(const bio::Sequence &S,
                                       const bio::Sequence &T) {
  return {ArgValue::ofSeq(&S), ArgValue(), ArgValue::ofSeq(&T), ArgValue()};
}

} // namespace

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

TEST(TraceTest, DisabledSpansRecordNothing) {
  TracerSandbox Sandbox;
  {
    Span S("should.not.appear");
    S.arg("key", int64_t(1));
    EXPECT_FALSE(S.active());
  }
  EXPECT_TRUE(Tracer::instance().hostEvents().empty());
}

TEST(TraceTest, SpanNestingAndOrdering) {
  TracerSandbox Sandbox;
  Tracer::instance().enable();
  {
    Span Outer("outer");
    Outer.arg("phase", "test");
    {
      Span First("inner.first");
      (void)First;
    }
    {
      Span Second("inner.second");
      Second.arg("n", int64_t(42));
    }
  }
  Tracer::instance().disable();

  std::vector<TraceEvent> Events = Tracer::instance().hostEvents();
  ASSERT_EQ(Events.size(), 3u);
  // Sorted for display: the enclosing span precedes its children even
  // though it was recorded last (it closes last).
  EXPECT_EQ(Events[0].Name, "outer");
  EXPECT_EQ(Events[1].Name, "inner.first");
  EXPECT_EQ(Events[2].Name, "inner.second");
  // Children nest inside the parent's interval, in start order.
  EXPECT_GE(Events[1].StartNs, Events[0].StartNs);
  EXPECT_LE(Events[1].endNs(), Events[0].endNs());
  EXPECT_GE(Events[2].StartNs, Events[1].endNs());
  EXPECT_LE(Events[2].endNs(), Events[0].endNs());
  ASSERT_EQ(Events[0].Args.size(), 1u);
  EXPECT_EQ(Events[0].Args[0].Key, "phase");
  EXPECT_EQ(Events[0].Args[0].Json, "\"test\"");

  std::string Tree = Tracer::instance().spanTree();
  EXPECT_NE(Tree.find("outer"), std::string::npos);
  EXPECT_NE(Tree.find("    inner.first"), std::string::npos)
      << "children must be indented under the parent:\n"
      << Tree;
}

TEST(TraceTest, ChromeTraceJsonParsesBack) {
  TracerSandbox Sandbox;
  Tracer::instance().enable();
  {
    Span S("phase with \"quotes\" and \\ backslash");
    S.arg("text", "line\nbreak");
    S.arg("count", uint64_t(7));
    S.arg("ratio", 0.25);
    S.arg("flag", true);
  }
  Tracer::instance().recordDevice(
      {/*Block=*/0, "partition 0", /*StartCycles=*/0, /*DurCycles=*/10,
       {{"cells", "5"}}});
  Tracer::instance().recordDevice(
      {/*Block=*/1, "partition 0", /*StartCycles=*/0, /*DurCycles=*/4, {}});
  Tracer::instance().disable();

  std::string Json = Tracer::instance().chromeTraceJson();
  EXPECT_TRUE(JsonValidator(Json).valid()) << Json;
  // The two clock domains are present as separate processes.
  EXPECT_NE(Json.find("\"parrec host (wall clock)\""), std::string::npos);
  EXPECT_NE(Json.find("\"simulated device (ts = modelled cycles)\""),
            std::string::npos);
  // One lane per simulated block.
  EXPECT_NE(Json.find("\"block 0\""), std::string::npos);
  EXPECT_NE(Json.find("\"block 1\""), std::string::npos);
}

TEST(TraceTest, JsonWriterEscapesControlCharacters) {
  EXPECT_EQ(jsonEscape("a\"b\\c\nd\te\x01"
                       "f"),
            "a\\\"b\\\\c\\nd\\te\\u0001f");
  JsonWriter W;
  W.beginObject().key("k\n").value("v\x02").endObject();
  EXPECT_TRUE(JsonValidator(W.str()).valid()) << W.str();
}

//===----------------------------------------------------------------------===//
// Metrics registry
//===----------------------------------------------------------------------===//

TEST(MetricsTest, SnapshotIsDeterministicAndSorted) {
  MetricsRegistry Registry;
  Registry.add("zeta", 3);
  Registry.add("alpha");
  Registry.add("alpha");
  Registry.record("latency", 2.0);
  Registry.record("latency", 4.0);
  Registry.record("latency", 6.0);

  MetricsSnapshot A = Registry.snapshot();
  MetricsSnapshot B = Registry.snapshot();
  EXPECT_EQ(A.json(), B.json());
  EXPECT_EQ(A.str(), B.str());
  EXPECT_TRUE(JsonValidator(A.json()).valid()) << A.json();

  EXPECT_EQ(A.counter("alpha"), 2u);
  EXPECT_EQ(A.counter("zeta"), 3u);
  EXPECT_EQ(A.counter("missing"), 0u);
  ASSERT_EQ(A.Distributions.count("latency"), 1u);
  const Distribution &D = A.Distributions.at("latency");
  EXPECT_EQ(D.Count, 3u);
  EXPECT_DOUBLE_EQ(D.Sum, 12.0);
  EXPECT_DOUBLE_EQ(D.Min, 2.0);
  EXPECT_DOUBLE_EQ(D.Max, 6.0);
  EXPECT_DOUBLE_EQ(D.mean(), 4.0);

  // Sorted by name in both renderings.
  std::string Json = A.json();
  EXPECT_LT(Json.find("\"alpha\""), Json.find("\"zeta\""));

  Registry.reset();
  EXPECT_TRUE(Registry.snapshot().Counters.empty());
}

TEST(MetricsTest, PlanCacheFeedsGlobalRegistry) {
  MetricsSnapshot Before = MetricsRegistry::global().snapshot();

  exec::PlanCache Cache(/*Capacity=*/1);
  exec::PlanKey KeyA, KeyB;
  KeyA.Upper = {4, 4};
  KeyB.Upper = {8, 8};
  auto Plan = std::make_shared<const exec::ExecutablePlan>();
  EXPECT_EQ(Cache.lookup(KeyA), nullptr); // Miss.
  Cache.insert(KeyA, Plan);
  EXPECT_NE(Cache.lookup(KeyA), nullptr); // Hit.
  Cache.insert(KeyB, Plan);               // Evicts KeyA.

  MetricsSnapshot After = MetricsRegistry::global().snapshot();
  EXPECT_EQ(After.counter("plan_cache.misses"),
            Before.counter("plan_cache.misses") + 1);
  EXPECT_EQ(After.counter("plan_cache.hits"),
            Before.counter("plan_cache.hits") + 1);
  EXPECT_EQ(After.counter("plan_cache.evictions"),
            Before.counter("plan_cache.evictions") + 1);
}

//===----------------------------------------------------------------------===//
// Simulator profiling depth
//===----------------------------------------------------------------------===//

TEST(ProfilingTest, TimelineSumsToRunTotals) {
  TracerSandbox Sandbox;
  CompiledRecurrence Fn = compileOrDie(EditDistanceSource);
  bio::Sequence S("s", "kitten"), T("t", "sitting");
  gpu::Device Dev;
  DiagnosticEngine Diags;
  exec::RunOptions Options;
  Options.Trace = true;
  auto Result = Fn.runGpu(editDistanceArgs(S, T), Dev, Diags, Options);
  ASSERT_TRUE(Result.has_value()) << Diags.str();
  ASSERT_NE(Result->Timeline, nullptr);
  ASSERT_FALSE(Result->Timeline->empty());

  uint64_t Cycles = 0, Cells = 0, ThreadCycles = 0;
  for (const gpu::PartitionSample &Sample : *Result->Timeline) {
    // The lockstep model: each partition contributes its slowest
    // thread plus the closing barrier.
    Cycles += Sample.MaxThreadCycles + Sample.BarrierCycles;
    Cells += Sample.Cells;
    ThreadCycles += Sample.SumThreadCycles;
    EXPECT_LE(Sample.SumThreadCycles,
              uint64_t(Sample.Threads) * Sample.MaxThreadCycles);
    double Occupancy = Sample.occupancy();
    EXPECT_GE(Occupancy, 0.0);
    EXPECT_LE(Occupancy, 1.0);
  }
  EXPECT_EQ(Cycles, Result->Metrics.Cycles);
  EXPECT_EQ(Cells, Result->Cells);
  EXPECT_EQ(ThreadCycles, Result->Metrics.ThreadCycles);
  EXPECT_GT(Result->Metrics.occupancy(), 0.0);
  EXPECT_LE(Result->Metrics.occupancy(), 1.0);
}

TEST(ProfilingTest, TracingDoesNotChangeResults) {
  TracerSandbox Sandbox;
  CompiledRecurrence Fn = compileOrDie(EditDistanceSource);
  bio::Sequence S("s", "kitten"), T("t", "sitting");
  gpu::Device Dev;
  DiagnosticEngine Diags;

  exec::RunOptions Plain;
  auto Baseline = Fn.runGpu(editDistanceArgs(S, T), Dev, Diags, Plain);
  ASSERT_TRUE(Baseline.has_value()) << Diags.str();
  EXPECT_EQ(Baseline->Timeline, nullptr);

  Tracer::instance().enable();
  auto Traced = Fn.runGpu(editDistanceArgs(S, T), Dev, Diags, Plain);
  Tracer::instance().disable();
  ASSERT_TRUE(Traced.has_value()) << Diags.str();

  EXPECT_EQ(Baseline->RootValue, Traced->RootValue);
  EXPECT_EQ(Baseline->Cells, Traced->Cells);
  EXPECT_EQ(Baseline->Metrics.Cycles, Traced->Metrics.Cycles);
  EXPECT_EQ(Baseline->Metrics.SharedAccesses,
            Traced->Metrics.SharedAccesses);
  EXPECT_EQ(Baseline->Metrics.GlobalAccesses,
            Traced->Metrics.GlobalAccesses);

  // The traced run collected both host spans and device slices, and the
  // whole trace exports as valid JSON.
  EXPECT_FALSE(Tracer::instance().hostEvents().empty());
  EXPECT_FALSE(Tracer::instance().deviceSlices().empty());
  std::string Json = Tracer::instance().chromeTraceJson();
  EXPECT_TRUE(JsonValidator(Json).valid());
  EXPECT_NE(Json.find("\"exec.scan\""), std::string::npos);
}

TEST(MetricsTest, ParallelScanFeedsGlobalRegistry) {
  TracerSandbox Sandbox;
  CompiledRecurrence Fn = compileOrDie(EditDistanceSource);
  bio::Sequence S("s", "observability"), T("t", "obstreperously");
  gpu::Device Dev;
  DiagnosticEngine Diags;

  // A forked run: every worker count is recorded as a distribution
  // sample, and the fork-join / serial-fallback counters advance (the
  // first partition of a scan is always serial).
  MetricsSnapshot Before = MetricsRegistry::global().snapshot();
  exec::RunOptions Forked;
  Forked.ScanWorkers = 3;
  Forked.ScanGrainCells = 1;
  auto Result = Fn.runGpu(editDistanceArgs(S, T), Dev, Diags, Forked);
  ASSERT_TRUE(Result.has_value()) << Diags.str();
  MetricsSnapshot After = MetricsRegistry::global().snapshot();

  auto It = After.Distributions.find("exec.scan_workers");
  ASSERT_NE(It, After.Distributions.end());
  EXPECT_GE(It->second.Max, 3.0);
  uint64_t SamplesBefore = 0;
  if (auto B = Before.Distributions.find("exec.scan_workers");
      B != Before.Distributions.end())
    SamplesBefore = B->second.Count;
  EXPECT_EQ(It->second.Count, SamplesBefore + 1);
  EXPECT_GT(After.counter("exec.scan_fork_joins"),
            Before.counter("exec.scan_fork_joins"));
  EXPECT_GT(After.counter("exec.scan_serial_partitions"),
            Before.counter("exec.scan_serial_partitions"));

  // A serial run must leave the fork-join counter untouched.
  MetricsSnapshot SerialBefore = MetricsRegistry::global().snapshot();
  exec::RunOptions Serial;
  Serial.ScanWorkers = 1;
  ASSERT_TRUE(
      Fn.runGpu(editDistanceArgs(S, T), Dev, Diags, Serial).has_value())
      << Diags.str();
  MetricsSnapshot SerialAfter = MetricsRegistry::global().snapshot();
  EXPECT_EQ(SerialAfter.counter("exec.scan_fork_joins"),
            SerialBefore.counter("exec.scan_fork_joins"));

  // The traced parallel run exported its fork span.
  Tracer::instance().enable();
  ASSERT_TRUE(
      Fn.runGpu(editDistanceArgs(S, T), Dev, Diags, Forked).has_value())
      << Diags.str();
  Tracer::instance().disable();
  std::string Json = Tracer::instance().chromeTraceJson();
  EXPECT_TRUE(JsonValidator(Json).valid());
  EXPECT_NE(Json.find("\"exec.scan_fork\""), std::string::npos);
}

TEST(MetricsTest, ServingEngineFeedsGlobalRegistry) {
  TracerSandbox Sandbox;
  CompiledRecurrence Fn = compileOrDie(EditDistanceSource);
  bio::Sequence S("s", "metric"), T("t", "metrics");
  auto request = [&] {
    serve::Request Req;
    Req.Fn = &Fn;
    Req.Args = editDistanceArgs(S, T);
    return Req;
  };

  MetricsSnapshot Before = MetricsRegistry::global().snapshot();
  Tracer::instance().enable();
  {
    serve::Engine::Options Opts;
    Opts.QueueCapacity = 2;
    Opts.StartPaused = true;
    serve::Engine Engine(Opts);
    // Two admitted, the third rejected, one of the admitted expired.
    serve::Future A = Engine.submit(request());
    serve::Request Expiring = request();
    Expiring.DeadlineTick = 1;
    serve::Future B = Engine.submit(std::move(Expiring));
    serve::Future C = Engine.submit(request());
    Engine.advanceTo(5);
    Engine.shutdown(serve::Engine::ShutdownMode::Drain);
    EXPECT_EQ(A.wait().St, serve::Status::Ok);
    EXPECT_EQ(B.wait().St, serve::Status::Deadline);
    EXPECT_EQ(C.wait().St, serve::Status::QueueFull);
  }
  Tracer::instance().disable();
  MetricsSnapshot After = MetricsRegistry::global().snapshot();

  EXPECT_EQ(After.counter("serve.requests"),
            Before.counter("serve.requests") + 2);
  EXPECT_GT(After.counter("serve.batches"),
            Before.counter("serve.batches"));

  // Queue depth, batch occupancy and the latency split all record as
  // log-bucketed histogram families, so percentiles read directly off
  // the registry.
  for (const char *Name :
       {"serve.queue_depth", "serve.coalesced_per_batch",
        "serve.latency.queue_wait_seconds",
        "serve.latency.execute_seconds",
        "serve.latency.total_seconds"}) {
    Histogram Total = After.histogramTotal(Name);
    EXPECT_GT(Total.Count, Before.histogramTotal(Name).Count) << Name;
  }
  // The per-tenant and per-status labelled counters saw the same
  // traffic: two admissions, one ok / one deadline / one queue_full.
  EXPECT_EQ(After.labelledTotal("serve.requests_by_tenant"),
            Before.labelledTotal("serve.requests_by_tenant") + 2);
  EXPECT_EQ(After.labelled("serve.responses",
                           "{status=\"ok\",tenant=\"none\"}"),
            Before.labelled("serve.responses",
                            "{status=\"ok\",tenant=\"none\"}") +
                1);
  EXPECT_EQ(After.labelled("serve.responses",
                           "{status=\"deadline\",tenant=\"none\"}"),
            Before.labelled("serve.responses",
                            "{status=\"deadline\",tenant=\"none\"}") +
                1);
  EXPECT_EQ(After.labelled("serve.responses",
                           "{status=\"queue_full\",tenant=\"none\"}"),
            Before.labelled("serve.responses",
                            "{status=\"queue_full\",tenant=\"none\"}") +
                1);

  // The snapshot JSON (what `parrec serve --stats-out` writes) carries
  // the serve section and parses back.
  std::string Json = After.json();
  EXPECT_TRUE(JsonValidator(Json).valid());
  EXPECT_NE(Json.find("serve.queue_depth"), std::string::npos);

  // The engine's pipeline spans made it into the trace.
  std::string Trace = Tracer::instance().chromeTraceJson();
  EXPECT_TRUE(JsonValidator(Trace).valid());
  EXPECT_NE(Trace.find("\"serve.enqueue\""), std::string::npos);
  EXPECT_NE(Trace.find("\"serve.coalesce\""), std::string::npos);
  EXPECT_NE(Trace.find("\"serve.dispatch\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The pass pipeline's unified naming: span == pass == metric
//===----------------------------------------------------------------------===//

/// One name per pass, everywhere: the helper that runs each pass emits
/// span "compile.<pass>" and duration distribution
/// "compile.pass.<pass>.ns", both derived from the pass's name in
/// compiler::PassNames. Every compile.* span in a traced compile+run must
/// map back to a listed pass (or one of the two non-pass wrappers), and
/// every pass that ran must have recorded a duration sample. In a traced
/// script run, each pass's span count equals its sample count.
TEST(MetricsTest, PassSpanAndMetricNamesMatchRegisteredPasses) {
  TracerSandbox Sandbox;
  MetricsSnapshot Before = MetricsRegistry::global().snapshot();
  Tracer::instance().enable();
  CompiledRecurrence Fn = compileOrDie(EditDistanceSource);
  bio::Sequence S("s", "kitten"), T("t", "sitting");
  gpu::Device Dev;
  DiagnosticEngine Diags;
  ASSERT_TRUE(Fn.runGpu(editDistanceArgs(S, T), Dev, Diags).has_value())
      << Diags.str();
  Tracer::instance().disable();
  MetricsSnapshot After = MetricsRegistry::global().snapshot();

  // Collect the compile.* spans. Anything under that prefix is either a
  // registered pass or one of the two deliberate non-pass wrappers (the
  // whole-function frontend span and the cached conditional-schedule
  // derivation).
  auto listed = [](const std::string &Name) {
    return std::find(compiler::PassNames.begin(), compiler::PassNames.end(),
                     Name) != compiler::PassNames.end();
  };
  std::vector<std::string> SpanPasses;
  for (const TraceEvent &E : Tracer::instance().hostEvents()) {
    if (E.Name.rfind("compile.", 0) != 0)
      continue;
    std::string Suffix = E.Name.substr(std::strlen("compile."));
    if (Suffix == "function" || Suffix == "conditional_schedules")
      continue;
    EXPECT_TRUE(listed(Suffix))
        << "span '" << E.Name << "' does not match any registered pass";
    SpanPasses.push_back(Suffix);
  }

  // The full frontend and planning pipelines ran under the tracer. This
  // is a VM run, so the planning pipeline's jit pass was skipped: it
  // must leave no span...
  EXPECT_EQ(std::find(SpanPasses.begin(), SpanPasses.end(), "jit"),
            SpanPasses.end())
      << "a VM run recorded a compile.jit span";
  // ...while every other pass produced its span...
  std::vector<std::string> Expected;
  for (std::string_view Name : compiler::PassNames)
    if (Name != "jit")
      Expected.emplace_back(Name);
  for (const std::string &Name : Expected) {
    EXPECT_NE(std::find(SpanPasses.begin(), SpanPasses.end(), Name),
              SpanPasses.end())
        << "no compile." << Name << " span recorded";

    // ...and its compile.pass.<name>.ns duration sample, keyed by the
    // same pass name.
    std::string Metric = "compile.pass." + Name + ".ns";
    auto It = After.Distributions.find(Metric);
    ASSERT_NE(It, After.Distributions.end()) << Metric;
    uint64_t CountBefore = 0;
    if (auto B = Before.Distributions.find(Metric);
        B != Before.Distributions.end())
      CountBefore = B->second.Count;
    EXPECT_GT(It->second.Count, CountBefore) << Metric;
  }

  // A script run: the interpreter parses the script under run.parse, so
  // every compile.<pass> span is one run of that pass and comes with its
  // one compile.pass.<pass>.ns sample.
  Tracer::instance().reset();
  MetricsSnapshot ScriptBefore = MetricsRegistry::global().snapshot();
  Tracer::instance().enable();
  runtime::Interpreter Interp(Diags);
  Interp.defineSequence("a", S);
  Interp.defineSequence("b", T);
  auto Output = Interp.run(std::string(EditDistanceSource) + "print d(a, b)\n");
  Tracer::instance().disable();
  ASSERT_TRUE(Output.has_value()) << Diags.str();
  MetricsSnapshot ScriptAfter = MetricsRegistry::global().snapshot();
  std::map<std::string, uint64_t> PassSpans;
  uint64_t ScriptParses = 0;
  for (const TraceEvent &E : Tracer::instance().hostEvents()) {
    ScriptParses += E.Name == "run.parse";
    if (E.Name.rfind("compile.", 0) == 0)
      ++PassSpans[E.Name.substr(std::strlen("compile."))];
  }
  EXPECT_EQ(ScriptParses, 1u);
  auto Samples = [](const MetricsSnapshot &Snap, const std::string &Metric) {
    auto It = Snap.Distributions.find(Metric);
    return It == Snap.Distributions.end() ? uint64_t(0) : It->second.Count;
  };
  for (std::string_view Name : compiler::PassNames) {
    std::string Metric = "compile.pass." + std::string(Name) + ".ns";
    EXPECT_EQ(PassSpans[std::string(Name)],
              Samples(ScriptAfter, Metric) - Samples(ScriptBefore, Metric))
        << "compile." << Name << " spans against " << Metric << " samples";
  }
}

/// The jit pass follows the same naming law as every other pass — span
/// "compile.jit", metric "compile.pass.jit.ns" — and the JIT machinery
/// itself reports under the "jit." prefix (jit.cache_hits,
/// jit.cache_misses, jit.fallbacks counters; jit.compile_ns duration).
TEST(MetricsTest, JitPassFollowsTheNamingLaw) {
  TracerSandbox Sandbox;
  Tracer::instance().enable();
  CompiledRecurrence Fn = compileOrDie(EditDistanceSource);
  bio::Sequence S("s", "kitten"), T("t", "sitting");
  gpu::Device Dev;
  DiagnosticEngine Diags;
  exec::RunOptions Opts;
  Opts.Evaluator = exec::EvalKind::Jit;
  TempPath JitCache("jit-obstest");
  Opts.JitCacheDir = JitCache.str();
  ASSERT_TRUE(
      Fn.runGpu(editDistanceArgs(S, T), Dev, Diags, Opts).has_value())
      << Diags.str();
  Tracer::instance().disable();

  EXPECT_NE(std::find(compiler::PassNames.begin(), compiler::PassNames.end(),
                      "jit"),
            compiler::PassNames.end());
  bool SawJitSpan = false;
  for (const TraceEvent &E : Tracer::instance().hostEvents())
    SawJitSpan |= E.Name == "compile.jit";
  EXPECT_TRUE(SawJitSpan) << "no compile.jit span recorded";

  MetricsSnapshot After = MetricsRegistry::global().snapshot();
  EXPECT_NE(After.Distributions.find("compile.pass.jit.ns"),
            After.Distributions.end());
  // Exactly one of hit/miss fired, plus the compile duration on a miss;
  // either way the counters exist under the documented names.
  EXPECT_GE(After.counter("jit.cache_hits") +
                After.counter("jit.cache_misses") +
                After.counter("jit.fallbacks"),
            1u);
}

/// exec.runs_by_evaluator counts each run under the evaluator that
/// executed it, not the one requested: the JIT falls back to the VM
/// without a host compiler, and the VM to the AST walker without a
/// bytecode program (a body the bytecode compiler refuses). A batch
/// member scanned in lanes counts under jit_lanes.
TEST(MetricsTest, RunsByEvaluatorCountsTheEvaluatorThatRan) {
  bio::Sequence S("s", "kitten"), T("t", "sitting");
  gpu::Device Dev;
  DiagnosticEngine Diags;
  auto runCounts = [] {
    MetricsSnapshot Snap = MetricsRegistry::global().snapshot();
    std::map<std::string, uint64_t> Counts;
    for (const char *Evaluator : {"ast", "vm", "jit", "jit_lanes"})
      Counts[Evaluator] =
          Snap.labelled("exec.runs_by_evaluator",
                        Labels{{"evaluator", Evaluator}}.render());
    return Counts;
  };
  auto expectOneRunUnder = [&](const char *Ran,
                               std::map<std::string, uint64_t> Before) {
    ++Before[Ran];
    EXPECT_EQ(runCounts(), Before) << "expected one run under " << Ran;
  };

  // VM requested, but one branch is an int and another a real, which
  // the bytecode compiler refuses: the AST walks.
  CompiledRecurrence NoBytecode = compileOrDie(
      "float f(seq[en] s, index[s] i, seq[en] t, index[t] j) =\n"
      "  if i == 0 then 0 else if j == 0 then 1.5\n"
      "  else f(i-1, j) max f(i, j-1)\n");
  ASSERT_EQ(NoBytecode.bytecode(), nullptr);
  std::map<std::string, uint64_t> Before = runCounts();
  exec::RunOptions Vm;
  Vm.Evaluator = exec::EvalKind::Vm;
  ASSERT_TRUE(
      NoBytecode.runGpu(editDistanceArgs(S, T), Dev, Diags, Vm).has_value())
      << Diags.str();
  expectOneRunUnder("ast", Before);

  // JIT requested, but CC names a missing compiler and the cache is
  // cold: the VM runs.
  const char *OldCc = std::getenv("CC");
  const std::string SavedCc = OldCc ? OldCc : "";
  ASSERT_EQ(::setenv("CC", "/nonexistent/bin/not-a-compiler", 1), 0);
  CompiledRecurrence Fn = compileOrDie(EditDistanceSource);
  exec::RunOptions Jit;
  Jit.Evaluator = exec::EvalKind::Jit;
  TempPath JitCache("jit-obstest-nocc");
  Jit.JitCacheDir = JitCache.str();
  Before = runCounts();
  bool Ran = Fn.runGpu(editDistanceArgs(S, T), Dev, Diags, Jit).has_value();
  if (OldCc)
    ::setenv("CC", SavedCc.c_str(), 1);
  else
    ::unsetenv("CC");
  ASSERT_TRUE(Ran) << Diags.str();
  expectOneRunUnder("vm", Before);

  // JIT requested on a batch of four same-shaped rolls of one model, on
  // one batch worker: where the host runs the kernel's lanes entry, the
  // four share one lanes scan and each counts once under jit_lanes.
  DiagnosticEngine ForwardDiags;
  std::optional<CompiledRecurrence> Forward = CompiledRecurrence::compile(
      "prob forward(hmm h, state[h] s, seq[dice] x, index[x] i) =\n"
      "  if i == 0 then\n"
      "    if s.isstart then 1.0 else 0.0\n"
      "  else\n"
      "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
      "    sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))\n",
      ForwardDiags, {"dice"});
  ASSERT_TRUE(Forward.has_value()) << ForwardDiags.str();
  bio::Hmm Casino = bio::makeCasinoModel();
  std::deque<bio::Sequence> Rolls;
  std::vector<std::vector<codegen::ArgValue>> Problems;
  for (const char *R : {"abcdef", "ffffff", "afafaf", "cdcdcd"}) {
    Rolls.emplace_back("r", R);
    Problems.push_back({codegen::ArgValue::ofHmm(&Casino),
                        codegen::ArgValue(),
                        codegen::ArgValue::ofSeq(&Rolls.back()),
                        codegen::ArgValue()});
  }
  exec::RunOptions Batch = Jit;
  Batch.BatchWorkers = 1;
  Before = runCounts();
  ASSERT_TRUE(Forward->runGpuBatch(Problems, Dev, Diags, Batch).has_value())
      << Diags.str();
  Before[codegen::hostRunsLanes() ? "jit_lanes" : "jit"] += Problems.size();
  EXPECT_EQ(runCounts(), Before) << "expected four runs under jit_lanes";
}

//===----------------------------------------------------------------------===//
// Labels, log-bucketed histograms, Prometheus text, continuous export
//===----------------------------------------------------------------------===//

TEST(MetricsTest, LabelRenderingIsOrderIndependentAndEscaped) {
  Labels A{{"tenant", "acme"}, {"device", "0"}};
  Labels B{{"device", "0"}, {"tenant", "acme"}};
  EXPECT_EQ(A.render(), B.render());
  EXPECT_EQ(A.render(), "{device=\"0\",tenant=\"acme\"}");
  EXPECT_EQ(Labels{}.render(), "");
  EXPECT_EQ(A.collapsed().render(), "{device=\"other\",tenant=\"other\"}");
  // Hostile values escape so the rendering stays both a stable snapshot
  // key and a syntactically valid Prometheus label block.
  Labels Hostile{{"tenant", "a\"b\\c\nd"}};
  EXPECT_EQ(Hostile.render(), "{tenant=\"a\\\"b\\\\c\\nd\"}");
}

TEST(MetricsTest, LabelCardinalityCapCollapsesOverflowToOther) {
  MetricsRegistry Registry;
  const size_t Cap = MetricsRegistry::MaxSeriesPerFamily;
  const size_t Tenants = Cap + 40;
  for (size_t I = 0; I != Tenants; ++I)
    Registry.add("requests", Labels{{"tenant", "t" + std::to_string(I)}});
  // Admitted series keep absorbing their own traffic after the cap hits.
  Registry.add("requests", Labels{{"tenant", "t0"}});
  // A post-cap name that never got a series still lands in the overflow.
  Registry.add("requests", Labels{{"tenant", "one-more"}});

  MetricsSnapshot S = Registry.snapshot();
  const auto &Series = S.LabelledCounters.at("requests");
  // Cap distinct admitted series plus the single all-"other" overflow.
  EXPECT_EQ(Series.size(), Cap + 1);
  EXPECT_EQ(S.labelledTotal("requests"), Tenants + 2);
  EXPECT_EQ(S.labelled("requests", "{tenant=\"t0\"}"), 2u);
  EXPECT_EQ(S.labelled("requests", "{tenant=\"other\"}"),
            (Tenants - Cap) + 1);
  // The overflow tenants never became series of their own.
  EXPECT_EQ(S.labelled("requests", "{tenant=\"one-more\"}"), 0u);
  EXPECT_EQ(S.labelled("requests",
                       "{tenant=\"t" + std::to_string(Cap) + "\"}"),
            0u);
  EXPECT_TRUE(JsonValidator(S.json()).valid());
}

TEST(MetricsTest, HistogramPercentilesMatchExactSortWithinOneBucket) {
  // Three latency-like shapes: uniform, log-uniform (spans ~19 octaves),
  // and a near-constant distribution with one outlier.
  std::vector<std::vector<double>> Cases;
  {
    std::vector<double> Uniform;
    for (int I = 1; I <= 1000; ++I)
      Uniform.push_back(static_cast<double>(I) * 0.001);
    Cases.push_back(std::move(Uniform));
  }
  {
    std::vector<double> Geometric;
    double V = 1e-6;
    for (int I = 0; I != 200; ++I) {
      Geometric.push_back(V);
      V *= 1.1;
    }
    Cases.push_back(std::move(Geometric));
  }
  {
    std::vector<double> Spike(500, 0.25);
    Spike.push_back(7.0);
    Cases.push_back(std::move(Spike));
  }

  for (const std::vector<double> &Values : Cases) {
    Histogram H;
    for (double V : Values)
      H.record(V);
    EXPECT_EQ(H.Count, Values.size());

    std::vector<double> Sorted = Values;
    std::sort(Sorted.begin(), Sorted.end());
    for (double Q : {0.50, 0.95, 0.99}) {
      size_t Rank =
          static_cast<size_t>(std::ceil(Q * static_cast<double>(Sorted.size())));
      double Exact = Sorted[Rank - 1];
      double Approx = H.percentile(Q);
      EXPECT_NEAR(Approx, Exact, Exact * Histogram::relativeError())
          << "q=" << Q << " n=" << Sorted.size();
    }
    EXPECT_DOUBLE_EQ(H.Min, Sorted.front());
    EXPECT_DOUBLE_EQ(H.Max, Sorted.back());
  }

  // Non-positive samples take the dedicated bucket and resolve to Min.
  Histogram NonPos;
  NonPos.record(-1.0);
  NonPos.record(0.0);
  NonPos.record(2.0);
  EXPECT_EQ(NonPos.NonPositive, 2u);
  EXPECT_DOUBLE_EQ(NonPos.percentile(0.50), -1.0);
  EXPECT_LE(NonPos.percentile(0.99), 2.0);

  // Merging series preserves totals (histogramTotal's contract).
  Histogram Left, Right;
  Left.record(1.0);
  Left.record(4.0);
  Right.record(2.0);
  Left.merge(Right);
  EXPECT_EQ(Left.Count, 3u);
  EXPECT_DOUBLE_EQ(Left.Sum, 7.0);
  EXPECT_DOUBLE_EQ(Left.Min, 1.0);
  EXPECT_DOUBLE_EQ(Left.Max, 4.0);
}

TEST(MetricsTest, PrometheusTextIsWellFormedAndDuplicateFree) {
  MetricsRegistry Registry;
  Registry.add("serve.requests", 3);
  Registry.add("serve.responses", Labels{{"status", "ok"}, {"tenant", "a"}}, 2);
  Registry.add("serve.responses", Labels{{"status", "deadline"}, {"tenant", "a"}});
  Registry.record("compile.pass.fuse.ns", 120.0);
  Registry.observe("serve.latency.total_seconds", Labels{{"tenant", "a"}}, 0.5);
  Registry.observe("serve.latency.total_seconds", Labels{{"tenant", "a"}},
                   0.002);
  Registry.observe("serve.latency.total_seconds", Labels{{"tenant", "a"}},
                   -0.1);
  Registry.observe("serve.queue_depth", 4.0);

  std::string Text = prometheusText(Registry.snapshot());
  EXPECT_NE(Text.find("# TYPE parrec_serve_requests counter\n"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE parrec_serve_responses counter\n"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE parrec_compile_pass_fuse_ns summary\n"),
            std::string::npos);
  EXPECT_NE(
      Text.find("# TYPE parrec_serve_latency_total_seconds histogram\n"),
      std::string::npos);
  EXPECT_NE(Text.find("parrec_serve_requests 3\n"), std::string::npos);
  EXPECT_NE(Text.find("parrec_serve_responses{status=\"ok\",tenant=\"a\"} 2\n"),
            std::string::npos);
  // The non-positive sample folds into the le="0" cumulative bucket and
  // every labelled bucket merges le into the existing label block.
  EXPECT_NE(Text.find(
                "parrec_serve_latency_total_seconds_bucket{tenant=\"a\",le="),
            std::string::npos);
  EXPECT_NE(
      Text.find("parrec_serve_latency_total_seconds_bucket{tenant=\"a\","
                "le=\"0\"} 1\n"),
      std::string::npos);
  EXPECT_NE(
      Text.find("parrec_serve_latency_total_seconds_bucket{tenant=\"a\","
                "le=\"+Inf\"} 3\n"),
      std::string::npos);
  EXPECT_NE(Text.find("parrec_serve_latency_total_seconds_count{tenant=\"a\"}"
                      " 3\n"),
            std::string::npos);

  // Line-level invariants: TYPE once per family, no duplicate
  // (name, label set) sample, cumulative buckets never decrease.
  std::set<std::string> TypedFamilies;
  std::set<std::string> SampleKeys;
  uint64_t LastCumulative = 0;
  std::istringstream Lines(Text);
  std::string Line;
  while (std::getline(Lines, Line)) {
    ASSERT_FALSE(Line.empty());
    if (Line.rfind("# TYPE ", 0) == 0) {
      std::string Family = Line.substr(7, Line.find(' ', 7) - 7);
      EXPECT_TRUE(TypedFamilies.insert(Family).second)
          << "duplicate TYPE line for " << Family;
      continue;
    }
    size_t ValueAt = Line.rfind(' ');
    ASSERT_NE(ValueAt, std::string::npos) << Line;
    std::string Key = Line.substr(0, ValueAt);
    EXPECT_TRUE(SampleKeys.insert(Key).second)
        << "duplicate sample " << Key;
    // Metric names stay inside Prometheus' [a-zA-Z0-9_:] alphabet.
    for (char C : Key.substr(0, Key.find('{')))
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
                  C == ':')
          << Line;
    if (Key.find("_bucket{") != std::string::npos) {
      uint64_t Cumulative = std::stoull(Line.substr(ValueAt + 1));
      EXPECT_GE(Cumulative, LastCumulative) << Line;
      LastCumulative = Key.find("le=\"+Inf\"") != std::string::npos
                           ? 0
                           : Cumulative;
    }
  }
}

TEST(MetricsTest, ExporterWritesPromFileAndJsonlSeries) {
  TempPath Dir("obstest-export");
  const std::string Prom = Dir.str() + "/export.prom";
  const std::string Jsonl = Dir.str() + "/export.jsonl";

  uint64_t Tick = 41;
  MetricsRegistry::global().add("obs.exporter_test_flushes");
  {
    MetricsExporter::Options Opts;
    Opts.PromPath = Prom;
    Opts.JsonlPath = Jsonl;
    Opts.IntervalMs = 0; // No background thread: flushes are explicit.
    Opts.TickSource = [&Tick] { return Tick; };
    MetricsExporter Exporter(Opts);
    Exporter.flushNow();
    Tick = 42;
    Exporter.stop(); // stop() always writes one final flush.
    Exporter.stop(); // Idempotent.
    EXPECT_EQ(Exporter.flushes(), 2u);
  }

  std::ifstream PromIn(Prom);
  ASSERT_TRUE(PromIn.good()) << Prom;
  std::stringstream PromText;
  PromText << PromIn.rdbuf();
  EXPECT_NE(PromText.str().find("parrec_obs_exporter_test_flushes"),
            std::string::npos);
  // The scrape file is the atomically-renamed final copy; no .tmp left.
  EXPECT_FALSE(std::ifstream(Prom + ".tmp").good());

  std::ifstream JsonlIn(Jsonl);
  ASSERT_TRUE(JsonlIn.good()) << Jsonl;
  std::string Line;
  uint64_t Seq = 0;
  const uint64_t ExpectedTicks[] = {41, 42};
  while (std::getline(JsonlIn, Line)) {
    std::string Error;
    std::optional<JsonValue> Doc = parseJson(Line, &Error);
    ASSERT_TRUE(Doc.has_value()) << Error << ": " << Line;
    EXPECT_EQ(Doc->integerOr("seq", -1), static_cast<int64_t>(Seq));
    ASSERT_LT(Seq, 2u);
    EXPECT_EQ(Doc->integerOr("tick", -1),
              static_cast<int64_t>(ExpectedTicks[Seq]));
    const JsonValue *Metrics = Doc->member("metrics");
    ASSERT_TRUE(Metrics && Metrics->isObject());
    EXPECT_TRUE(Metrics->member("counters"));
    EXPECT_TRUE(Metrics->member("histograms"));
    ++Seq;
  }
  EXPECT_EQ(Seq, 2u);
}
