//===- Trace.cpp - Pipeline tracing facility ----------------------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/Json.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace parrec;
using namespace parrec::obs;

std::atomic<bool> Tracer::EnabledFlag{false};

Tracer &Tracer::instance() {
  static Tracer T;
  return T;
}

uint64_t Tracer::nowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Epoch)
          .count());
}

uint32_t Tracer::laneForCurrentThreadLocked() {
  auto [It, Inserted] = Lanes.try_emplace(
      std::this_thread::get_id(), static_cast<uint32_t>(Lanes.size()));
  (void)Inserted;
  return It->second;
}

void Tracer::record(TraceEvent Event) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Event.Lane = laneForCurrentThreadLocked();
  Event.Seq = NextSeq++;
  Events.push_back(std::move(Event));
}

void Tracer::recordDevice(DeviceSlice Slice) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Slices.push_back(std::move(Slice));
}

void Tracer::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Events.clear();
  Slices.clear();
  Lanes.clear();
  NextSeq = 0;
}

std::vector<TraceEvent> Tracer::hostEvents() const {
  std::vector<TraceEvent> Out;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Out = Events;
  }
  std::sort(Out.begin(), Out.end(),
            [](const TraceEvent &A, const TraceEvent &B) {
              if (A.Lane != B.Lane)
                return A.Lane < B.Lane;
              if (A.StartNs != B.StartNs)
                return A.StartNs < B.StartNs;
              if (A.DurNs != B.DurNs)
                return A.DurNs > B.DurNs; // Parents first.
              return A.Seq > B.Seq; // Equal-extent nesting: outer ends last.
            });
  return Out;
}

std::vector<DeviceSlice> Tracer::deviceSlices() const {
  std::vector<DeviceSlice> Out;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Out = Slices;
  }
  std::sort(Out.begin(), Out.end(),
            [](const DeviceSlice &A, const DeviceSlice &B) {
              if (A.Block != B.Block)
                return A.Block < B.Block;
              return A.StartCycles < B.StartCycles;
            });
  return Out;
}

static void writeArgs(JsonWriter &W, const std::vector<TraceArg> &Args) {
  W.key("args").beginObject();
  for (const TraceArg &A : Args) {
    W.key(A.Key);
    W.rawValue(A.Json);
  }
  W.endObject();
}

std::string Tracer::chromeTraceJson() const {
  std::vector<TraceEvent> Host = hostEvents();
  std::vector<DeviceSlice> Device = deviceSlices();

  constexpr int HostPid = 1;
  constexpr int DevicePid = 2;

  JsonWriter W;
  W.beginObject();
  W.key("displayTimeUnit").value("ms");
  W.key("traceEvents").beginArray();

  auto Metadata = [&W](const char *Name, int Pid, int64_t Tid,
                       std::string_view Value) {
    W.beginObject();
    W.key("ph").value("M");
    W.key("name").value(Name);
    W.key("pid").value(static_cast<int64_t>(Pid));
    if (Tid >= 0)
      W.key("tid").value(Tid);
    W.key("args").beginObject().key("name").value(Value).endObject();
    W.endObject();
  };

  Metadata("process_name", HostPid, -1, "parrec host (wall clock)");
  Metadata("process_sort_index", HostPid, -1, "0");
  if (!Device.empty())
    Metadata("process_name", DevicePid, -1,
             "simulated device (ts = modelled cycles)");

  uint32_t MaxLane = 0;
  for (const TraceEvent &E : Host)
    MaxLane = std::max(MaxLane, E.Lane);
  for (uint32_t L = 0; Host.size() && L <= MaxLane; ++L)
    Metadata("thread_name", HostPid, L,
             L == 0 ? std::string("host main")
                    : "host worker " + std::to_string(L));
  uint32_t LastBlock = ~0u;
  for (const DeviceSlice &S : Device)
    if (S.Block != LastBlock) {
      LastBlock = S.Block;
      Metadata("thread_name", DevicePid, S.Block,
               "block " + std::to_string(S.Block));
    }

  for (const TraceEvent &E : Host) {
    W.beginObject();
    W.key("ph").value("X");
    W.key("name").value(E.Name);
    W.key("cat").value(E.Category);
    W.key("pid").value(static_cast<int64_t>(HostPid));
    W.key("tid").value(static_cast<uint64_t>(E.Lane));
    // Chrome trace timestamps are microseconds.
    W.key("ts").value(static_cast<double>(E.StartNs) / 1000.0);
    W.key("dur").value(static_cast<double>(E.DurNs) / 1000.0);
    writeArgs(W, E.Args);
    W.endObject();
    // Flow events share one name/category per flow id chain and sit at
    // the midpoint of their owning slice so the viewer binds each to the
    // enclosing slice on this pid/tid ("bp":"e" on the finish).
    for (const TraceFlow &F : E.Flows) {
      W.beginObject();
      W.key("ph").value(std::string_view(&F.Phase, 1));
      W.key("name").value("serve.request");
      W.key("cat").value("flow");
      W.key("id").value(F.Id);
      W.key("pid").value(static_cast<int64_t>(HostPid));
      W.key("tid").value(static_cast<uint64_t>(E.Lane));
      W.key("ts").value(
          static_cast<double>(E.StartNs + E.DurNs / 2) / 1000.0);
      if (F.Phase == 'f')
        W.key("bp").value("e");
      W.endObject();
    }
  }
  for (const DeviceSlice &S : Device) {
    W.beginObject();
    W.key("ph").value("X");
    W.key("name").value(S.Name);
    W.key("cat").value("device");
    W.key("pid").value(static_cast<int64_t>(DevicePid));
    W.key("tid").value(static_cast<uint64_t>(S.Block));
    // One modelled cycle renders as one microsecond.
    W.key("ts").value(S.StartCycles);
    W.key("dur").value(S.DurCycles);
    writeArgs(W, S.Args);
    W.endObject();
  }

  W.endArray();
  W.endObject();
  return W.take();
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  Out << chromeTraceJson() << '\n';
  return static_cast<bool>(Out);
}

static std::string formatDurationNs(uint64_t Ns) {
  char Buf[32];
  if (Ns < 1000000)
    std::snprintf(Buf, sizeof(Buf), "%.1fus",
                  static_cast<double>(Ns) / 1000.0);
  else
    std::snprintf(Buf, sizeof(Buf), "%.3fms",
                  static_cast<double>(Ns) / 1000000.0);
  return Buf;
}

std::string Tracer::spanTree() const {
  std::vector<TraceEvent> Host = hostEvents();
  std::vector<DeviceSlice> Device = deviceSlices();
  std::string Out;

  uint32_t CurrentLane = ~0u;
  // Open ancestors on the current lane as [start, end] intervals; an
  // event nests under the innermost interval containing it.
  std::vector<std::pair<uint64_t, uint64_t>> Stack;
  for (const TraceEvent &E : Host) {
    if (E.Lane != CurrentLane) {
      CurrentLane = E.Lane;
      Stack.clear();
      Out += "[host lane " + std::to_string(E.Lane) + "]\n";
    }
    while (!Stack.empty() && !(E.StartNs >= Stack.back().first &&
                               E.endNs() <= Stack.back().second))
      Stack.pop_back();
    Out.append(2 * (Stack.size() + 1), ' ');
    Out += E.Name + " " + formatDurationNs(E.DurNs);
    for (const TraceArg &A : E.Args)
      Out += " " + A.Key + "=" + A.Json;
    Out += '\n';
    Stack.emplace_back(E.StartNs, E.endNs());
  }

  if (!Device.empty()) {
    Out += "[simulated device]\n";
    uint32_t Block = ~0u;
    uint64_t Slices = 0, Cycles = 0;
    auto Flush = [&] {
      if (Block != ~0u)
        Out += "  block " + std::to_string(Block) + ": " +
               std::to_string(Slices) + " slices, " +
               std::to_string(Cycles) + " cycles\n";
    };
    for (const DeviceSlice &S : Device) {
      if (S.Block != Block) {
        Flush();
        Block = S.Block;
        Slices = 0;
        Cycles = 0;
      }
      ++Slices;
      Cycles = std::max(Cycles, S.StartCycles + S.DurCycles);
    }
    Flush();
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Span
//===----------------------------------------------------------------------===//

Span::Span(std::string_view Name, std::string_view Category)
    : Active(Tracer::enabled()) {
  if (!Active)
    return;
  Event.Name = Name;
  Event.Category = Category;
  Event.StartNs = Tracer::nowNs();
}

Span::~Span() {
  if (!Active)
    return;
  Event.DurNs = Tracer::nowNs() - Event.StartNs;
  Tracer::instance().record(std::move(Event));
}

void Span::arg(std::string_view Key, std::string_view Value) {
  if (!Active)
    return;
  Event.Args.push_back(
      {std::string(Key), "\"" + jsonEscape(Value) + "\""});
}

void Span::arg(std::string_view Key, int64_t Value) {
  if (!Active)
    return;
  Event.Args.push_back({std::string(Key), std::to_string(Value)});
}

void Span::arg(std::string_view Key, uint64_t Value) {
  if (!Active)
    return;
  Event.Args.push_back({std::string(Key), std::to_string(Value)});
}

void Span::arg(std::string_view Key, double Value) {
  if (!Active)
    return;
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  Event.Args.push_back({std::string(Key), Buf});
}

void Span::arg(std::string_view Key, bool Value) {
  if (!Active)
    return;
  Event.Args.push_back({std::string(Key), Value ? "true" : "false"});
}

void Span::flow(uint64_t Id, char Phase) {
  if (!Active)
    return;
  Event.Flows.push_back({Id, Phase});
}

//===----------------------------------------------------------------------===//
// ParRec_TRACE environment activation
//===----------------------------------------------------------------------===//

namespace {

/// Enables tracing before main when ParRec_TRACE is set: a path value
/// auto-exports Chrome trace JSON at process exit; the value "1" prints
/// the span tree to stderr instead.
struct TraceEnvActivation {
  static std::string &exportPath() {
    static std::string Path;
    return Path;
  }

  TraceEnvActivation() {
    const char *Value = std::getenv("ParRec_TRACE");
    if (!Value || !*Value)
      return;
    exportPath() = Value;
    Tracer::instance().enable();
    std::atexit([] {
      const std::string &Path = exportPath();
      if (Path == "1") {
        std::fputs(Tracer::instance().spanTree().c_str(), stderr);
        return;
      }
      if (!Tracer::instance().writeChromeTrace(Path))
        std::fprintf(stderr, "parrec: cannot write trace to '%s'\n",
                     Path.c_str());
    });
  }
} TraceEnvActivationInstance;

} // namespace
