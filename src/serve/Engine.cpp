//===- Engine.cpp - Multi-tenant serving engine -----------------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "serve/Engine.h"

#include "codegen/NativeJit.h"
#include "exec/BatchExecutor.h"
#include "exec/InputDigest.h"
#include "exec/ParallelFor.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "runtime/CompiledRecurrence.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>

#include <pthread.h>
#include <sched.h>

using namespace parrec;
using namespace parrec::serve;

std::string_view serve::statusName(Status S) {
  switch (S) {
  case Status::Ok:
    return "ok";
  case Status::QueueFull:
    return "queue_full";
  case Status::Deadline:
    return "deadline";
  case Status::Aborted:
    return "aborted";
  case Status::Failed:
    return "failed";
  }
  return "unknown";
}

namespace {

using Wall = std::chrono::steady_clock;

double secondsSince(Wall::time_point From, Wall::time_point To) {
  return std::chrono::duration<double>(To - From).count();
}

/// The tenant label value for metrics: bounded-cardinality label sets
/// make a hostile tenant stream safe, but an empty name still needs a
/// stable, greppable value.
std::string tenantLabel(const std::string &Tenant) {
  return Tenant.empty() ? "none" : Tenant;
}

/// Resolves a future: publish the response, wake waiters, run the
/// callback on this thread. Never called with engine locks held, so a
/// callback may re-enter the engine (e.g. submit a follow-up request).
void resolve(detail::FutureState &State, Response &&Resp) {
  std::function<void(const Response &)> Callback;
  {
    std::lock_guard<std::mutex> Lock(State.Mutex);
    State.Resp = std::move(Resp);
    State.Ready = true;
    Callback = State.Callback;
  }
  State.Cv.notify_all();
  if (Callback)
    Callback(State.Resp);
}

/// Estimated modelled cost of one batch for least-loaded placement:
/// domain cells per member times the member count. A deliberate
/// estimate — actual cycles are only known after execution — but
/// monotone in problem size and deterministic, which is what placement
/// needs.
uint64_t estimateBatchCost(const exec::PlanKey &Key, size_t Members) {
  uint64_t Cells = 1;
  for (size_t I = 0; I != Key.Lower.size(); ++I) {
    int64_t Extent = Key.Upper[I] - Key.Lower[I] + 1;
    if (Extent > 0)
      Cells *= static_cast<uint64_t>(Extent);
  }
  return std::max<uint64_t>(1, Cells) *
         std::max<size_t>(1, Members);
}

} // namespace

/// A batch: one plan, many compatible requests, one device. It lingers
/// in the coalescer until CloseTick, then waits in a device lane.
struct Engine::Batch {
  uint64_t Id = 0;
  const runtime::CompiledRecurrence *Fn = nullptr;
  exec::PlanKey Key;
  /// Last virtual tick of the linger window: its opening tick plus
  /// Options::LingerTicks.
  uint64_t CloseTick = 0;
  std::shared_ptr<const exec::ExecutablePlan> Plan;
  /// The tier-up of Plan's kernel key, when a member runs Vm: the
  /// device runs the batch on the key's kernel if it has been loaded.
  Tier *KernelTier = nullptr;
  std::vector<Pending> Members;

  /// The highest member priority; devices run waiting batches in this
  /// order.
  int priority() const {
    int Max = std::numeric_limits<int>::min();
    for (const Pending &P : Members)
      Max = std::max(Max, P.Req.Priority);
    return Max;
  }
};

/// One simulated device plus its dispatch queue.
struct Engine::DeviceLane {
  unsigned Index = 0;
  gpu::Device Device;
  std::mutex Mutex;
  std::condition_variable Cv;
  std::deque<Batch> Batches; // Guarded by Mutex.
  bool Closed = false;       // Guarded by Mutex; no more batches coming.
};

Engine::Engine(Options Options)
    : Opts(std::move(Options)), Flight(Opts.FlightRecorderSlots) {
  if (Opts.FlightDumpPath.empty())
    if (const char *Env = std::getenv("ParRec_FLIGHT_DUMP"))
      Opts.FlightDumpPath = Env;
  TenantNames.push_back(""); // Id 0: unnamed tenant.
  Opts.Devices = std::max(1u, Opts.Devices);
  Opts.QueueCapacity = std::max<size_t>(1, Opts.QueueCapacity);
  Opts.MaxBatch = std::max<size_t>(1, Opts.MaxBatch);
  Paused = Opts.StartPaused;
  for (const auto &[Tenant, Weight] : Opts.TenantWeights)
    Queue.setWeight(Tenant, Weight);
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    Counters.DeviceBatches.assign(Opts.Devices, 0);
    Counters.DeviceRequests.assign(Opts.Devices, 0);
    Counters.DeviceCycles.assign(Opts.Devices, 0);
  }
  LaneAssignedCost.assign(Opts.Devices, 0);
  Lanes.reserve(Opts.Devices);
  for (unsigned I = 0; I != Opts.Devices; ++I) {
    auto Lane = std::make_unique<DeviceLane>();
    Lane->Index = I;
    Lane->Device = gpu::Device(Opts.Model);
    Lanes.push_back(std::move(Lane));
  }
  Coalescer = std::thread([this] { coalescerMain(); });
  DeviceThreads.reserve(Opts.Devices);
  for (unsigned I = 0; I != Opts.Devices; ++I)
    DeviceThreads.emplace_back([this, I] { deviceMain(I); });
}

Engine::~Engine() { shutdown(ShutdownMode::Drain); }

void Engine::advanceTo(uint64_t Tick) {
  uint64_t Current = Clock.load(std::memory_order_relaxed);
  while (Tick > Current &&
         !Clock.compare_exchange_weak(Current, Tick,
                                      std::memory_order_release,
                                      std::memory_order_relaxed)) {
  }
  // The coalescer reads the clock under the queue lock: passing through
  // it orders this store before the coalescer's next check, so a window
  // cannot close between that check and its wait and be missed.
  { std::lock_guard<std::mutex> Lock(QueueMutex); }
  QueueCv.notify_all();
}

void Engine::resume() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Paused = false;
  }
  QueueCv.notify_all();
}

size_t Engine::queueDepth() const {
  std::lock_guard<std::mutex> Lock(QueueMutex);
  return Queue.size();
}

Engine::Stats Engine::stats() const {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  return Counters;
}

uint32_t Engine::tenantId(const std::string &Tenant) {
  if (Tenant.empty())
    return 0;
  std::lock_guard<std::mutex> Lock(TenantMutex);
  auto It = TenantIdTable.find(Tenant);
  if (It != TenantIdTable.end())
    return It->second;
  // Same bound as the metrics registry's series cap: beyond it every new
  // tenant name shares one "other" id, so the table cannot grow without
  // bound under a hostile name stream.
  if (TenantIdTable.size() >= obs::MetricsRegistry::MaxSeriesPerFamily) {
    auto OtherIt = TenantIdTable.find("other");
    if (OtherIt != TenantIdTable.end())
      return OtherIt->second;
    uint32_t Id = static_cast<uint32_t>(TenantNames.size());
    TenantNames.push_back("other");
    TenantIdTable.emplace("other", Id);
    return Id;
  }
  uint32_t Id = static_cast<uint32_t>(TenantNames.size());
  TenantNames.push_back(Tenant);
  TenantIdTable.emplace(Tenant, Id);
  return Id;
}

std::string Engine::dumpFlightRecorder() const {
  std::vector<std::string> Tenants;
  {
    std::lock_guard<std::mutex> Lock(TenantMutex);
    Tenants = TenantNames;
  }
  // The flight recorder packs a Status as its underlying integer, and
  // Failed is the last one.
  std::vector<std::string> Statuses;
  for (int S = 0; S <= static_cast<int>(Status::Failed); ++S)
    Statuses.emplace_back(statusName(static_cast<Status>(S)));
  return Flight.json(Statuses, Tenants);
}

bool Engine::dumpFlightRecorder(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  Out << dumpFlightRecorder() << '\n';
  return static_cast<bool>(Out);
}

void Engine::maybeAutoDump(Status St) {
  if (St != Status::Deadline && St != Status::Failed)
    return;
  if (Opts.FlightDumpPath.empty())
    return;
  if (FlightDumped.exchange(true, std::memory_order_acq_rel))
    return;
  dumpFlightRecorder(Opts.FlightDumpPath);
}

void Engine::complete(Pending &P, Status St, Response Resp,
                      std::optional<Wall::time_point> ExecStart) {
  Wall::time_point NowWall = Wall::now();
  Resp.Id = P.Req.Id;
  Resp.St = St;
  Resp.SubmitTick = P.SubmitTick;
  Resp.CompleteTick = now();
  Resp.TotalSeconds = secondsSince(P.SubmitWall, NowWall);
  if (ExecStart) {
    Resp.QueueSeconds = secondsSince(P.SubmitWall, *ExecStart);
    Resp.ExecSeconds = secondsSince(*ExecStart, NowWall);
  }
  Resp.CompletionSeq = CompletionSeq.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    switch (St) {
    case Status::Ok:
      ++Counters.Completed;
      Counters.MemoHits += Resp.Memoized;
      break;
    case Status::QueueFull:
      ++Counters.Rejected;
      break;
    case Status::Deadline:
      ++Counters.DeadlineShed;
      break;
    case Status::Aborted:
      ++Counters.Aborted;
      break;
    case Status::Failed:
      ++Counters.Failed;
      break;
    }
  }
  obs::MetricsRegistry &M = obs::MetricsRegistry::global();
  const std::string Tenant = tenantLabel(P.Req.Tenant);
  M.add("serve.responses",
        obs::Labels{{"status", statusName(St)}, {"tenant", Tenant}});
  if (St == Status::Ok) {
    // A memo hit never queued or executed: its split is 0 + 0 + total.
    obs::Labels TenantL{{"tenant", Tenant}};
    M.observe("serve.latency.queue_wait_seconds", TenantL,
              Resp.QueueSeconds);
    M.observe("serve.latency.execute_seconds", TenantL, Resp.ExecSeconds);
    M.observe("serve.latency.total_seconds", TenantL, Resp.TotalSeconds);
  }
  Flight.record(FlightEventKind::Complete, Resp.Id, Resp.CompleteTick,
                static_cast<uint8_t>(St), static_cast<uint16_t>(Resp.Device),
                P.TenantId, Resp.BatchId);
  maybeAutoDump(St);
  resolve(*P.State, std::move(Resp));
}

void Engine::maybeMemoize(const Pending &P, const exec::RunResult &R,
                          uint64_t CompletionCycle) {
  if (!P.Memoize)
    return;
  MemoCache::Entry E;
  E.Result = R;
  // Run-scoped objects never enter the cache: Memoize excludes requests
  // that keep a table or a timeline, and the batch executor drops
  // timelines nobody asked for; the resets hold that whatever changes
  // upstream.
  E.Result.Timeline.reset();
  E.Result.Table.reset();
  E.CompletionCycle = CompletionCycle;
  E.Inputs = P.MemoInputs;
  Opts.Memo->insert(P.MemoKey, std::move(E));
}

Future Engine::submit(Request Req,
                      std::function<void(const Response &)> Callback) {
  return submit(std::move(Req), std::nullopt, std::move(Callback));
}

Future Engine::submit(Request Req, std::optional<Fingerprint> Known,
                      std::function<void(const Response &)> Callback) {
  auto State = std::make_shared<detail::FutureState>();
  State->Callback = std::move(Callback);
  Future F(State);

  obs::Span Span("serve.enqueue", "serve");
  Pending P;
  P.Req = std::move(Req);
  P.Req.Id = NextRequestId.fetch_add(1, std::memory_order_relaxed);
  P.State = State;
  P.SubmitTick = now();
  P.SubmitWall = Wall::now();
  P.TenantId = tenantId(P.Req.Tenant);
  if (Span.active()) {
    Span.arg("request", P.Req.Id);
    if (P.Req.Fn)
      Span.arg("function", P.Req.Fn->decl().Name);
    if (!P.Req.Tenant.empty())
      Span.arg("tenant", P.Req.Tenant);
  }

  // Validate and fingerprint on the submitting thread: the domain box
  // plus the plan key define which batch this request can join.
  DiagnosticEngine Diags;
  if (!P.Req.Fn) {
    Diags.error({}, "request has no compiled function");
  } else if (!Known) {
    if (std::optional<solver::DomainBox> Box =
            P.Req.Fn->domainFor(P.Req.Args, Diags)) {
      exec::PlanKey Key = exec::planKey(*Box, P.Req.Options);
      Known = Fingerprint{std::move(*Box), std::move(Key)};
    }
  }
  std::optional<MemoCache::Entry> Hit;
  if (Known) {
    P.Box = std::move(Known->Box);
    P.Key = std::move(Known->Key);
    // Result memoization (the serving-layer PlanCache): identical
    // request contents under an identical plan key resolve from the
    // cache without queueing. Requests that keep run-scoped payloads are
    // exempt.
    if (Opts.Memo && !P.Req.Options.KeepTable && !P.Req.Options.Trace) {
      P.Memoize = true;
      P.MemoKey.Fn = P.Req.Fn->id();
      P.MemoKey.Plan = P.Key;
      P.MemoKey.Digest = exec::inputDigest(P.Req.Args);
      P.MemoKey.Threads = P.Req.Options.Threads;
      P.MemoInputs = MemoCache::inputsOf(P.Req.Args);
      Hit = Opts.Memo->lookup(P.MemoKey, P.MemoInputs);
    }
  }

  // P is moved into the queue on admission; everything telemetry needs
  // afterwards is captured first.
  const uint64_t Id = P.Req.Id;
  const uint32_t Tenant = P.TenantId;
  const uint64_t SubmitTick = P.SubmitTick;
  const std::string TenantLbl = tenantLabel(P.Req.Tenant);
  Status St = Known ? Status::Ok : Status::Failed;
  size_t Depth = 0;
  if (Known && !Hit) {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (!Stopping && Queue.size() < Opts.QueueCapacity) {
      P.Seq = NextRequestSeq++;
      Queue.push(std::move(P));
      Depth = Queue.size();
    } else {
      // Backpressure: resolve immediately instead of growing without
      // bound. The producer decides whether to retry, slow down or drop.
      St = Status::QueueFull;
    }
  }
  Flight.record(FlightEventKind::Submit, Id, SubmitTick,
                static_cast<uint8_t>(St), 0, Tenant, 0);
  if (Span.active())
    Span.arg("status", Hit ? "memo_hit"
                           : St == Status::Ok ? "queued" : statusName(St));
  if (St != Status::Ok) {
    Response Resp;
    if (St == Status::Failed)
      Resp.Error = Diags.str();
    complete(P, St, std::move(Resp));
    return F;
  }

  obs::MetricsRegistry &M = obs::MetricsRegistry::global();
  M.add("serve.requests");
  M.add("serve.requests_by_tenant", obs::Labels{{"tenant", TenantLbl}});
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Counters.Submitted;
    Counters.MaxQueueDepth =
        std::max(Counters.MaxQueueDepth, static_cast<uint64_t>(Depth));
  }
  if (Hit) {
    // A hit never touches the queue or a device.
    Response Resp;
    Resp.Result = std::move(Hit->Result);
    Resp.CompletionCycle = Hit->CompletionCycle;
    Resp.Memoized = true;
    complete(P, Status::Ok, std::move(Resp));
    return F;
  }
  Span.flowStart(Id);
  M.observe("serve.queue_depth", static_cast<double>(Depth));
  if (Span.active())
    Span.arg("queue_depth", static_cast<uint64_t>(Depth));
  QueueCv.notify_all();
  return F;
}

bool Engine::tryContinuousJoin(Pending &P) {
  for (std::unique_ptr<DeviceLane> &LanePtr : Lanes) {
    DeviceLane &Lane = *LanePtr;
    uint64_t BatchId = 0;
    bool Joined = false;
    uint64_t RequestId = 0;
    uint32_t Tenant = 0;
    {
      std::lock_guard<std::mutex> LaneLock(Lane.Mutex);
      // Only batches still sitting in the lane deque are candidates: a
      // batch deviceMain has popped is executing and never reopened.
      for (Batch &B : Lane.Batches) {
        if (B.Fn != P.Req.Fn || !(B.Key == P.Key) ||
            B.Members.size() >= Opts.MaxBatch)
          continue;
        BatchId = B.Id;
        RequestId = P.Req.Id;
        Tenant = P.TenantId;
        B.Members.push_back(std::move(P));
        Joined = true;
        break;
      }
    }
    if (!Joined)
      continue;
    Flight.record(FlightEventKind::Coalesce, RequestId, now(),
                  static_cast<uint8_t>(Status::Ok),
                  static_cast<uint16_t>(Lane.Index), Tenant, BatchId);
    obs::MetricsRegistry::global().add("serve.continuous_joins");
    {
      std::lock_guard<std::mutex> Lock(StatsMutex);
      ++Counters.ContinuousJoins;
    }
    return true;
  }
  return false;
}

unsigned Engine::pickLane(const Batch &B) {
  // Least-loaded by accumulated estimated modelled cycles. The load is
  // never decremented as batches finish: decisions depend only on the
  // batch sequence (LPT-style greedy placement), never on wall-clock
  // execution progress, so a replay places every batch identically.
  unsigned Best = 0;
  for (unsigned I = 1; I < LaneAssignedCost.size(); ++I)
    if (LaneAssignedCost[I] < LaneAssignedCost[Best])
      Best = I;
  LaneAssignedCost[Best] += estimateBatchCost(B.Key, B.Members.size());
  return Best;
}

void Engine::coalescerMain() {
  // Open linger windows, oldest first. Each one batches a single
  // (Fn, PlanKey) and closes on its own tick, so a window only ever
  // delays requests of its own key.
  std::vector<Batch> Open;

  // Absorb every compatible queued request, in submission order. The
  // SubmitTick bound makes the linger window a property of virtual
  // time alone: a request virtually submitted after the window closed
  // never joins, however slowly this thread is scheduled. Absorption
  // consumes no fair-queue deficit — riders share a batch the head's
  // tenant already paid for.
  auto absorb = [&](Batch &B, std::vector<Pending> &Shed) {
    if (B.Members.size() >= Opts.MaxBatch)
      return;
    Queue.absorb(
        [&](const Pending &P) {
          return P.SubmitTick <= B.CloseTick && P.Req.Fn == B.Fn &&
                 P.Key == B.Key;
        },
        Opts.MaxBatch - B.Members.size(), now(), B.Members, Shed);
  };
  // Size-or-max-linger trigger: a window closes once it is full or the
  // virtual clock has passed its close tick (strictly, so boundary-tick
  // arrivals always make it in). Without lingering, and once the engine
  // stops, it closes in the round that opened it.
  auto due = [&](const Batch &B, uint64_t Now) {
    return Opts.LingerTicks == 0 || B.Members.size() >= Opts.MaxBatch ||
           Stopping || Now > B.CloseTick;
  };

  std::unique_lock<std::mutex> Lock(QueueMutex);
  while (true) {
    // advanceTo notifies QueueCv, so a close tick needs no timer.
    QueueCv.wait(Lock, [&] {
      const uint64_t Now = now();
      return Stopping || (!Paused && !Queue.empty()) ||
             std::any_of(Open.begin(), Open.end(),
                         [&](const Batch &B) { return due(B, Now); });
    });

    // Requests shed while assembling; completed after the lock drops.
    std::vector<Pending> Shed;
    for (Batch &B : Open)
      absorb(B, Shed);

    // Head selection, skipped while paused: strict priority across
    // classes, deficit round robin across tenants within a class, FIFO
    // within a tenant.
    std::optional<Pending> Head;
    if (!Paused || Stopping)
      Head = Queue.pop(now(), &Shed);

    // Continuous batching: a head whose PlanKey matches a batch still
    // waiting in a lane joins that batch instead of a linger window.
    // Lane locks nest outside the queue lock, so drop it first.
    if (Head && Opts.ContinuousBatch) {
      Lock.unlock();
      for (Pending &P : Shed)
        complete(P, Status::Deadline);
      Shed.clear();
      bool Joined = tryContinuousJoin(*Head);
      Lock.lock();
      if (Joined)
        Head.reset();
    }

    // The open windows have already absorbed every queued request they
    // could take, so the head opens a window of its own. Any window of
    // its key is full or past its close tick, and closes below.
    if (Head) {
      Batch &B = Open.emplace_back();
      B.Id = NextBatchId++;
      B.Fn = Head->Req.Fn;
      B.Key = Head->Key;
      B.CloseTick = now() + Opts.LingerTicks;
      B.Members.push_back(std::move(*Head));
      absorb(B, Shed);
    }

    // Close every due window, oldest first. shutdown(Abort) resolves
    // every open window as Aborted instead: none of them dispatches.
    std::vector<Batch> Closed;
    std::vector<Pending> Aborted;
    if (Stopping && !Draining) {
      for (Batch &B : Open)
        for (Pending &P : B.Members)
          Aborted.push_back(std::move(P));
      Open.clear();
    } else {
      const uint64_t Now = now();
      std::vector<Batch> StillOpen;
      for (Batch &B : Open)
        (due(B, Now) ? Closed : StillOpen).push_back(std::move(B));
      Open = std::move(StillOpen);
    }
    const bool Done = Stopping && Queue.empty() && Open.empty();

    Lock.unlock();
    for (Pending &P : Shed)
      complete(P, Status::Deadline);
    for (Pending &P : Aborted)
      complete(P, Status::Aborted);
    for (Batch &B : Closed)
      dispatchBatch(B);
    if (Done)
      break;
    Lock.lock();
  }
  // No more batches can arrive: release the device threads.
  for (std::unique_ptr<DeviceLane> &Lane : Lanes) {
    {
      std::lock_guard<std::mutex> LaneLock(Lane->Mutex);
      Lane->Closed = true;
    }
    Lane->Cv.notify_all();
  }
}

void Engine::dispatchBatch(Batch &B) {
  obs::MetricsRegistry &M = obs::MetricsRegistry::global();
  obs::Span Span("serve.coalesce", "serve");
  if (Span.active()) {
    Span.arg("batch", B.Id);
    Span.arg("requests", static_cast<uint64_t>(B.Members.size()));
    Span.arg("function", B.Fn->decl().Name);
    Span.arg("fingerprint", B.Key.hash());
  }
  M.add("serve.batches");
  {
    std::lock_guard<std::mutex> SLock(StatsMutex);
    ++Counters.Batches;
  }

  // One plan serves the whole batch: a PlanCache hit after the first
  // same-shaped batch, so schedule synthesis and loop generation are
  // paid once per shape, not once per request.
  DiagnosticEngine Diags;
  B.Plan = B.Fn->planFor(B.Members[0].Box, B.Members[0].Req.Options,
                         /*Preselected=*/nullptr, Diags);
  if (Span.active())
    Span.arg("planned", B.Plan != nullptr);
  if (!B.Plan) {
    Response Resp;
    Resp.Error = Diags.str();
    for (Pending &P : B.Members)
      complete(P, Status::Failed, Resp);
    return;
  }
  B.KernelTier = tierUp(B);

  DeviceLane &Lane = *Lanes[pickLane(B)];
  if (Span.active()) {
    Span.arg("device", Lane.Index);
    for (const Pending &P : B.Members)
      Span.flowStep(P.Req.Id);
  }
  M.observe("serve.coalesced_per_batch",
            obs::Labels{{"device", std::to_string(Lane.Index)}},
            static_cast<double>(B.Members.size()));
  for (const Pending &P : B.Members)
    Flight.record(FlightEventKind::Coalesce, P.Req.Id, now(),
                  static_cast<uint8_t>(Status::Ok),
                  static_cast<uint16_t>(Lane.Index), P.TenantId, B.Id);
  {
    std::lock_guard<std::mutex> LaneLock(Lane.Mutex);
    Lane.Batches.push_back(std::move(B));
  }
  Lane.Cv.notify_all();
}

Engine::Tier *Engine::tierUp(const Batch &B) {
  auto Vm = std::find_if(B.Members.begin(), B.Members.end(),
                         [](const Pending &P) {
                           return P.Req.Options.Evaluator ==
                                  exec::EvalKind::Vm;
                         });
  // A plan without a bytecode program runs on the AST walker, and no
  // kernel can be rendered from it.
  if (Vm == B.Members.end() || !B.Plan->Program)
    return nullptr;
  Tier &T = Tiers[KernelKey{B.Fn->id(), B.Plan->Sched.Coefficients,
                            B.Plan->UseWindow, B.Plan->WindowDepth}];
  // Counting stops at TierUpBatches, so a key queues one tier-up.
  if (T.Batches == TierUpBatches || ++T.Batches != TierUpBatches)
    return &T;
  TierUpJob Job;
  Job.T = &T;
  Job.Plan = B.Plan;
  Job.CacheDir = Vm->Req.Options.JitCacheDir;
  Job.Function = B.Fn->decl().Name;
  Job.Schedule = B.Plan->Sched.str(B.Fn->info().Recurrence.DimNames);
  {
    std::lock_guard<std::mutex> Lock(TierMutex);
    TierUpJobs.push_back(std::move(Job));
  }
  TierCv.notify_one();
  // The worker starts here rather than with the engine: most engines
  // never tier up (a Router builds one engine per shard).
  if (!TierWorker.joinable())
    TierWorker = std::thread([this] { tierUpMain(); });
  return &T;
}

std::shared_ptr<const exec::ExecutablePlan>
Engine::planToRun(const Batch &B) {
  Tier *T = B.KernelTier;
  if (!T || !T->Ready.load(std::memory_order_acquire) || !T->Kernel)
    return B.Plan; // Not loaded yet, or the compile failed.
  // Every box of the key shares the kernel: its plan is the VM plan
  // with the kernel attached, copied once per plan key.
  std::shared_ptr<const exec::ExecutablePlan> Plan =
      T->JitPlans.lookup(B.Key);
  if (!Plan) {
    auto WithKernel = std::make_shared<exec::ExecutablePlan>(*B.Plan);
    WithKernel->Kernel = T->Kernel;
    Plan = std::move(WithKernel);
    T->JitPlans.insert(B.Key, Plan);
  }
  return Plan;
}

void Engine::tierUpMain() {
  // A compile must not take a core from a serving thread: this thread
  // runs only on a core nothing else wants (SCHED_IDLE, a thread's own
  // policy on Linux), and so do the compiler processes it starts, which
  // inherit the policy. A failure leaves the normal priority.
#ifdef __linux__
  sched_param Param{};
  ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &Param);
#endif
  std::unique_lock<std::mutex> Lock(TierMutex);
  while (true) {
    TierCv.wait(Lock, [&] { return TierStopping || !TierUpJobs.empty(); });
    if (TierStopping)
      return;
    TierUpJob Job = std::move(TierUpJobs.front());
    TierUpJobs.erase(TierUpJobs.begin());
    Lock.unlock();
    {
      obs::Span Span("serve.tier_up", "serve");
      codegen::JitCompileOptions CompileOpts;
      CompileOpts.CacheDir = Job.CacheDir;
      codegen::JitOutcome Outcome = codegen::JitOutcome::Failed;
      Wall::time_point Start = Wall::now();
      Job.T->Kernel =
          codegen::compileKernel(*Job.Plan, CompileOpts, &Outcome);
      Job.T->Ready.store(true, std::memory_order_release);
      if (Span.active()) {
        Span.arg("function", Job.Function);
        Span.arg("schedule", Job.Schedule);
        Span.arg("window", Job.Plan->UseWindow);
        if (Job.Plan->UseWindow)
          Span.arg("window_depth", Job.Plan->WindowDepth);
        Span.arg("compile_ms", secondsSince(Start, Wall::now()) * 1e3);
        const char *Outcomes[] = {"compiled", "loaded", "failed"};
        Span.arg("outcome", Outcomes[static_cast<int>(Outcome)]);
      }
    }
    Lock.lock();
  }
}

void Engine::deviceMain(unsigned DeviceIndex) {
  DeviceLane &Lane = *Lanes[DeviceIndex];
  while (true) {
    Batch B;
    {
      std::unique_lock<std::mutex> Lock(Lane.Mutex);
      Lane.Cv.wait(Lock,
                   [&] { return Lane.Closed || !Lane.Batches.empty(); });
      if (Lane.Batches.empty())
        return;
      // Highest member priority first, oldest first within a priority:
      // a batch that closed behind lower-priority backlog still runs
      // next.
      auto Next = std::max_element(
          Lane.Batches.begin(), Lane.Batches.end(),
          [](const Batch &A, const Batch &C) {
            return A.priority() < C.priority();
          });
      B = std::move(*Next);
      Lane.Batches.erase(Next);
    }
    executeBatch(Lane, B);
  }
}

void Engine::executeBatch(DeviceLane &Lane, Batch &B) {
  // Deadlines are re-checked when the device dequeues the batch: work
  // that expired while waiting in the lane is shed, not executed.
  std::vector<Pending> Members;
  Members.reserve(B.Members.size());
  for (Pending &P : B.Members) {
    if (P.Req.DeadlineTick != 0 && now() > P.Req.DeadlineTick)
      complete(P, Status::Deadline);
    else
      Members.push_back(std::move(P));
  }
  if (Members.empty())
    return;

  obs::Span Span("serve.dispatch", "serve");
  if (Span.active()) {
    Span.arg("device", Lane.Index);
    Span.arg("batch", B.Id);
    Span.arg("requests", static_cast<uint64_t>(Members.size()));
    Span.arg("function", B.Fn->decl().Name);
    for (const Pending &P : Members)
      Span.flowStep(P.Req.Id);
  }
  for (const Pending &P : Members)
    Flight.record(FlightEventKind::Dispatch, P.Req.Id, now(),
                  static_cast<uint8_t>(Status::Ok),
                  static_cast<uint16_t>(Lane.Index), P.TenantId, B.Id);
  Wall::time_point ExecStart = Wall::now();

  // The engine's host budget is divided per device, so N devices never
  // oversubscribe the machine. Each response resolves as soon as the
  // executor publishes its member: after the batch under the barrier
  // policy, at its own launch's completion under the systolic one.
  std::shared_ptr<const exec::ExecutablePlan> Plan = planToRun(B);
  std::vector<exec::BatchMember> Inputs;
  Inputs.reserve(Members.size());
  for (Pending &P : Members) {
    P.Req.Options.FlowId = P.Req.Id; // Trace flow id only; never a result.
    Inputs.push_back({Plan.get(), &P.Req.Args, &P.Req.Options});
  }
  auto Publish = [&](size_t I, exec::RunResult &&R, uint64_t Completion) {
    Pending &P = Members[I];
    maybeMemoize(P, R, Completion);
    Response Resp;
    Resp.Result = std::move(R);
    Resp.Device = Lane.Index;
    Resp.BatchId = B.Id;
    Resp.BatchSize = Members.size();
    Resp.CompletionCycle = Completion;
    complete(P, Status::Ok, std::move(Resp), ExecStart);
  };
  // Scan workers wait at a spin barrier every partition, and a kernel
  // compile on the host stalls them whatever its priority (DESIGN.md
  // §11): while the compiler runs, each scan is serial. The scan
  // worker count never changes a result.
  unsigned ScanWorkers =
      codegen::compilerRunning() ? 1 : Opts.ScanWorkersPerDevice;
  exec::BatchExecutor Executor(Lane.Device, B.Fn->decl(), B.Fn->info(),
                               Opts.Pipeline);
  exec::BatchDispatch D = Executor.run(
      Inputs, std::max(1u, exec::hostWorkerBudget() / Opts.Devices),
      Opts.BatchWorkersPerDevice, ScanWorkers, Publish);

  std::lock_guard<std::mutex> Lock(StatsMutex);
  ++Counters.DeviceBatches[Lane.Index];
  Counters.DeviceRequests[Lane.Index] += Members.size();
  Counters.DeviceCycles[Lane.Index] += D.MakespanCycles;
}

void Engine::shutdown(ShutdownMode Mode) {
  std::lock_guard<std::mutex> SLock(ShutdownMutex);
  if (Joined)
    return;
  std::vector<Pending> ToAbort;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Stopping = true;
    Paused = false;
    Draining = Mode == ShutdownMode::Drain;
    if (Mode == ShutdownMode::Abort)
      ToAbort = Queue.drain();
  }
  QueueCv.notify_all();
  if (Mode == ShutdownMode::Abort) {
    // Flush undispatched batches too (the coalescer aborts its open
    // linger windows itself); a batch already executing on a device
    // cannot be interrupted and completes normally.
    for (std::unique_ptr<DeviceLane> &Lane : Lanes) {
      std::deque<Batch> Flushed;
      {
        std::lock_guard<std::mutex> Lock(Lane->Mutex);
        Flushed.swap(Lane->Batches);
      }
      Lane->Cv.notify_all();
      for (Batch &B : Flushed)
        for (Pending &P : B.Members)
          ToAbort.push_back(std::move(P));
    }
  }
  for (Pending &P : ToAbort)
    complete(P, Status::Aborted);
  if (Coalescer.joinable())
    Coalescer.join();
  for (std::thread &T : DeviceThreads)
    if (T.joinable())
      T.join();
  // No batch runs any more. A compile in flight finishes, so its
  // compiler processes are reaped; queued tier-ups are dropped.
  {
    std::lock_guard<std::mutex> Lock(TierMutex);
    TierStopping = true;
    TierUpJobs.clear();
  }
  TierCv.notify_all();
  if (TierWorker.joinable())
    TierWorker.join();
  Joined = true;
}
