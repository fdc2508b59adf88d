//===- Engine.h - Multi-tenant serving engine ---------------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An always-on serving layer in front of the exec pipeline, shaped like
/// an inference server: admission through a bounded submission queue
/// (QueueFull backpressure instead of unbounded growth), per-tenant
/// weighted fair queueing (strict priority classes, deficit round robin
/// within a class — see FairQueue.h), a coalescer thread that groups
/// compatible requests — same recursion, same ExecutablePlan key — into
/// batches closed on a size-or-max-linger trigger, and a dispatcher that
/// places closed batches on the least-loaded of N simulated gpu::Device
/// instances (by accumulated estimated modelled cycles, lowest index on
/// ties — deterministic in the batch sequence), each with its own slice
/// of the host worker budget. The coalescer keeps one linger window open
/// per plan key, each closing on its own tick, so a window only ever
/// delays requests of its own key. A device with a backlog runs its
/// waiting batch of highest member priority first. One plan (and one
/// compiled bytecode program, via the function's PlanCache) serves a
/// whole batch; one modelled kernel launch covers the batch instead of
/// one per request.
///
/// Two serving-layer caches/short-circuits ride on top:
///  - Options::ContinuousBatch admits a request whose PlanKey exactly
///    matches a batch still waiting in a device lane into that batch
///    (respecting MaxBatch) instead of a linger window; a batch a
///    device has dequeued is never reopened.
///  - Options::Memo memoizes finished results keyed on (function,
///    PlanKey, input digest, thread override):
///    identical requests skip execution and resolve immediately with a
///    bit-identical payload (Response::Memoized). Requests that keep
///    tables or timelines are never memoized.
///
/// Requests on exec::EvalKind::Vm, the default, start on the bytecode
/// VM. The engine counts the batches each kernel key (the function,
/// schedule and window, which decide a jitted kernel's text) has run;
/// at TierUpBatches a worker thread of its own compiles, or loads from
/// the disk cache, that key's kernel, and the key's later batches run
/// on it. Neither the coalescer nor a device ever waits on the
/// compiler; the compile runs at the lowest CPU priority, and batches
/// scan serially while it runs; the evaluators are bit-identical, so
/// the switch changes host time only.
/// A key whose compile fails stays on the VM. Jit requests plan their
/// kernel as they always have, and Ast requests never run one.
///
/// Time is virtual: deadlines and the coalescer's linger window are
/// measured on a caller-advanced tick clock (Engine::advanceTo), so
/// replay and tests are independent of wall time. Expired requests are
/// shed at dequeue with Status::Deadline rather than wasting device
/// time. shutdown(Drain) finishes everything queued; shutdown(Abort)
/// resolves queued work, open linger windows included, as
/// Status::Aborted.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_SERVE_ENGINE_H
#define PARREC_SERVE_ENGINE_H

#include "exec/Plan.h"
#include "exec/PlanCache.h"
#include "gpu/Device.h"
#include "serve/FairQueue.h"
#include "serve/FlightRecorder.h"
#include "serve/MemoCache.h"
#include "serve/Serve.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace parrec {
namespace serve {

/// The serving engine. Thread-safe: any thread may submit; completion
/// runs on the engine's device threads.
class Engine {
public:
  struct Options {
    /// Cost model shared by every simulated device.
    gpu::CostModel Model;
    /// Simulated gpu::Device instances; batches go to the least-loaded.
    unsigned Devices = 1;
    /// Submission-queue bound; submissions beyond it resolve to
    /// Status::QueueFull immediately.
    size_t QueueCapacity = 256;
    /// Coalescer closes a batch at this many requests; 1 dispatches
    /// every request as its own batch (the ablation baseline).
    size_t MaxBatch = 16;
    /// Virtual ticks a batch stays open waiting for compatible arrivals
    /// after its first request leaves the queue; 0 closes as soon as the
    /// queue holds no compatible request. Each plan key has its own
    /// window, so a window never delays another key's requests.
    uint64_t LingerTicks = 0;
    /// Fair-queue weights per tenant name (missing tenants weigh 1,
    /// values clamp to >= 1): under backlog, tenants of one priority
    /// class are served proportionally to their weights.
    std::map<std::string, uint64_t> TenantWeights;
    /// Admit a late-arriving request with an exactly-matching PlanKey
    /// into a compatible batch still queued in a device lane instead of
    /// opening a linger window of its own. Never exceeds MaxBatch,
    /// never touches a batch the device has already dequeued. Changes
    /// when work dispatches, never what it computes.
    bool ContinuousBatch = false;
    /// Result memo cache; null disables memoization. See MemoCache.h for
    /// the key derivation. A Router passes one cache to all shards so
    /// spilled repeats still hit.
    std::shared_ptr<MemoCache> Memo;
    /// Host worker threads per device for the problems of one batch;
    /// 0 divides exec::hostWorkerBudget() across the devices.
    unsigned BatchWorkersPerDevice = 0;
    /// Host worker threads per problem scan; 0 shares the per-device
    /// budget left after batch striping.
    unsigned ScanWorkersPerDevice = 0;
    /// Dispatch each batch systolically (gpu::PipelinePlanner):
    /// consecutive problems' partitions overlap on a multiprocessor and
    /// every future resolves the moment its problem is placed — before
    /// the batch drains. Response::CompletionCycle records the modelled
    /// resolution point. Results are bit-identical to the barrier path;
    /// only modelled device cycles change.
    bool Pipeline = false;
    /// Start with the coalescer paused (deterministic tests: fill the
    /// queue, then resume()).
    bool StartPaused = false;
    /// Flight-recorder ring capacity (rounded up to a power of two).
    size_t FlightRecorderSlots = 1024;
    /// When non-empty, the flight recorder is dumped to this path on the
    /// first Deadline or Failed response (once per engine). Defaults
    /// from the ParRec_FLIGHT_DUMP environment variable when empty.
    std::string FlightDumpPath;
  };

  /// Batches a kernel key runs on the VM before the engine starts to
  /// compile its kernel (DESIGN.md §11 gives the reason for the value).
  static constexpr uint64_t TierUpBatches = 8;

  enum class ShutdownMode {
    /// Finish everything already admitted, then stop.
    Drain,
    /// Resolve all queued (not yet executing) requests as Aborted,
    /// including those in open linger windows.
    Abort,
  };

  /// Aggregate counters, independent of the obs registry so concurrent
  /// engines and tests see only their own traffic.
  struct Stats {
    uint64_t Submitted = 0;
    uint64_t Completed = 0;
    uint64_t Rejected = 0;
    uint64_t DeadlineShed = 0;
    uint64_t Aborted = 0;
    uint64_t Failed = 0;
    uint64_t Batches = 0;
    uint64_t MaxQueueDepth = 0;
    /// Ok responses served from the memo cache, without execution.
    uint64_t MemoHits = 0;
    /// Requests admitted into an already-queued batch (continuous
    /// batching) instead of opening a new one.
    uint64_t ContinuousJoins = 0;
    /// Per-device totals; devices run concurrently, so the modelled
    /// makespan of the whole engine is the max entry of DeviceCycles.
    std::vector<uint64_t> DeviceBatches;
    std::vector<uint64_t> DeviceRequests;
    std::vector<uint64_t> DeviceCycles;

    uint64_t maxDeviceCycles() const {
      uint64_t Max = 0;
      for (uint64_t C : DeviceCycles)
        Max = Max > C ? Max : C;
      return Max;
    }
  };

  explicit Engine(Options Opts);
  /// Drains outstanding work (shutdown(Drain)) if still running.
  ~Engine();

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  const Options &options() const { return Opts; }

  /// Admits one request. Returns a Future that resolves when the
  /// request completes (or immediately, for QueueFull / Failed
  /// rejections and memo hits). \p Callback, when set, runs on the
  /// completing thread right after the future becomes ready.
  Future submit(Request Req,
                std::function<void(const Response &)> Callback = {});

  /// The virtual clock (monotonic ticks; starts at 0).
  uint64_t now() const { return Clock.load(std::memory_order_acquire); }

  /// Advances the virtual clock to max(now(), Tick) and wakes the
  /// coalescer so linger windows and deadlines are re-evaluated.
  void advanceTo(uint64_t Tick);

  /// Resumes a coalescer started paused (Options::StartPaused;
  /// submissions stay open). A paused coalescer takes no new request off
  /// the queue, but its open linger windows still close and dispatch on
  /// time.
  void resume();

  /// Stops the engine and joins its threads. Idempotent; Drain finishes
  /// admitted work, Abort resolves queued requests as Aborted (a batch
  /// already executing on a device always completes). Either way a
  /// kernel compile in flight finishes, so its compiler processes are
  /// reaped before this returns; tier-ups not yet started are dropped.
  void shutdown(ShutdownMode Mode);

  Stats stats() const;
  size_t queueDepth() const;
  /// The memo cache; null when memoization is off.
  const std::shared_ptr<MemoCache> &memoCache() const { return Opts.Memo; }

  /// The flight recorder's current contents as one JSON document
  /// (capacity, total recorded, dropped count, live events oldest
  /// first). Always available — the recorder is always on.
  std::string dumpFlightRecorder() const;
  /// Writes dumpFlightRecorder() to \p Path; false on I/O failure.
  bool dumpFlightRecorder(const std::string &Path) const;

private:
  struct Batch;
  struct DeviceLane;
  using Wall = std::chrono::steady_clock;

  /// A request's domain box and the plan key whose equality defines
  /// batch compatibility. Router::submit derives them to pick a shard
  /// and hands them to that shard's submit, so they are derived once.
  struct Fingerprint {
    solver::DomainBox Box;
    exec::PlanKey Key;
  };
  friend class Router;
  /// submit, with the fingerprint already derived when \p Known is set;
  /// otherwise derived here, and a request whose box fails is failed.
  Future submit(Request Req, std::optional<Fingerprint> Known,
                std::function<void(const Response &)> Callback);

  /// A request admitted to the submission queue, with everything the
  /// coalescer needs precomputed on the submitting thread: the domain
  /// box and the plan key whose equality defines batch compatibility.
  struct Pending {
    Request Req;
    std::shared_ptr<detail::FutureState> State;
    exec::PlanKey Key;
    solver::DomainBox Box;
    uint64_t SubmitTick = 0;
    uint64_t Seq = 0;
    uint32_t TenantId = 0; ///< Interned tenant, for flight records.
    /// True when this request is memo-eligible (memoization on, no kept
    /// table, no timeline): its result is inserted under MemoKey.
    bool Memoize = false;
    MemoCache::Key MemoKey;
    /// The request's own inputs (MemoCache::inputsOf), when Memoize.
    std::string MemoInputs;
    Wall::time_point SubmitWall;
  };

  /// FairQueue field access for Pending.
  struct PendingTraits {
    static const std::string &tenant(const Pending &P) {
      return P.Req.Tenant;
    }
    static int priority(const Pending &P) { return P.Req.Priority; }
    static uint64_t seq(const Pending &P) { return P.Seq; }
    static uint64_t deadline(const Pending &P) {
      return P.Req.DeadlineTick;
    }
  };

  /// The one completion path. Stamps the fields every response shares
  /// onto \p Resp (the caller fills the status-specific ones), counts it
  /// in Stats and the registry, records the flight recorder's Complete
  /// event and resolves the future, in that order: a callback sees its
  /// own response counted. \p ExecStart, set for executed requests,
  /// splits TotalSeconds into queue wait and execution.
  void complete(Pending &P, Status St, Response Resp = {},
                std::optional<Wall::time_point> ExecStart = std::nullopt);
  /// Interns \p Tenant into a bounded id table for flight-recorder
  /// entries (id 0 = unnamed; over-cardinality names collapse to one
  /// "other" id).
  uint32_t tenantId(const std::string &Tenant);
  /// Dumps the flight recorder to Opts.FlightDumpPath once, on the first
  /// Deadline/Failed response.
  void maybeAutoDump(Status St);
  void coalescerMain();
  /// Plans a closed batch and pushes it onto the least-loaded lane;
  /// fails its members when planning fails. Coalescer thread, no locks
  /// held.
  void dispatchBatch(Batch &B);

  /// What a jitted kernel's text depends on besides the function's
  /// body: the schedule and the window. Every box of a key shares one
  /// kernel.
  struct KernelKey {
    uint64_t Fn = 0; ///< runtime::CompiledRecurrence::id().
    std::vector<int64_t> Schedule;
    bool UseWindow = false;
    int64_t WindowDepth = 0;
    auto operator<=>(const KernelKey &) const = default;
  };
  /// One kernel key's way from the VM to the JIT.
  struct Tier {
    uint64_t Batches = 0; ///< Coalescer thread only.
    /// Written once by the tier-up worker before it sets Ready: the
    /// kernel, or null when the compile failed.
    std::shared_ptr<const codegen::JitKernel> Kernel;
    std::atomic<bool> Ready{false};
    /// The key's plans with Kernel attached, by the VM plan's key.
    exec::PlanCache JitPlans;
  };
  /// A kernel the tier-up worker is to compile, from one of its plans.
  struct TierUpJob {
    Tier *T = nullptr;
    std::shared_ptr<const exec::ExecutablePlan> Plan;
    std::string CacheDir;
    std::string Function;
    std::string Schedule;
  };
  /// Counts \p B toward its kernel key's tier-up and queues the tier-up
  /// on the key's TierUpBatches-th batch. Returns the key's Tier, or
  /// null when B has no Vm member or no bytecode program. Coalescer
  /// thread.
  Tier *tierUp(const Batch &B);
  /// The plan \p B runs on: its plan with the kernel attached once its
  /// Tier has loaded one, decided when a device takes the batch, so a
  /// backlog queued before the kernel loaded runs on it too.
  std::shared_ptr<const exec::ExecutablePlan> planToRun(const Batch &B);
  /// The tier-up worker: compiles queued kernels one at a time until
  /// shutdown, at the lowest CPU priority. Started by the first
  /// tier-up.
  void tierUpMain();
  void deviceMain(unsigned DeviceIndex);
  /// Continuous batching: tries to admit \p P into a compatible batch
  /// still waiting in a device lane. Coalescer thread; takes lane locks,
  /// never the queue lock.
  bool tryContinuousJoin(Pending &P);
  /// Least-loaded device choice: the lane with the smallest accumulated
  /// estimated modelled cycles (cells x members per batch), lowest index
  /// on ties. Coalescer thread only, so placement is deterministic in
  /// the batch sequence.
  unsigned pickLane(const Batch &B);
  /// Copies \p R (table/timeline stripped) into the memo cache under
  /// P.MemoKey, when P is memo-eligible.
  void maybeMemoize(const Pending &P, const exec::RunResult &R,
                    uint64_t CompletionCycle);
  /// Sheds members whose deadline passed in the lane, runs the rest
  /// through an exec::BatchExecutor and resolves each future as its
  /// member is published.
  void executeBatch(DeviceLane &Lane, Batch &B);

  Options Opts;
  std::atomic<uint64_t> Clock{0};

  mutable std::mutex QueueMutex;
  std::condition_variable QueueCv; // Coalescer waits here.
  FairQueue<Pending, PendingTraits> Queue; // Guarded by QueueMutex.
  bool Paused = false;             // Guarded by QueueMutex.
  bool Stopping = false;           // Guarded by QueueMutex.
  bool Draining = false;           // Guarded by QueueMutex; Drain vs Abort.
  uint64_t NextRequestSeq = 0;     // Guarded by QueueMutex.
  uint64_t NextBatchId = 0;        // Coalescer thread only.
  std::vector<uint64_t> LaneAssignedCost; // Coalescer thread only.

  std::vector<std::unique_ptr<DeviceLane>> Lanes;

  mutable std::mutex StatsMutex;
  Stats Counters; // Guarded by StatsMutex.
  std::atomic<uint64_t> CompletionSeq{0};
  std::atomic<uint64_t> NextRequestId{1};

  FlightRecorder Flight;
  std::atomic<bool> FlightDumped{false};
  mutable std::mutex TenantMutex;
  std::vector<std::string> TenantNames;          // Guarded by TenantMutex.
  std::map<std::string, uint32_t> TenantIdTable; // Guarded by TenantMutex.

  std::map<KernelKey, Tier> Tiers; // Coalescer thread only.
  std::mutex TierMutex;
  std::condition_variable TierCv;     // The tier-up worker waits here.
  std::vector<TierUpJob> TierUpJobs;  // Guarded by TierMutex; FIFO.
  bool TierStopping = false;          // Guarded by TierMutex.

  std::thread Coalescer;
  std::vector<std::thread> DeviceThreads;
  /// Started by the coalescer on the first tier-up; joined by shutdown
  /// after the coalescer.
  std::thread TierWorker;
  bool Joined = false; // Guarded by ShutdownMutex.
  std::mutex ShutdownMutex;
};

} // namespace serve
} // namespace parrec

#endif // PARREC_SERVE_ENGINE_H
