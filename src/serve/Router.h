//===- Router.h - Sharded front router over serving engines -------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A front router over N serve::Engine shards, each with its own
/// coalescer, fair queue and simulated devices. Requests hash to a shard
/// by (tenant, PlanKey) — the same key the coalescer batches on — so one
/// tenant's repeats of one shape land on one shard and keep coalescing,
/// while distinct tenants and shapes spread across shards. Routing is
/// load-aware: when Options::SpillQueueDepth is set and the sticky
/// shard's queue is deeper, the request spills to the shallowest live
/// shard (deterministic, lowest index on ties).
///
/// Shards can be drained one at a time for rolling restarts:
/// drainShard() takes a shard out of rotation (the router re-routes its
/// traffic to the remaining shards) and finishes everything it had
/// admitted; readmitShard() replaces it with a fresh engine synchronised
/// to the router's virtual clock. Because results are bit-identical
/// whichever engine runs a request, a rolling restart is invisible in
/// response payloads.
///
/// All shards share one MemoCache, so a repeat that re-routes or spills
/// still hits. The router's own clock (advanceTo) fans out to every
/// shard; per-shard clocks never diverge from it by more than a readmit
/// resync.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_SERVE_ROUTER_H
#define PARREC_SERVE_ROUTER_H

#include "serve/Engine.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace parrec {
namespace serve {

class Router {
public:
  struct Options {
    /// Engine options applied to every shard (devices, queue capacity,
    /// linger, tenant weights, continuous batching, pipeline, ...).
    Engine::Options Shard;
    /// Number of engine shards (clamped to >= 1).
    unsigned Shards = 1;
    /// Spill threshold: when non-zero and the sticky shard's queue is
    /// strictly deeper than this, the request goes to the live shard
    /// with the shallowest queue instead. 0 disables spilling.
    size_t SpillQueueDepth = 0;
    /// Shared memo-cache capacity in entries across all shards; 0 falls
    /// back to Shard.Memo (also shared across shards when set).
    size_t MemoCapacity = 0;
  };

  struct Stats {
    /// Sum over shards (and over drained generations). The Device*
    /// vectors concatenate per-shard device totals in shard order.
    Engine::Stats Total;
    /// Per-shard aggregates, drained generations included.
    std::vector<Engine::Stats> PerShard;
    uint64_t Routed = 0;   ///< Requests routed to their sticky shard.
    uint64_t Spilled = 0;  ///< Requests re-routed by the spill rule.
    uint64_t Rerouted = 0; ///< Requests routed around a draining shard.
    uint64_t Drains = 0;
    uint64_t Readmits = 0;
  };

  explicit Router(Options Opts);
  /// Drains every live shard.
  ~Router();

  Router(const Router &) = delete;
  Router &operator=(const Router &) = delete;

  unsigned shards() const { return NumShards; }
  const Options &options() const { return Opts; }
  bool shardLive(unsigned Shard) const;

  /// Routes and submits one request; the returned Future resolves when
  /// the owning shard completes it. With every shard draining, requests
  /// resolve to Status::QueueFull (the shard refuses admission).
  Future submit(Request Req,
                std::function<void(const Response &)> Callback = {});

  /// The router's virtual clock; fans out to every shard.
  void advanceTo(uint64_t Tick);
  uint64_t now() const;

  /// Takes shard \p Shard out of rotation and drains it (blocks until
  /// its admitted work completes). False when already draining or out of
  /// range. New traffic re-routes to the remaining shards meanwhile.
  bool drainShard(unsigned Shard);
  /// Replaces a drained shard with a fresh engine synchronised to the
  /// router clock and puts it back in rotation. False when the shard is
  /// live or out of range.
  bool readmitShard(unsigned Shard);

  /// Shuts every shard down (Drain finishes admitted work, Abort
  /// resolves queued requests as Aborted).
  void shutdown(Engine::ShutdownMode Mode);

  Stats stats() const;
  /// Sum of live shards' queue depths.
  size_t queueDepth() const;
  const std::shared_ptr<MemoCache> &memoCache() const { return Memo; }
  /// Direct shard access for tests and diagnostics; \p Shard must be in
  /// range. The engine may be mid-drain — treat as read-only.
  Engine &shard(unsigned Shard) const { return *Shards_[Shard].Eng; }

private:
  struct ShardSlot {
    std::shared_ptr<Engine> Eng;
    bool Live = true;
  };

  /// Sticky shard for (tenant, plan key hash), ignoring liveness.
  unsigned homeShard(const std::string &Tenant, uint64_t KeyHash) const;
  /// Folds \p From into \p Into: scalars summed, device vectors summed
  /// element-wise, or appended when \p AppendDevices.
  static void accumulate(Engine::Stats &Into, const Engine::Stats &From,
                         bool AppendDevices = false);

  Options Opts;
  unsigned NumShards = 1;
  std::shared_ptr<MemoCache> Memo;

  mutable std::mutex Mutex;
  std::vector<ShardSlot> Shards_;           // Guarded by Mutex.
  std::vector<Engine::Stats> Retired;       // Guarded by Mutex.
  uint64_t LastTick = 0;                    // Guarded by Mutex.
  uint64_t RoutedCount = 0;                 // Guarded by Mutex.
  uint64_t SpilledCount = 0;                // Guarded by Mutex.
  uint64_t ReroutedCount = 0;               // Guarded by Mutex.
  uint64_t DrainCount = 0;                  // Guarded by Mutex.
  uint64_t ReadmitCount = 0;                // Guarded by Mutex.
};

} // namespace serve
} // namespace parrec

#endif // PARREC_SERVE_ROUTER_H
