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
/// shard's queue is deeper, the request spills to the shallowest shard
/// (deterministic, lowest index on ties).
///
/// The shard set is fixed when the router is built, so routing reads it
/// without a lock. All shards share one MemoCache, so a repeat that
/// spills still hits. The router's clock (advanceTo) fans out to every
/// shard, so every shard's clock is the router's.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_SERVE_ROUTER_H
#define PARREC_SERVE_ROUTER_H

#include "serve/Engine.h"

#include <atomic>
#include <cstdint>
#include <memory>
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
    /// strictly deeper than this, the request goes to the shard with
    /// the shallowest queue instead. 0 disables spilling.
    size_t SpillQueueDepth = 0;
    /// Shared memo-cache capacity in entries across all shards; 0 falls
    /// back to Shard.Memo (also shared across shards when set).
    size_t MemoCapacity = 0;
  };

  struct Stats {
    /// Sum over shards. The Device* vectors concatenate per-shard
    /// device totals in shard order.
    Engine::Stats Total;
    std::vector<Engine::Stats> PerShard;
    uint64_t Routed = 0;  ///< Requests routed to their sticky shard.
    uint64_t Spilled = 0; ///< Requests re-routed by the spill rule.
  };

  explicit Router(Options Opts);
  /// Drains every shard.
  ~Router();

  Router(const Router &) = delete;
  Router &operator=(const Router &) = delete;

  unsigned shards() const { return static_cast<unsigned>(Shards_.size()); }
  const Options &options() const { return Opts; }

  /// Routes and submits one request; the returned Future resolves when
  /// the owning shard completes it. The request's domain box and plan
  /// key, derived here to pick the shard, go to the shard with it.
  Future submit(Request Req,
                std::function<void(const Response &)> Callback = {});

  /// The router's virtual clock; fans out to every shard.
  void advanceTo(uint64_t Tick);
  /// Every shard receives every advanceTo, so shard 0's clock is the
  /// router's.
  uint64_t now() const { return Shards_.front()->now(); }

  /// Shuts every shard down (Drain finishes admitted work, Abort
  /// resolves queued requests as Aborted).
  void shutdown(Engine::ShutdownMode Mode);

  Stats stats() const;
  const std::shared_ptr<MemoCache> &memoCache() const {
    return Opts.Shard.Memo;
  }
  /// Direct shard access for tests and diagnostics; \p Shard must be in
  /// range.
  Engine &shard(unsigned Shard) const { return *Shards_[Shard]; }

private:
  Options Opts;
  std::vector<std::unique_ptr<Engine>> Shards_;
  std::atomic<uint64_t> Routed{0};
  std::atomic<uint64_t> Spilled{0};
};

} // namespace serve
} // namespace parrec

#endif // PARREC_SERVE_ROUTER_H
