//===- Router.cpp - Sharded front router over serving engines ---------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "serve/Router.h"

#include "runtime/CompiledRecurrence.h"

#include <algorithm>

using namespace parrec;
using namespace parrec::serve;

namespace {

/// FNV-1a over a string, for the tenant half of the routing key.
uint64_t fnv1a(const std::string &S) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

} // namespace

Router::Router(Options Options) : Opts(std::move(Options)) {
  NumShards = std::max(1u, Opts.Shards);
  // One memo cache for the whole router: a repeat that spills or
  // re-routes around a draining shard must still hit.
  Memo = Opts.MemoCapacity ? std::make_shared<MemoCache>(Opts.MemoCapacity)
                           : Opts.Shard.Memo;
  Opts.Shard.Memo = Memo;
  Shards_.reserve(NumShards);
  Retired.assign(NumShards, Engine::Stats{});
  for (unsigned I = 0; I != NumShards; ++I) {
    ShardSlot Slot;
    Slot.Eng = std::make_shared<Engine>(Opts.Shard);
    Slot.Live = true;
    Shards_.push_back(std::move(Slot));
  }
}

Router::~Router() { shutdown(Engine::ShutdownMode::Drain); }

bool Router::shardLive(unsigned Shard) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Shard < Shards_.size() && Shards_[Shard].Live;
}

unsigned Router::homeShard(const std::string &Tenant,
                           uint64_t KeyHash) const {
  uint64_t H = fnv1a(Tenant) ^ (KeyHash * 0x9E3779B97F4A7C15ull);
  return static_cast<unsigned>(H % NumShards);
}

Future Router::submit(Request Req,
                      std::function<void(const Response &)> Callback) {
  // The routing key mirrors the coalescer's batching key: requests that
  // could share a batch must share a shard, or sharding would defeat
  // coalescing. Computed outside the router lock — it is pure.
  uint64_t KeyHash = 0;
  if (Req.Fn) {
    DiagnosticEngine Diags;
    if (std::optional<solver::DomainBox> Box =
            Req.Fn->domainFor(Req.Args, Diags)) {
      KeyHash = exec::planKey(*Box, Req.Options).hash();
    }
    // An invalid request routes by tenant alone; the shard fails it.
  }

  std::shared_ptr<Engine> Target;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    unsigned Home = homeShard(Req.Tenant, KeyHash);
    unsigned Chosen = Home;
    if (!Shards_[Chosen].Live) {
      // Deterministic probe to the next live shard; with every shard
      // draining, fall through to the (stopped) home shard, whose
      // submit resolves the request as QueueFull.
      for (unsigned Off = 1; Off != NumShards; ++Off) {
        unsigned C = (Home + Off) % NumShards;
        if (Shards_[C].Live) {
          Chosen = C;
          ++ReroutedCount;
          break;
        }
      }
    } else if (Opts.SpillQueueDepth != 0 &&
               Shards_[Chosen].Eng->queueDepth() > Opts.SpillQueueDepth) {
      // Load-aware spill: shallowest live queue, lowest index on ties.
      unsigned Best = Chosen;
      size_t BestDepth = Shards_[Chosen].Eng->queueDepth();
      for (unsigned C = 0; C != NumShards; ++C) {
        if (!Shards_[C].Live || C == Chosen)
          continue;
        size_t Depth = Shards_[C].Eng->queueDepth();
        if (Depth < BestDepth || (Depth == BestDepth && C < Best)) {
          Best = C;
          BestDepth = Depth;
        }
      }
      if (Best != Chosen) {
        Chosen = Best;
        ++SpilledCount;
      }
    }
    if (Chosen == Home)
      ++RoutedCount;
    Target = Shards_[Chosen].Eng;
  }
  // Submit outside the router lock: a rejection or memo hit runs the
  // caller's callback inline, and that callback may re-enter the router.
  return Target->submit(std::move(Req), std::move(Callback));
}

void Router::advanceTo(uint64_t Tick) {
  std::vector<std::shared_ptr<Engine>> Engines;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    LastTick = std::max(LastTick, Tick);
    Engines.reserve(Shards_.size());
    for (const ShardSlot &S : Shards_)
      Engines.push_back(S.Eng);
  }
  for (const std::shared_ptr<Engine> &E : Engines)
    E->advanceTo(Tick);
}

uint64_t Router::now() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return LastTick;
}

bool Router::drainShard(unsigned Shard) {
  std::shared_ptr<Engine> E;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Shard >= Shards_.size() || !Shards_[Shard].Live)
      return false;
    Shards_[Shard].Live = false;
    ++DrainCount;
    E = Shards_[Shard].Eng;
  }
  // Drain outside the lock: new traffic keeps flowing to the live
  // shards while this one finishes its admitted work.
  E->shutdown(Engine::ShutdownMode::Drain);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    // Fold the retiring generation's counters so router-level stats
    // survive the restart.
    accumulate(Retired[Shard], E->stats());
  }
  return true;
}

bool Router::readmitShard(unsigned Shard) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Shard >= Shards_.size() || Shards_[Shard].Live)
      return false;
  }
  // Build the replacement outside the lock (it spawns threads), then
  // install it and catch its clock up to the router's.
  auto Fresh = std::make_shared<Engine>(Opts.Shard);
  uint64_t Tick;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Shards_[Shard].Live)
      return false; // Raced with another readmit.
    Shards_[Shard].Eng = Fresh;
    Shards_[Shard].Live = true;
    ++ReadmitCount;
    Tick = LastTick;
  }
  Fresh->advanceTo(Tick);
  return true;
}

void Router::shutdown(Engine::ShutdownMode Mode) {
  std::vector<std::shared_ptr<Engine>> Engines;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Engines.reserve(Shards_.size());
    for (const ShardSlot &S : Shards_)
      Engines.push_back(S.Eng);
  }
  for (const std::shared_ptr<Engine> &E : Engines)
    E->shutdown(Mode);
}

void Router::accumulate(Engine::Stats &Into, const Engine::Stats &From,
                        bool AppendDevices) {
  Into.Submitted += From.Submitted;
  Into.Completed += From.Completed;
  Into.Rejected += From.Rejected;
  Into.DeadlineShed += From.DeadlineShed;
  Into.Aborted += From.Aborted;
  Into.Failed += From.Failed;
  Into.Batches += From.Batches;
  Into.MaxQueueDepth = std::max(Into.MaxQueueDepth, From.MaxQueueDepth);
  Into.MemoHits += From.MemoHits;
  Into.ContinuousJoins += From.ContinuousJoins;
  auto AddVec = [AppendDevices](std::vector<uint64_t> &A,
                                const std::vector<uint64_t> &B) {
    if (AppendDevices) {
      A.insert(A.end(), B.begin(), B.end());
      return;
    }
    if (A.size() < B.size())
      A.resize(B.size(), 0);
    for (size_t I = 0; I != B.size(); ++I)
      A[I] += B[I];
  };
  AddVec(Into.DeviceBatches, From.DeviceBatches);
  AddVec(Into.DeviceRequests, From.DeviceRequests);
  AddVec(Into.DeviceCycles, From.DeviceCycles);
}

Router::Stats Router::stats() const {
  Stats R;
  std::lock_guard<std::mutex> Lock(Mutex);
  R.PerShard.assign(NumShards, Engine::Stats{});
  for (unsigned I = 0; I != NumShards; ++I) {
    accumulate(R.PerShard[I], Retired[I]);
    // A drained shard's counters were folded into Retired; the live
    // generation's are read from the engine.
    if (Shards_[I].Live)
      accumulate(R.PerShard[I], Shards_[I].Eng->stats());
    // Devices are per shard: appending them keeps the router-level
    // modelled makespan max-of-device-cycles.
    accumulate(R.Total, R.PerShard[I], /*AppendDevices=*/true);
  }
  R.Routed = RoutedCount;
  R.Spilled = SpilledCount;
  R.Rerouted = ReroutedCount;
  R.Drains = DrainCount;
  R.Readmits = ReadmitCount;
  return R;
}

size_t Router::queueDepth() const {
  std::vector<std::shared_ptr<Engine>> Engines;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const ShardSlot &S : Shards_)
      if (S.Live)
        Engines.push_back(S.Eng);
  }
  size_t Depth = 0;
  for (const std::shared_ptr<Engine> &E : Engines)
    Depth += E->queueDepth();
  return Depth;
}
