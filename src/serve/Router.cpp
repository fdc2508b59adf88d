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

/// Folds \p From into \p Into: scalars summed, device vectors appended
/// (devices are per shard, so the router-level modelled makespan stays
/// the max of device cycles).
void accumulate(Engine::Stats &Into, const Engine::Stats &From) {
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
  auto Append = [](std::vector<uint64_t> &A, const std::vector<uint64_t> &B) {
    A.insert(A.end(), B.begin(), B.end());
  };
  Append(Into.DeviceBatches, From.DeviceBatches);
  Append(Into.DeviceRequests, From.DeviceRequests);
  Append(Into.DeviceCycles, From.DeviceCycles);
}

} // namespace

Router::Router(Options Options) : Opts(std::move(Options)) {
  // One memo cache for the whole router: a repeat that spills must
  // still hit.
  if (Opts.MemoCapacity)
    Opts.Shard.Memo = std::make_shared<MemoCache>(Opts.MemoCapacity);
  for (unsigned I = 0, N = std::max(1u, Opts.Shards); I != N; ++I)
    Shards_.push_back(std::make_unique<Engine>(Opts.Shard));
}

Router::~Router() { shutdown(Engine::ShutdownMode::Drain); }

Future Router::submit(Request Req,
                      std::function<void(const Response &)> Callback) {
  // The routing key mirrors the coalescer's batching key: requests that
  // could share a batch must share a shard, or sharding would defeat
  // coalescing. The chosen shard takes the fingerprint as it is.
  std::optional<Engine::Fingerprint> Known;
  uint64_t KeyHash = 0;
  if (Req.Fn) {
    DiagnosticEngine Diags;
    if (std::optional<solver::DomainBox> Box =
            Req.Fn->domainFor(Req.Args, Diags)) {
      exec::PlanKey Key = exec::planKey(*Box, Req.Options);
      KeyHash = Key.hash();
      Known = Engine::Fingerprint{std::move(*Box), std::move(Key)};
    }
    // An invalid request routes by tenant alone; the shard derives its
    // box again and fails it with the same diagnostic.
  }

  const unsigned N = shards();
  const unsigned Home = static_cast<unsigned>(
      (fnv1a(Req.Tenant) ^ (KeyHash * 0x9E3779B97F4A7C15ull)) % N);
  unsigned Chosen = Home;
  size_t BestDepth =
      Opts.SpillQueueDepth != 0 ? Shards_[Home]->queueDepth() : 0;
  if (BestDepth > Opts.SpillQueueDepth) {
    // Load-aware spill: shallowest queue, lowest index on ties.
    for (unsigned C = 0; C != N; ++C) {
      if (C == Home)
        continue;
      size_t Depth = Shards_[C]->queueDepth();
      if (Depth < BestDepth || (Depth == BestDepth && C < Chosen)) {
        Chosen = C;
        BestDepth = Depth;
      }
    }
  }
  (Chosen == Home ? Routed : Spilled).fetch_add(1, std::memory_order_relaxed);
  // A rejection or memo hit runs the caller's callback inline, and that
  // callback may re-enter the router.
  return Shards_[Chosen]->submit(std::move(Req), std::move(Known),
                                 std::move(Callback));
}

void Router::advanceTo(uint64_t Tick) {
  for (const std::unique_ptr<Engine> &E : Shards_)
    E->advanceTo(Tick);
}

void Router::shutdown(Engine::ShutdownMode Mode) {
  for (const std::unique_ptr<Engine> &E : Shards_)
    E->shutdown(Mode);
}

Router::Stats Router::stats() const {
  Stats R;
  for (const std::unique_ptr<Engine> &E : Shards_) {
    R.PerShard.push_back(E->stats());
    accumulate(R.Total, R.PerShard.back());
  }
  R.Routed = Routed.load(std::memory_order_relaxed);
  R.Spilled = Spilled.load(std::memory_order_relaxed);
  return R;
}
