//===- MemoCache.h - Bounded result memoization cache -------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded, internally synchronised LRU cache from (function identity,
/// exec::PlanKey, input digest, thread override) to finished RunResults
/// — the serving-layer analogue of PlanCache: PlanCache skips planning
/// for a repeated shape, MemoCache skips *execution* for a repeated
/// request. The key covers everything that can reach the result bits:
/// the plan key carries the domain box and every plan-relevant option,
/// the 128-bit exec::InputDigest covers the bound argument contents, and
/// the explicit Threads override covers the one run option that changes
/// modelled metrics without changing the plan. Requests that keep their
/// table or ask for a timeline are never memoized (their payloads carry
/// run-scoped objects), so a hit's payload is bit-identical to the
/// execution it replaces.
///
/// Shared by design: a Router hands one MemoCache to all its engine
/// shards, so a spilled repeat still hits. Shared across tenants too, so
/// the digest alone must not decide a hit: two FNV-1a streams are not
/// collision-resistant, and a crafted sequence could otherwise collect
/// another tenant's result. Each entry keeps its requester's own inputs
/// (inputsOf), and a hit whose inputs differ is a miss.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_SERVE_MEMOCACHE_H
#define PARREC_SERVE_MEMOCACHE_H

#include "exec/ExecutionBackend.h"
#include "exec/InputDigest.h"
#include "exec/Plan.h"

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace parrec {
namespace serve {

class MemoCache {
public:
  struct Key {
    /// The compiled function the request targets:
    /// runtime::CompiledRecurrence::id(). Never its address — a
    /// function compiled into a reused slot sits at its predecessor's
    /// address while the cache still holds the predecessor's results.
    uint64_t Fn = 0;
    exec::PlanKey Plan;
    exec::InputDigest Digest;
    /// RunOptions::Threads: not plan-relevant, but it changes the
    /// modelled block width and therefore Cycles/Metrics.
    unsigned Threads = 0;

    bool operator==(const Key &O) const {
      return Fn == O.Fn && Plan == O.Plan && Digest == O.Digest &&
             Threads == O.Threads;
    }
  };

  struct KeyHash {
    size_t operator()(const Key &K) const {
      uint64_t H = K.Plan.hash();
      H ^= K.Digest.Lo + 0x9E3779B97F4A7C15ull + (H << 6) + (H >> 2);
      H ^= K.Digest.Hi + 0x9E3779B97F4A7C15ull + (H << 6) + (H >> 2);
      H ^= (K.Fn * 0xC2B2AE3D27D4EB4Full) ^ K.Threads;
      return static_cast<size_t>(H);
    }
  };

  /// A memoized execution: the result payload plus the modelled cycle at
  /// which the original run resolved (so hit responses carry honest
  /// modelled metadata), and the inputs it ran on (inputsOf).
  struct Entry {
    exec::RunResult Result;
    uint64_t CompletionCycle = 0;
    std::string Inputs;
  };

  /// The inputs of \p Args that a requester brings, as bytes: each
  /// sequence's residues and the bits of each int and real. Models and
  /// matrices are server-side objects, which the digest covers.
  static std::string inputsOf(const std::vector<codegen::ArgValue> &Args);

  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    uint64_t Insertions = 0;
  };

  explicit MemoCache(size_t CapacityEntries)
      : Capacity(CapacityEntries ? CapacityEntries : 1) {}

  /// Returns a copy of the cached entry for \p K and marks it most
  /// recently used, or nullopt on a miss. An entry whose Inputs differ
  /// from \p Inputs is a miss: equal keys with other inputs are a digest
  /// collision. Counts the hit or miss in stats().
  std::optional<Entry> lookup(const Key &K, std::string_view Inputs = {});

  /// Inserts \p E under \p K (first write wins; a concurrent duplicate
  /// execution re-inserting the same key is ignored), evicting least
  /// recently used entries when full.
  void insert(const Key &K, Entry E);

  Stats stats() const;
  size_t size() const;
  size_t capacity() const { return Capacity; }

private:
  using Slot = std::pair<Key, Entry>;

  const size_t Capacity;
  mutable std::mutex Mutex;
  std::list<Slot> Lru; // Front = most recently used.
  std::unordered_map<Key, std::list<Slot>::iterator, KeyHash> Index;
  Stats Counters;
};

} // namespace serve
} // namespace parrec

#endif // PARREC_SERVE_MEMOCACHE_H
