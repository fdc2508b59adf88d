//===- MemoCache.cpp - Bounded result memoization cache ---------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "serve/MemoCache.h"

using namespace parrec;
using namespace parrec::serve;

std::optional<MemoCache::Entry> MemoCache::lookup(const Key &K) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(K);
  if (It == Index.end()) {
    ++Counters.Misses;
    return std::nullopt;
  }
  Lru.splice(Lru.begin(), Lru, It->second);
  ++Counters.Hits;
  return It->second->second;
}

void MemoCache::insert(const Key &K, Entry E) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Index.count(K))
    return; // A concurrent duplicate execution already inserted it.
  Lru.emplace_front(K, std::move(E));
  Index.emplace(K, Lru.begin());
  ++Counters.Insertions;
  while (Lru.size() > Capacity) {
    Index.erase(Lru.back().first);
    Lru.pop_back();
    ++Counters.Evictions;
  }
}

MemoCache::Stats MemoCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters;
}

size_t MemoCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Lru.size();
}
