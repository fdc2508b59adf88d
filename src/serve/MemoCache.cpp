//===- MemoCache.cpp - Bounded result memoization cache ---------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "serve/MemoCache.h"

#include "bio/Sequence.h"

using namespace parrec;
using namespace parrec::serve;

std::string
MemoCache::inputsOf(const std::vector<codegen::ArgValue> &Args) {
  std::string Bytes;
  auto Append = [&](const void *Data, size_t Size) {
    Bytes.append(static_cast<const char *>(Data), Size);
  };
  for (const codegen::ArgValue &A : Args) {
    if (A.Seq) {
      const std::string &Data = A.Seq->data();
      uint64_t Size = Data.size();
      Bytes += 's';
      Append(&Size, sizeof Size);
      Bytes += Data;
    } else if (A.Matrix || A.Hmm) {
      Bytes += 'm';
    } else {
      Bytes += 'v';
      Append(&A.Int, sizeof A.Int);
      Append(&A.Real, sizeof A.Real);
    }
  }
  return Bytes;
}

std::optional<MemoCache::Entry> MemoCache::lookup(const Key &K,
                                                  std::string_view Inputs) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(K);
  if (It == Index.end() || It->second->second.Inputs != Inputs) {
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
