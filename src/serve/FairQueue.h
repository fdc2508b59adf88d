//===- FairQueue.h - Per-tenant weighted fair queueing ------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine's submission queue: per-(priority, tenant) FIFO subqueues
/// scheduled by strict priority across classes and deficit round robin
/// (quantum = the tenant's weight, unit cost per request) among the
/// tenants of a class. Under backlog, tenants of one priority class are
/// served in proportion to their weights; one chatty tenant can delay
/// the others by at most the in-flight burst, never starve them.
///
/// Invariants the serving layer relies on:
///  - FIFO within one (tenant, priority) subqueue — a tenant's own
///    requests never reorder.
///  - Strict priority across classes: no request dispatches while a
///    higher-priority request is queued.
///  - Deadline sheds and batch-absorbed riders consume no deficit; only
///    the request a pop() returns is charged, so shedding a backlogged
///    tenant's expired head cannot eat its goodput share.
///  - All cross-subqueue extraction (absorb, drain) returns items in
///    global submission (Seq) order.
///
/// The container is not synchronised; the engine guards it with its
/// queue mutex, exactly as it guarded the FIFO this replaces. It is a
/// template so the engine's private Pending type can live in it without
/// widening that type's visibility; Traits supplies field access.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_SERVE_FAIRQUEUE_H
#define PARREC_SERVE_FAIRQUEUE_H

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace parrec {
namespace serve {

/// Field access for FairQueue items. Specialise or shadow for the
/// engine's Pending; the defaults fit any struct with these members.
template <typename T> struct FairQueueTraits {
  static const std::string &tenant(const T &Item) { return Item.Tenant; }
  static int priority(const T &Item) { return Item.Priority; }
  static uint64_t seq(const T &Item) { return Item.Seq; }
  /// Virtual-clock deadline; 0 = none.
  static uint64_t deadline(const T &Item) { return Item.Deadline; }
};

template <typename T, typename Traits = FairQueueTraits<T>>
class FairQueue {
public:
  /// Sets a tenant's weight (clamped to >= 1). Weights may be set before
  /// any push; changing a weight mid-backlog applies from the tenant's
  /// next scheduling visit.
  void setWeight(const std::string &Tenant, uint64_t Weight) {
    Weights[Tenant] = std::max<uint64_t>(1, Weight);
  }

  uint64_t weight(const std::string &Tenant) const {
    auto It = Weights.find(Tenant);
    return It == Weights.end() ? 1 : It->second;
  }

  size_t size() const { return Total; }
  bool empty() const { return Total == 0; }

  /// Queued requests for one tenant, across all priority classes.
  size_t tenantDepth(const std::string &Tenant) const {
    size_t N = 0;
    for (const auto &[Priority, Class] : Classes)
      if (auto It = Class.Tenants.find(Tenant); It != Class.Tenants.end())
        N += It->second.size();
    return N;
  }

  /// Queues \p Item behind every queued item of its subqueue with a
  /// lower or equal Seq. New submissions carry the highest Seq and land
  /// at the tail; absorb() returns a full batch's overflow here too, and
  /// it must land ahead of its tenant's later requests.
  void push(T Item) {
    std::deque<T> &Q =
        Classes[Traits::priority(Item)].Tenants[Traits::tenant(Item)];
    auto Pos = std::upper_bound(Q.begin(), Q.end(), Traits::seq(Item),
                                [](uint64_t Seq, const T &Queued) {
                                  return Seq < Traits::seq(Queued);
                                });
    Q.insert(Pos, std::move(Item));
    ++Total;
  }

  /// Pops the next request per strict-priority + DRR order. Expired
  /// items (deadline != 0 and Now strictly past it) encountered on the
  /// way are moved to \p Shed without consuming the owning tenant's
  /// deficit. Returns nullopt when the queue is empty (possibly after
  /// shedding).
  std::optional<T> pop(uint64_t Now, std::vector<T> *Shed) {
    while (Total != 0) {
      // Highest non-empty priority class; Classes is keyed descending.
      auto ClassIt = Classes.begin();
      while (ClassIt != Classes.end() && classSize(ClassIt->second) == 0)
        ClassIt = Classes.erase(ClassIt);
      if (ClassIt == Classes.end())
        return std::nullopt; // Total said otherwise; defensive.
      ClassState &Class = ClassIt->second;

      // A strictly-higher class emptying resets no DRR state here: each
      // class keeps its own cursor and burst, so preemption by a burst
      // of high-priority work resumes the lower class where it left off.
      if (Class.BurstLeft == 0 || !hasItems(Class, Class.Cursor)) {
        advanceCursor(Class);
        Class.BurstLeft = weight(Class.Cursor);
      }
      std::deque<T> &Q = Class.Tenants[Class.Cursor];
      // Shed expired heads without charging the deficit: a shed frees
      // the device for nobody, so it must not count as service.
      while (!Q.empty() && expired(Q.front(), Now)) {
        if (Shed)
          Shed->push_back(std::move(Q.front()));
        removeFront(Q);
      }
      if (Q.empty()) {
        Class.Tenants.erase(Class.Cursor);
        Class.BurstLeft = 0;
        continue;
      }
      T Item = std::move(Q.front());
      removeFront(Q);
      --Class.BurstLeft;
      if (Q.empty())
        Class.Tenants.erase(Traits::tenant(Item));
      return Item;
    }
    return std::nullopt;
  }

  /// Extracts every item satisfying \p Match, in global submission (Seq)
  /// order, until \p Out has grown by \p MaxTake items; expired matches
  /// go to \p Shed (not counted against MaxTake), and the rest stay
  /// queued in their place. Neither path consumes deficit — absorbed
  /// requests ride an already-charged batch.
  template <typename Pred>
  void absorb(Pred Match, size_t MaxTake, uint64_t Now, std::vector<T> &Out,
              std::vector<T> &Shed) {
    std::vector<T> Matched = extract(Match);
    size_t Taken = 0;
    for (T &Item : Matched) {
      if (expired(Item, Now)) {
        Shed.push_back(std::move(Item));
      } else if (Taken < MaxTake) {
        Out.push_back(std::move(Item));
        ++Taken;
      } else {
        push(std::move(Item)); // Batch full: back where it came from.
      }
    }
  }

  /// Removes and returns everything, in global submission order.
  std::vector<T> drain() {
    return extract([](const T &) { return true; });
  }

private:
  struct ClassState {
    /// Tenant name -> FIFO. std::map: deterministic round order.
    std::map<std::string, std::deque<T>> Tenants;
    std::string Cursor;   ///< Tenant currently being served.
    uint64_t BurstLeft = 0; ///< Pops left in the cursor's DRR quantum.
  };

  static bool expired(const T &Item, uint64_t Now) {
    return Traits::deadline(Item) != 0 && Now > Traits::deadline(Item);
  }

  static size_t classSize(const ClassState &Class) {
    size_t N = 0;
    for (const auto &[Tenant, Q] : Class.Tenants)
      N += Q.size();
    return N;
  }

  bool hasItems(ClassState &Class, const std::string &Tenant) const {
    auto It = Class.Tenants.find(Tenant);
    return It != Class.Tenants.end() && !It->second.empty();
  }

  /// Moves the cursor to the next tenant in name order, wrapping — the
  /// deterministic analogue of an active-queue ring.
  void advanceCursor(ClassState &Class) {
    auto It = Class.Tenants.upper_bound(Class.Cursor);
    if (It == Class.Tenants.end())
      It = Class.Tenants.begin();
    Class.Cursor = It->first;
  }

  void removeFront(std::deque<T> &Q) {
    Q.pop_front();
    --Total;
  }

  template <typename Pred> std::vector<T> extract(Pred Match) {
    std::vector<T> Matched;
    for (auto &[Priority, Class] : Classes) {
      for (auto It = Class.Tenants.begin();
           It != Class.Tenants.end();) {
        std::deque<T> &Q = It->second;
        for (auto QIt = Q.begin(); QIt != Q.end();) {
          if (Match(static_cast<const T &>(*QIt))) {
            --Total;
            Matched.push_back(std::move(*QIt));
            QIt = Q.erase(QIt);
          } else {
            ++QIt;
          }
        }
        if (Q.empty())
          It = Class.Tenants.erase(It);
        else
          ++It;
      }
    }
    std::sort(Matched.begin(), Matched.end(),
              [](const T &A, const T &B) {
                return Traits::seq(A) < Traits::seq(B);
              });
    return Matched;
  }

  /// Priority classes, highest first.
  std::map<int, ClassState, std::greater<int>> Classes;
  std::map<std::string, uint64_t> Weights;
  size_t Total = 0;
};

} // namespace serve
} // namespace parrec

#endif // PARREC_SERVE_FAIRQUEUE_H
