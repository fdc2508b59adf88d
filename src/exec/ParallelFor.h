//===- ParallelFor.h - Deterministic host-side fan-out ------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host-side threading primitives for work that is independent by
/// construction: forkJoin, which runs one task per worker on threads
/// started for that call, a SpinBarrier for the per-partition rendezvous
/// of the wavefront scan, and the parallelFor fan-out used by batch
/// execution. Workers claim indices from one counter, in index order,
/// and each index writes its own output slot, so results are
/// deterministic and identical for any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_EXEC_PARALLELFOR_H
#define PARREC_EXEC_PARALLELFOR_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>

namespace parrec {
namespace exec {

/// The host's total worker budget: one worker per hardware thread, at
/// least 1. Both fan-out axes (problems in a batch, simulated threads in
/// a scan) resolve their "auto" worker counts against this single number
/// so their composition never oversubscribes the machine.
unsigned hostWorkerBudget();

/// Resolves a requested worker count: 0 means the host worker budget,
/// and the result never exceeds \p Jobs (nor drops below 1).
unsigned resolveWorkerCount(unsigned Requested, size_t Jobs);

/// Invokes Task(W) for every worker index W in [0, Workers): W == 0 on
/// the calling thread, the others on Workers - 1 threads started for
/// this call. Returns once every task has finished and its thread is
/// joined; the first exception thrown by any task is rethrown here.
/// Workers <= 1 is a plain call of Task(0). The scan forks once per
/// execution, not once per partition, and a batch once per batch.
void forkJoin(unsigned Workers, const std::function<void(unsigned)> &Task);

/// A reusable rendezvous for a fixed set of participants. arriveAndWait
/// blocks until all \p Count participants arrive, then releases them and
/// resets for the next phase. Late arrivals spin briefly (the scan's
/// partitions are microseconds apart), then yield, then sleep on a
/// condition variable — so an oversubscribed or single-core host
/// degrades to scheduler-paced progress instead of burning cycles.
///
/// The barrier is a full memory fence between phases: every write made
/// before an arriveAndWait is visible to every participant after the
/// matching release.
class SpinBarrier {
public:
  explicit SpinBarrier(unsigned Count) : Count(Count) {}

  SpinBarrier(const SpinBarrier &) = delete;
  SpinBarrier &operator=(const SpinBarrier &) = delete;

  void arriveAndWait();

private:
  const unsigned Count;
  std::atomic<unsigned> Arrived{0};
  std::atomic<uint64_t> Phase{0};
  std::mutex Mutex;             // Guards the sleep path only.
  std::condition_variable SleepCv;
  unsigned Sleepers = 0;        // Guarded by Mutex.
};

/// Invokes Body(I) for every I in [0, Jobs) on \p Workers host threads,
/// the calling thread among them. Each worker claims the lowest index
/// not yet claimed until none is left, so no worker idles while indices
/// remain, whatever each Body costs. Runs inline when Workers <= 1. The
/// first exception thrown by any Body is rethrown on the calling thread
/// after all workers join.
void parallelFor(unsigned Workers, size_t Jobs,
                 const std::function<void(size_t)> &Body);

} // namespace exec
} // namespace parrec

#endif // PARREC_EXEC_PARALLELFOR_H
