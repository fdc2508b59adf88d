//===- ParallelFor.cpp - Deterministic host-side fan-out --------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "exec/ParallelFor.h"

#include <exception>
#include <thread>
#include <vector>

using namespace parrec;
using namespace parrec::exec;

unsigned exec::hostWorkerBudget() {
  unsigned Budget = std::thread::hardware_concurrency();
  return Budget ? Budget : 1;
}

unsigned exec::resolveWorkerCount(unsigned Requested, size_t Jobs) {
  unsigned Workers = Requested ? Requested : hostWorkerBudget();
  if (Jobs < Workers)
    Workers = static_cast<unsigned>(Jobs ? Jobs : 1);
  return Workers;
}

//===----------------------------------------------------------------------===//
// forkJoin
//===----------------------------------------------------------------------===//

void exec::forkJoin(unsigned Workers,
                    const std::function<void(unsigned)> &Task) {
  if (Workers <= 1) {
    Task(0);
    return;
  }
  std::mutex ErrorMutex;
  std::exception_ptr FirstError;
  auto Run = [&](unsigned Worker) {
    try {
      Task(Worker);
    } catch (...) {
      std::lock_guard<std::mutex> Lock(ErrorMutex);
      if (!FirstError)
        FirstError = std::current_exception();
    }
  };
  std::vector<std::thread> Threads;
  Threads.reserve(Workers - 1);
  for (unsigned W = 1; W != Workers; ++W)
    Threads.emplace_back(Run, W);
  Run(0);
  for (std::thread &T : Threads)
    T.join();
  if (FirstError)
    std::rethrow_exception(FirstError);
}

//===----------------------------------------------------------------------===//
// SpinBarrier
//===----------------------------------------------------------------------===//

void SpinBarrier::arriveAndWait() {
  uint64_t MyPhase = Phase.load(std::memory_order_acquire);
  if (Arrived.fetch_add(1, std::memory_order_acq_rel) + 1 == Count) {
    // Last arrival: open the next phase. Publishing under the mutex
    // serialises against waiters registering on the sleep path, so a
    // waiter either sees the new phase before sleeping or is woken.
    Arrived.store(0, std::memory_order_relaxed);
    bool Notify;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Phase.store(MyPhase + 1, std::memory_order_release);
      Notify = Sleepers != 0;
    }
    if (Notify)
      SleepCv.notify_all();
    return;
  }
  // Tight spin first: partitions are typically microseconds apart, so
  // the release usually lands within a few hundred loads.
  for (int I = 0; I != 1024; ++I)
    if (Phase.load(std::memory_order_acquire) != MyPhase)
      return;
  // Yield next: on an oversubscribed host the releasing worker needs
  // this core to make progress at all.
  for (int I = 0; I != 64; ++I) {
    std::this_thread::yield();
    if (Phase.load(std::memory_order_acquire) != MyPhase)
      return;
  }
  // Still waiting: sleep until the phase opens.
  std::unique_lock<std::mutex> Lock(Mutex);
  ++Sleepers;
  SleepCv.wait(Lock, [&] {
    return Phase.load(std::memory_order_acquire) != MyPhase;
  });
  --Sleepers;
}

//===----------------------------------------------------------------------===//
// parallelFor
//===----------------------------------------------------------------------===//

void exec::parallelFor(unsigned Workers, size_t Jobs,
                       const std::function<void(size_t)> &Body) {
  Workers = resolveWorkerCount(Workers ? Workers : 1, Jobs);
  std::atomic<size_t> Next{0};
  forkJoin(Workers, [&](unsigned) {
    for (size_t I = Next++; I < Jobs; I = Next++)
      Body(I);
  });
}
