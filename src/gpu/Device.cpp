//===- Device.cpp - CUDA-like execution model simulator ---------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "gpu/Device.h"

#include <algorithm>
#include <cstdio>
#include <queue>

using namespace parrec;
using namespace parrec::gpu;

GpuRunMetrics &GpuRunMetrics::operator+=(const GpuRunMetrics &Other) {
  Cycles += Other.Cycles;
  Partitions += Other.Partitions;
  CellsComputed += Other.CellsComputed;
  SharedAccesses += Other.SharedAccesses;
  GlobalAccesses += Other.GlobalAccesses;
  TableBytes = std::max(TableBytes, Other.TableBytes);
  BarrierCycles += Other.BarrierCycles;
  ThreadCycles += Other.ThreadCycles;
  CriticalCycles += Other.CriticalCycles;
  Threads = std::max(Threads, Other.Threads);
  return *this;
}

std::string GpuRunMetrics::str(const CostModel &Model) const {
  std::string Out;
  Out += "cycles=" + std::to_string(Cycles);
  Out += " partitions=" + std::to_string(Partitions);
  Out += " cells=" + std::to_string(CellsComputed);
  Out += " shared=" + std::to_string(SharedAccesses);
  Out += " global=" + std::to_string(GlobalAccesses);
  Out += " table_bytes=" + std::to_string(TableBytes);
  Out += " barrier_cycles=" + std::to_string(BarrierCycles);
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.4f", occupancy());
  Out += " occupancy=";
  Out += Buf;
  Out += " seconds=" + std::to_string(seconds(Model));
  return Out;
}

uint64_t BlockTimer::closePartition(uint64_t SyncCycles,
                                    int64_t Partition, uint64_t Cells) {
  uint64_t Longest = 0;
  uint64_t Sum = 0;
  unsigned Active = 0;
  for (uint64_t &C : ThreadCycles) {
    Longest = std::max(Longest, C);
    Sum += C;
    Active += C != 0;
    C = 0;
  }
  uint64_t Advance = Longest + SyncCycles;
  Total += Advance;
  Barrier += SyncCycles;
  WorkSum += Sum;
  if (Recording) {
    PartitionSample S;
    S.Partition = Partition;
    S.Cells = Cells;
    S.MaxThreadCycles = Longest;
    S.SumThreadCycles = Sum;
    S.BarrierCycles = SyncCycles;
    S.ActiveThreads = Active;
    S.Threads = numThreads();
    Timeline.push_back(S);
  }
  return Advance;
}

uint64_t
Device::dispatchProblems(const std::vector<uint64_t> &ProblemCycles) const {
  if (ProblemCycles.empty())
    return 0;
  // Longest-processing-time greedy onto a min-heap of multiprocessor
  // loads: a standard, near-optimal makespan heuristic.
  std::vector<uint64_t> Sorted = ProblemCycles;
  std::sort(Sorted.begin(), Sorted.end(), std::greater<uint64_t>());
  std::priority_queue<uint64_t, std::vector<uint64_t>,
                      std::greater<uint64_t>>
      Loads;
  for (unsigned I = 0; I != Model.NumMultiprocessors; ++I)
    Loads.push(0);
  for (uint64_t Cycles : Sorted) {
    uint64_t Load = Loads.top();
    Loads.pop();
    Loads.push(Load + Cycles);
  }
  uint64_t Makespan = 0;
  while (!Loads.empty()) {
    Makespan = std::max(Makespan, Loads.top());
    Loads.pop();
  }
  return Makespan + Model.KernelLaunchCycles;
}

uint64_t
Device::interTaskCycles(const std::vector<uint64_t> &TaskCycles) const {
  if (TaskCycles.empty())
    return 0;
  unsigned Lanes = Model.totalGpuLanes();
  uint64_t Total = 0;
  for (size_t Begin = 0; Begin < TaskCycles.size(); Begin += Lanes) {
    size_t End = std::min(TaskCycles.size(),
                          Begin + static_cast<size_t>(Lanes));
    uint64_t RoundMax = 0;
    for (size_t I = Begin; I != End; ++I)
      RoundMax = std::max(RoundMax, TaskCycles[I]);
    Total += RoundMax;
  }
  return Total + Model.KernelLaunchCycles;
}
