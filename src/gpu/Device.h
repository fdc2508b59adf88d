//===- Device.h - CUDA-like execution model simulator -------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simulator of the paper's target execution model (Section 1.1): a
/// device made of independent multiprocessors, each running a block of
/// threads in lockstep with barrier synchronisation between partitions
/// and no global synchronisation. The simulator executes real work (the
/// caller's cell evaluations) and accounts cycles per the shared cost
/// model; results are therefore bit-identical to a serial run while
/// timing reflects the parallel structure.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_GPU_DEVICE_H
#define PARREC_GPU_DEVICE_H

#include "gpu/CostModel.h"

#include <cstdint>
#include <string>
#include <vector>

namespace parrec {
namespace gpu {

/// One partition's slice of a block's lockstep timeline (Figure 8's
/// template): how many cells it computed, how long its critical thread
/// ran, what the barrier cost, and how evenly the threads were loaded.
struct PartitionSample {
  /// The schedule time-step this partition executed.
  int64_t Partition = 0;
  uint64_t Cells = 0;
  /// Cycles of the slowest thread — the lockstep advance of the block
  /// (barrier excluded).
  uint64_t MaxThreadCycles = 0;
  /// Cycles summed over all threads (the useful work).
  uint64_t SumThreadCycles = 0;
  /// Barrier cost charged when the partition closed.
  uint64_t BarrierCycles = 0;
  /// Threads that computed at least one cell this partition.
  unsigned ActiveThreads = 0;
  /// Block width the sample was taken under.
  unsigned Threads = 0;

  /// Thread occupancy: mean thread cycles / max thread cycles. 1.0 means
  /// a perfectly balanced lockstep step; low values expose stall from
  /// load imbalance (short diagonals, uneven striping).
  double occupancy() const {
    if (!MaxThreadCycles || !Threads)
      return 1.0;
    return static_cast<double>(SumThreadCycles) /
           (static_cast<double>(Threads) *
            static_cast<double>(MaxThreadCycles));
  }

  friend bool operator==(const PartitionSample &,
                         const PartitionSample &) = default;
};

/// Metrics of one simulated GPU execution.
struct GpuRunMetrics {
  uint64_t Cycles = 0;
  uint64_t Partitions = 0;
  uint64_t CellsComputed = 0;
  uint64_t SharedAccesses = 0;
  uint64_t GlobalAccesses = 0;
  uint64_t TableBytes = 0;
  /// Barrier cycles charged across all partitions (included in Cycles).
  uint64_t BarrierCycles = 0;
  /// Work cycles summed over every thread and partition.
  uint64_t ThreadCycles = 0;
  /// Sum of per-partition critical-path (max-thread) cycles; equals
  /// Cycles - BarrierCycles.
  uint64_t CriticalCycles = 0;
  /// Block width (threads per block) of the run; max when aggregated.
  uint64_t Threads = 0;

  double seconds(const CostModel &Model) const {
    return Model.gpuSeconds(Cycles);
  }

  /// Aggregate thread occupancy: useful work / (block width x critical
  /// path). The lockstep stall fraction is 1 - occupancy().
  double occupancy() const {
    if (!CriticalCycles || !Threads)
      return 1.0;
    return static_cast<double>(ThreadCycles) /
           (static_cast<double>(Threads) *
            static_cast<double>(CriticalCycles));
  }

  GpuRunMetrics &operator+=(const GpuRunMetrics &Other);
  friend bool operator==(const GpuRunMetrics &,
                         const GpuRunMetrics &) = default;
  std::string str(const CostModel &Model) const;
};

/// Tracks the lockstep cost of one block executing one problem:
/// per-partition time is the maximum over its threads, a barrier closes
/// each partition (Figure 8's template). Always aggregates the occupancy
/// totals; with \p RecordTimeline it additionally keeps one
/// PartitionSample per closed partition.
class BlockTimer {
public:
  explicit BlockTimer(unsigned NumThreads, bool RecordTimeline = false)
      : ThreadCycles(NumThreads, 0), Recording(RecordTimeline) {}

  unsigned numThreads() const {
    return static_cast<unsigned>(ThreadCycles.size());
  }

  /// Charges \p Cycles to thread \p ThreadId within the open partition.
  void addThreadCycles(unsigned ThreadId, uint64_t Cycles) {
    ThreadCycles[ThreadId] += Cycles;
  }

  /// Ends the current partition: the block advances by the slowest
  /// thread's cycles plus the barrier cost. Returns that amount and
  /// resets the per-thread accumulators. \p Partition and \p Cells label
  /// the timeline sample when recording.
  uint64_t closePartition(uint64_t SyncCycles, int64_t Partition = 0,
                          uint64_t Cells = 0);

  uint64_t totalCycles() const { return Total; }
  /// Barrier cycles included in totalCycles().
  uint64_t barrierCycles() const { return Barrier; }
  /// Work cycles summed over all threads and partitions.
  uint64_t threadCycleSum() const { return WorkSum; }
  /// Sum of per-partition maxima (totalCycles() - barrierCycles()).
  uint64_t criticalCycles() const { return Total - Barrier; }

  bool recording() const { return Recording; }
  const std::vector<PartitionSample> &timeline() const { return Timeline; }
  std::vector<PartitionSample> takeTimeline() { return std::move(Timeline); }

private:
  std::vector<uint64_t> ThreadCycles;
  uint64_t Total = 0;
  uint64_t Barrier = 0;
  uint64_t WorkSum = 0;
  bool Recording = false;
  std::vector<PartitionSample> Timeline;
};

/// The device: dispatch policies for laying work onto multiprocessors.
class Device {
public:
  Device() = default;
  explicit Device(CostModel Model) : Model(std::move(Model)) {}

  const CostModel &costModel() const { return Model; }
  CostModel &costModel() { return Model; }

  /// Intra-task dispatch (Section 4.7): each problem occupies one
  /// multiprocessor; problems are placed greedily (longest first) onto
  /// the least-loaded multiprocessor. Returns the makespan in cycles,
  /// including one kernel launch per batch.
  uint64_t dispatchProblems(const std::vector<uint64_t> &ProblemCycles) const;

  /// Inter-task dispatch (one problem per thread, the CUDASW++/GPU-HMMER
  /// style): tasks are processed in submission order in rounds of
  /// totalGpuLanes(); lockstep makes each round cost its maximum task.
  uint64_t interTaskCycles(const std::vector<uint64_t> &TaskCycles) const;

private:
  CostModel Model;
};

} // namespace gpu
} // namespace parrec

#endif // PARREC_GPU_DEVICE_H
