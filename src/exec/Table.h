//===- Table.h - Dynamic-programming tables -----------------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Storage for tabulated recursion results: a dense full table, and the
/// sliding-window table of Section 4.8 that keeps only the last w+1
/// partitions alive — the memory reduction that lets intermediate values
/// live in a GPU's shared memory.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_EXEC_TABLE_H
#define PARREC_EXEC_TABLE_H

#include "codegen/Evaluator.h"
#include "solver/Recurrence.h"

#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

namespace parrec {
namespace exec {

/// Whether a sliding window over \p S may drop dimension \p D (a unit
/// coefficient); pickWindowDropDim and the JIT's kernels both ask this.
inline bool windowMayDrop(const solver::Schedule &S, unsigned D) {
  return S.Coefficients[D] == 1 || S.Coefficients[D] == -1;
}

/// A table's slot addressing, as a jitted kernel reads it from JitArgs:
/// point x lives at slot sum_d Strides[d] * x_d - BaseIndex (unsigned,
/// modulo 2^64) of a full table, and a sliding window adds PlaneSize
/// times the ring plane of partition S(x) - MinPartition. The last
/// dimension a table keeps has stride 1, which kernels bake.
struct TableLayout {
  std::vector<uint64_t> Strides; // 0 for a window's dropped dimension.
  uint64_t BaseIndex = 0;
  uint64_t PlaneSize = 0;
  int64_t MinPartition = 0;
};

/// Writable extension of the evaluator's read view.
///
/// Disjoint-write invariant (what makes the wavefront-parallel scan
/// lock-free): within one partition of an affine schedule, every cell is
/// written exactly once and no cell of the partition is read — cells of
/// one partition are independent by the schedule's legality (Sections
/// 4.2–4.3). A full table maps distinct points to distinct slots
/// trivially (and asserts each slot is written once). A sliding window
/// reuses slots, but never *within* a partition: two points sharing a
/// slot differ only in the dropped dimension, whose schedule coefficient
/// is ±1, so their partitions differ — and cross-partition reuse is
/// separated by the barrier that closes each partition. Concurrent
/// workers scanning one partition therefore touch disjoint table
/// addresses, and reads only ever target planes no writer touches.
///
/// A table may hold the tables of several problems of one plan, the
/// lanes of a jitted lanes scan (NativeJit.h), interleaved slot by slot:
/// slot s of lane l is element s * Lanes + l of rawData(). get and set
/// address a one-lane table.
class DpTable : public codegen::TableView {
public:
  virtual void set(const int64_t *Point, double Value) = 0;
  /// The bytes of one problem's table, whatever the lane count: what a
  /// simulated block would hold.
  uint64_t bytes() const { return Slots * sizeof(double); }

  /// Base pointer of the flat value storage, for jitted kernels that
  /// address it through layout() (the same flatten/slot math as
  /// get/set). Raw writes bypass the debug-build write-once poisoning of
  /// FullTable; the generated nest preserves the invariant by
  /// construction (it visits each point exactly once).
  virtual double *rawData() = 0;
  const TableLayout &layout() const { return Layout; }

protected:
  TableLayout Layout;
  uint64_t Slots = 0; // Per lane.
};

/// Dense row-major storage over the whole domain box. A cell not yet
/// written holds UnwrittenBits, a quiet NaN whose payload no evaluator
/// computes (x86-64 arithmetic yields the default NaN or passes an
/// operand's payload on), so a cell that holds a computed NaN reads as
/// written.
class FullTable final : public DpTable {
public:
  explicit FullTable(const solver::DomainBox &Box, unsigned Lanes = 1)
      : Box(Box) {
    Layout.Strides.resize(Box.numDims());
    uint64_t Stride = 1;
    for (unsigned D = Box.numDims(); D-- > 0;) {
      Layout.Strides[D] = Stride;
      Layout.BaseIndex += static_cast<uint64_t>(Box.Lower[D]) * Stride;
      Stride *= static_cast<uint64_t>(Box.extent(D));
    }
    Slots = Stride;
    Data.assign(Stride * Lanes, std::bit_cast<double>(UnwrittenBits));
  }

  double get(const int64_t *Point) const override {
    double V = Data[flatten(Point)];
    assert(std::bit_cast<uint64_t>(V) != UnwrittenBits &&
           "read of an uncomputed cell: the schedule violated a dependency");
    return V;
  }
  void set(const int64_t *Point, double Value) override {
    double &Slot = Data[flatten(Point)];
    assert(std::bit_cast<uint64_t>(Slot) == UnwrittenBits &&
           "cell written twice: the schedule placed two scan points on one "
           "table slot");
    Slot = Value;
  }
  double *rawData() override { return Data.data(); }

private:
  static constexpr uint64_t UnwrittenBits = 0x7ff8000000000001ULL;

  solver::DomainBox Box;
  std::vector<double> Data;

  uint64_t flatten(const int64_t *Point) const {
    uint64_t Index = 0;
    for (unsigned D = 0; D != Box.numDims(); ++D) {
      assert(Point[D] >= Box.Lower[D] && Point[D] <= Box.Upper[D] &&
             "point outside the domain box");
      Index += static_cast<uint64_t>(Point[D] - Box.Lower[D]) *
               Layout.Strides[D];
    }
    return Index;
  }
};

/// Ring buffer of the last Window+1 partitions (Section 4.8).
///
/// One dimension with |schedule coefficient| == 1 is dropped from the
/// plane addressing: within a partition, a point is uniquely identified
/// by its remaining coordinates (two points differing only in the dropped
/// dimension lie in different partitions, since the coefficient is ±1).
class SlidingWindowTable final : public DpTable {
public:
  /// \p DropDim must satisfy |Schedule.Coefficients[DropDim]| == 1.
  SlidingWindowTable(const solver::DomainBox &Box,
                     const solver::Schedule &S, int64_t Window,
                     unsigned DropDim, unsigned Lanes = 1)
      : NumPlanes(static_cast<uint64_t>(Window) + 1) {
    assert(windowMayDrop(S, DropDim) &&
           "dropped dimension must have a unit schedule coefficient");
    Layout.MinPartition = S.minOver(Box);
    Layout.Strides.assign(Box.numDims(), 0);
    // Fuse per-dimension addressing state into one contiguous array so
    // slot() walks a single cache line instead of chasing three vectors.
    Addr.resize(Box.numDims());
    uint64_t Stride = 1;
    for (unsigned D = Box.numDims(); D-- > 0;) {
      Addr[D].Coeff = S.Coefficients[D];
      if (D == DropDim)
        continue;
      Addr[D].Stride = Layout.Strides[D] = Stride;
      Layout.BaseIndex += static_cast<uint64_t>(Box.Lower[D]) * Stride;
      Stride *= static_cast<uint64_t>(Box.extent(D));
    }
    Layout.PlaneSize = Stride;
    // The partition offset fits 32 bits for any table that fits in
    // memory, so the ring lookup can use an exact multiply-based modulus
    // (Lemire's fastmod) instead of a hardware divide on every access.
    assert(S.maxOver(Box) - Layout.MinPartition >= 0 &&
           static_cast<uint64_t>(S.maxOver(Box) - Layout.MinPartition) <=
               std::numeric_limits<uint32_t>::max() &&
           "partition range exceeds 32 bits");
    ModMagic = std::numeric_limits<uint64_t>::max() / NumPlanes + 1;
    Slots = NumPlanes * Stride;
    Data.assign(Slots * Lanes, 0.0);
  }

  double get(const int64_t *Point) const override {
    return Data[slot(Point)];
  }
  void set(const int64_t *Point, double Value) override {
    Data[slot(Point)] = Value;
  }
  double *rawData() override { return Data.data(); }

private:
  struct DimAddr {
    int64_t Coeff = 0;   // Schedule coefficient (partition term).
    uint64_t Stride = 0; // Plane stride; 0 for the dropped dimension.
  };

  uint64_t NumPlanes;
  uint64_t ModMagic = 0;
  std::vector<DimAddr> Addr;
  std::vector<double> Data;

  uint64_t slot(const int64_t *Point) const {
    const DimAddr *A = Addr.data();
    unsigned N = static_cast<unsigned>(Addr.size());
    int64_t Partition = 0;
    uint64_t Index = 0;
    for (unsigned D = 0; D != N; ++D) {
      Partition += A[D].Coeff * Point[D];
      Index += A[D].Stride * static_cast<uint64_t>(Point[D]);
    }
    // Exact X % NumPlanes for 32-bit X via the precomputed reciprocal.
    uint64_t X = static_cast<uint64_t>(Partition - Layout.MinPartition);
    assert(X <= std::numeric_limits<uint32_t>::max() &&
           "partition offset exceeds 32 bits");
    uint64_t Plane = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(ModMagic * X) * NumPlanes) >> 64);
    return Plane * Layout.PlaneSize + (Index - Layout.BaseIndex);
  }
};

/// Picks the dimension a sliding-window table should drop: among the ones
/// it may drop, the one with the largest extent minimises the window's
/// footprint. Returns -1 when it may drop none (the window optimisation
/// then falls back to full tabulation).
inline int pickWindowDropDim(const solver::Schedule &S,
                             const solver::DomainBox &Box) {
  int Best = -1;
  int64_t BestExtent = 0;
  for (unsigned D = 0; D != S.numDims(); ++D) {
    if (!windowMayDrop(S, D))
      continue;
    if (Box.extent(D) > BestExtent) {
      Best = static_cast<int>(D);
      BestExtent = Box.extent(D);
    }
  }
  return Best;
}

} // namespace exec
} // namespace parrec

#endif // PARREC_EXEC_TABLE_H
