//===- LoopGen.h - Polyhedral loop-nest generation ----------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CLooG-style code generation (Section 4.3): given a recursion's domain
/// polyhedron and an affine scheduling (scattering) function, produce a
/// loop nest whose outer loop runs over partition time-steps and whose
/// inner loops enumerate the elements of each partition — Figure 9 of the
/// paper — plus the thread-partitioned conversion of Figure 10.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_POLY_LOOPGEN_H
#define PARREC_POLY_LOOPGEN_H

#include "poly/Polyhedron.h"

#include <cassert>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace parrec {
namespace poly {

/// Per-scan state for LoopNest's walker: the Env scratch vector, the
/// time range, the striped level, and every level's bounds with the
/// parameters folded into their constants. All of it depends only on
/// the nest and the parameter values, not on the partition or thread.
/// Build one with LoopNest::makeScanContext and reuse it across the
/// whole scan; each host worker of a parallel scan owns its own context.
struct ScanContext {
  /// Constant + sum of Coefficient * Env[Index] over the partition and
  /// space variables, then divided by Divisor (> 0).
  struct Form {
    int64_t Constant = 0;
    int64_t Divisor = 1;
    std::vector<std::pair<unsigned, int64_t>> Terms; // (Index, Coefficient)

    int64_t numerator(const int64_t *Env) const {
      int64_t Sum = Constant;
      for (const auto &[Index, Coefficient] : Terms)
        Sum += Coefficient * Env[Index];
      return Sum;
    }
  };
  /// One LoopLevel: Fixed for a fixed level, else Lower and Upper.
  struct Level {
    std::optional<Form> Fixed;
    std::vector<Form> Lower;
    std::vector<Form> Upper;
  };

  std::vector<int64_t> Env;
  std::optional<std::pair<int64_t, int64_t>> Range;
  std::optional<unsigned> StripedLevel;
  std::vector<Level> Levels; // Parallel to LoopNest::Levels.
};

/// One affine bound "value (>=|<=) ceil|floor(Numerator / Divisor)" where
/// Numerator only mentions parameters and outer loop variables.
struct LoopBound {
  AffineExpr Numerator; // Over the full nest dimension space.
  int64_t Divisor = 1;  // Always positive.
};

/// One level of the generated nest: either a genuine loop with max-of-
/// lower / min-of-upper bounds, or a variable fixed by an equality of the
/// scattered polyhedron (e.g. the reconstructed x1 = p - x0 of Figure 9).
struct LoopLevel {
  std::string Name;

  /// Loop form: iterate from max(Lower) to min(Upper).
  std::vector<LoopBound> Lower;
  std::vector<LoopBound> Upper;

  /// Fixed form: value = FixedNumerator / FixedDivisor; iterations where
  /// the division is inexact are skipped (divisibility guard).
  std::optional<AffineExpr> FixedNumerator;
  int64_t FixedDivisor = 1;

  bool isFixed() const { return FixedNumerator.has_value(); }
};

/// A generated loop nest over dimensions
/// [parameters..., t (time/partition), x0..xn-1 (original recursion dims)].
///
/// The nest can be executed directly (the simulator interprets it) and can
/// be pretty-printed as C (see CPrinter.h), reproducing Figures 9 and 10.
class LoopNest {
public:
  unsigned NumParams = 0;
  unsigned NumRecursionDims = 0;
  std::vector<std::string> NestDimNames; // params, t, x dims.
  std::vector<LoopLevel> Levels;         // Size 1 + NumRecursionDims.

  /// Index (into Levels) of the outermost non-fixed *space* loop, the one
  /// Figure 10 stripes across threads. Level 0 is the time loop, so this
  /// is >= 1 when present.
  std::optional<unsigned> threadedLevel() const;

  /// Inclusive time-step range for the given parameter values; nullopt if
  /// the domain is empty.
  std::optional<std::pair<int64_t, int64_t>>
  timeRange(const std::vector<int64_t> &ParamValues) const;

  /// Invokes \p Body with each recursion-space point (x0..xn-1) of
  /// partition \p TimeStep, in lexicographic nest order.
  void forEachPoint(const std::vector<int64_t> &ParamValues, int64_t TimeStep,
                    const std::function<void(const int64_t *)> &Body) const;

  /// Builds the reusable scan state for \p ParamValues. One context
  /// serves any number of walks over the same parameters.
  ScanContext makeScanContext(const std::vector<int64_t> &ParamValues) const;

  /// The walker: invokes \p Body(T, Point) with each point of partition
  /// \p TimeStep owned by simulated threads [\p Begin, \p End) when the
  /// outermost space loop is striped across \p NumThreads threads (the
  /// conversion of Figure 10), thread by thread and, within a thread, in
  /// nest order. When the nest has no space loop, thread 0 receives
  /// every point.
  ///
  /// The levels above the striped one are fixed by the partition, and
  /// the striped level's bounds do not depend on the thread, so both are
  /// derived once per call rather than once per thread. \p Ctx must come
  /// from makeScanContext on this nest; its Env is scratch, mutated
  /// during the walk.
  template <typename BodyT>
  void forEachPointForThreads(ScanContext &Ctx, int64_t TimeStep,
                              unsigned Begin, unsigned End,
                              unsigned NumThreads, const BodyT &Body) const {
    assert(Begin <= End && End <= NumThreads && "bad thread mapping");
    assert(Ctx.Env.size() == NestDimNames.size() && "foreign scan context");
    // Figure 8's template iterates the partition range, so out-of-range
    // steps simply contain no work.
    if (Begin == End || !Ctx.Range || TimeStep < Ctx.Range->first ||
        TimeStep > Ctx.Range->second)
      return;
    int64_t *Env = Ctx.Env.data();
    Env[NumParams] = TimeStep;
    unsigned Striped = Ctx.StripedLevel ? *Ctx.StripedLevel
                                        : static_cast<unsigned>(Levels.size());
    for (unsigned L = 1; L != Striped; ++L)
      if (!fix(Ctx, L))
        return; // Divisibility guard: no integer point here.
    if (!Ctx.StripedLevel) {
      if (Begin == 0)
        Body(0u, Env + NumParams + 1);
      return;
    }
    int64_t Lo, Hi;
    bounds(Ctx, Striped, Lo, Hi);
    for (unsigned T = Begin; T != End; ++T)
      for (int64_t V = Lo + T; V <= Hi; V += NumThreads) {
        Env[NumParams + Striped] = V;
        walk(Ctx, Striped + 1, T, Body);
      }
  }

  /// Like forEachPointForThreads for the one thread \p ThreadId.
  template <typename BodyT>
  void forEachPointForThread(ScanContext &Ctx, int64_t TimeStep,
                             unsigned ThreadId, unsigned NumThreads,
                             const BodyT &Body) const {
    forEachPointForThreads(
        Ctx, TimeStep, ThreadId, ThreadId + 1, NumThreads,
        [&](unsigned, const int64_t *Point) { Body(Point); });
  }

  /// Convenience overload building a throwaway context per call.
  template <typename BodyT>
  void forEachPointForThread(const std::vector<int64_t> &ParamValues,
                             int64_t TimeStep, unsigned ThreadId,
                             unsigned NumThreads, const BodyT &Body) const {
    ScanContext Ctx = makeScanContext(ParamValues);
    forEachPointForThread(Ctx, TimeStep, ThreadId, NumThreads, Body);
  }

  void forEachPointForThread(
      const std::vector<int64_t> &ParamValues, int64_t TimeStep,
      unsigned ThreadId, unsigned NumThreads,
      const std::function<void(const int64_t *)> &Body) const;

  /// Number of points in partition \p TimeStep.
  uint64_t countPoints(const std::vector<int64_t> &ParamValues,
                       int64_t TimeStep) const;

private:
  /// Sets fixed level \p L's variable; false when its division is
  /// inexact. A divisor of 1 divides nothing.
  bool fix(ScanContext &Ctx, unsigned L) const {
    const ScanContext::Form &F = *Ctx.Levels[L].Fixed;
    int64_t Num = F.numerator(Ctx.Env.data());
    if (F.Divisor != 1) {
      if (Num % F.Divisor != 0)
        return false;
      Num /= F.Divisor;
    }
    Ctx.Env[NumParams + L] = Num;
    return true;
  }

  /// Loop level \p L's range: the max of the ceil-divided lower bounds
  /// and the min of the floor-divided upper bounds.
  static void bounds(const ScanContext &Ctx, unsigned L, int64_t &Lo,
                     int64_t &Hi) {
    const ScanContext::Level &Level = Ctx.Levels[L];
    assert(!Level.Lower.empty() && !Level.Upper.empty() &&
           "generated loops must be bounded");
    const int64_t *Env = Ctx.Env.data();
    Lo = std::numeric_limits<int64_t>::min();
    for (const ScanContext::Form &B : Level.Lower) {
      int64_t V = B.numerator(Env);
      if (B.Divisor != 1)
        V = ceilDiv(V, B.Divisor);
      Lo = V > Lo ? V : Lo;
    }
    Hi = std::numeric_limits<int64_t>::max();
    for (const ScanContext::Form &B : Level.Upper) {
      int64_t V = B.numerator(Env);
      if (B.Divisor != 1)
        V = floorDiv(V, B.Divisor);
      Hi = V < Hi ? V : Hi;
    }
  }

  /// Walks the levels from \p L inwards for simulated thread \p T.
  template <typename BodyT>
  void walk(ScanContext &Ctx, unsigned L, unsigned T,
            const BodyT &Body) const {
    if (L == Levels.size()) {
      Body(T, Ctx.Env.data() + NumParams + 1);
      return;
    }
    if (Ctx.Levels[L].Fixed) {
      if (fix(Ctx, L))
        walk(Ctx, L + 1, T, Body);
      return;
    }
    int64_t Lo, Hi;
    bounds(Ctx, L, Lo, Hi);
    for (int64_t V = Lo; V <= Hi; ++V) {
      Ctx.Env[NumParams + L] = V;
      walk(Ctx, L + 1, T, Body);
    }
  }
};

/// Builds the loop nest for \p Domain scanned under schedule \p Schedule.
///
/// \p Domain ranges over [params..., x0..xn-1] with \p NumParams leading
/// parameter dimensions. \p Schedule is an affine expression over the same
/// dimension space (its parameter coefficients are usually zero). The
/// generated nest scans, for each value of t = Schedule(x), exactly the
/// integer points of the domain in that partition.
LoopNest generateLoops(const Polyhedron &Domain, unsigned NumParams,
                       const AffineExpr &Schedule,
                       const std::string &TimeName = "p");

/// A recursion's one loop nest, as the paper builds it (Section 4.3):
/// 0 <= x_d <= <dim>_n - 1 scanned under the coefficients \p Schedule,
/// with the extents <dim>_n as parameters, so it serves every box.
LoopNest generateBoxLoops(const std::vector<std::string> &DimNames,
                          const std::vector<int64_t> &Schedule);

} // namespace poly
} // namespace parrec

#endif // PARREC_POLY_LOOPGEN_H
