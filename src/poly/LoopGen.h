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
#include <optional>
#include <string>
#include <vector>

namespace parrec {
namespace poly {

/// Precomputed per-scan state for LoopNest::forEachPointForThread: the
/// reusable Env scratch vector plus the time range and striped level,
/// which depend only on the nest and the parameter values — not on the
/// partition or thread — and were historically re-derived (and the Env
/// heap-allocated) for every (partition x thread) pair of a scan. Build
/// one with LoopNest::makeScanContext and reuse it across the whole
/// scan; each host worker of a parallel scan owns its own context.
struct ScanContext {
  std::vector<int64_t> Env;
  std::optional<std::pair<int64_t, int64_t>> Range;
  std::optional<unsigned> StripedLevel;
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

  /// Builds the reusable scan state for \p ParamValues: sized Env
  /// scratch, memoised time range and striped level. One context serves
  /// any number of forEachPointForThread calls over the same parameters.
  ScanContext makeScanContext(const std::vector<int64_t> &ParamValues) const;

  /// Like forEachPoint but enumerates only the slice assigned to
  /// \p ThreadId when the outermost space loop is striped across
  /// \p NumThreads threads (the conversion of Figure 10). When the nest
  /// has no space loop, thread 0 receives every point.
  ///
  /// The ScanContext template is the real implementation: hot paths
  /// reuse a precomputed context and a concrete callable, paying neither
  /// a heap allocation nor a bounds re-derivation nor a type-erased call
  /// per (partition x thread). \p Ctx must come from makeScanContext on
  /// this nest; its Env is scratch, mutated during the walk.
  template <typename BodyT>
  void forEachPointForThread(ScanContext &Ctx, int64_t TimeStep,
                             unsigned ThreadId, unsigned NumThreads,
                             const BodyT &Body) const {
    assert(NumThreads > 0 && ThreadId < NumThreads && "bad thread mapping");
    assert(Ctx.Env.size() == NestDimNames.size() && "foreign scan context");
    // Confirm TimeStep lies within the partition range; Figure 8's
    // template iterates the range, so out-of-range steps simply contain
    // no work.
    if (!Ctx.Range || TimeStep < Ctx.Range->first ||
        TimeStep > Ctx.Range->second)
      return;
    Ctx.Env[NumParams] = TimeStep;

    std::optional<unsigned> Striped;
    if (NumThreads > 1) {
      Striped = Ctx.StripedLevel;
      if (!Striped && ThreadId != 0)
        return; // No space loop: all the work belongs to thread 0.
    }
    walk(Ctx.Env, 1, Striped, ThreadId, NumThreads, Body);
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
  /// Evaluates the max of the ceil-divided lower bounds at \p Env;
  /// nullopt when there is no lower bound (unbounded).
  static std::optional<int64_t> evalLower(const LoopLevel &Level,
                                          const std::vector<int64_t> &Env) {
    std::optional<int64_t> Best;
    for (const LoopBound &B : Level.Lower) {
      int64_t V = ceilDiv(B.Numerator.evaluate(Env), B.Divisor);
      if (!Best || V > *Best)
        Best = V;
    }
    return Best;
  }

  static std::optional<int64_t> evalUpper(const LoopLevel &Level,
                                          const std::vector<int64_t> &Env) {
    std::optional<int64_t> Best;
    for (const LoopBound &B : Level.Upper) {
      int64_t V = floorDiv(B.Numerator.evaluate(Env), B.Divisor);
      if (!Best || V < *Best)
        Best = V;
    }
    return Best;
  }

  template <typename BodyT>
  void walk(std::vector<int64_t> &Env, unsigned Level,
            std::optional<unsigned> StripedLevel, unsigned ThreadId,
            unsigned NumThreads, const BodyT &Body) const {
    if (Level == Levels.size()) {
      Body(Env.data() + NumParams + 1); // x values follow params and t.
      return;
    }
    const LoopLevel &L = Levels[Level];
    unsigned EnvIndex = NumParams + Level;
    if (L.isFixed()) {
      int64_t Num = L.FixedNumerator->evaluate(Env);
      if (Num % L.FixedDivisor != 0)
        return; // Divisibility guard: no integer point here.
      Env[EnvIndex] = Num / L.FixedDivisor;
      walk(Env, Level + 1, StripedLevel, ThreadId, NumThreads, Body);
      return;
    }
    std::optional<int64_t> Lo = evalLower(L, Env);
    std::optional<int64_t> Hi = evalUpper(L, Env);
    assert(Lo && Hi && "generated loops must be bounded");
    int64_t Start = *Lo;
    int64_t Step = 1;
    if (StripedLevel && Level == *StripedLevel) {
      Start += ThreadId;
      Step = NumThreads;
    }
    for (int64_t V = Start; V <= *Hi; V += Step) {
      Env[EnvIndex] = V;
      walk(Env, Level + 1, StripedLevel, ThreadId, NumThreads, Body);
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
