//===- LoopGen.cpp - Polyhedral loop-nest generation -----------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "poly/LoopGen.h"

using namespace parrec;
using namespace parrec::poly;

namespace {

/// \p Numerator / \p Divisor with the parameters' terms folded into the
/// constant, for the walker.
ScanContext::Form foldParams(const AffineExpr &Numerator, int64_t Divisor,
                             const std::vector<int64_t> &ParamValues) {
  ScanContext::Form F;
  F.Constant = Numerator.constantTerm();
  F.Divisor = Divisor;
  for (unsigned I = 0, E = Numerator.numDims(); I != E; ++I) {
    int64_t C = Numerator.coefficient(I);
    if (C == 0)
      continue;
    if (I < ParamValues.size())
      F.Constant += C * ParamValues[I];
    else
      F.Terms.emplace_back(I, C);
  }
  return F;
}

} // namespace

std::optional<unsigned> LoopNest::threadedLevel() const {
  for (unsigned L = 1; L < Levels.size(); ++L)
    if (!Levels[L].isFixed())
      return L;
  return std::nullopt;
}

std::optional<std::pair<int64_t, int64_t>>
LoopNest::timeRange(const std::vector<int64_t> &ParamValues) const {
  return makeScanContext(ParamValues).Range;
}

ScanContext LoopNest::makeScanContext(
    const std::vector<int64_t> &ParamValues) const {
  assert(ParamValues.size() == NumParams && "wrong parameter count");
  ScanContext Ctx;
  Ctx.Env.assign(NestDimNames.size(), 0);
  for (unsigned I = 0; I != NumParams; ++I)
    Ctx.Env[I] = ParamValues[I];
  Ctx.StripedLevel = threadedLevel();
  Ctx.Levels.resize(Levels.size());
  for (unsigned L = 0; L < Levels.size(); ++L) {
    const LoopLevel &Level = Levels[L];
    ScanContext::Level &Scan = Ctx.Levels[L];
    if (Level.isFixed()) {
      Scan.Fixed = foldParams(*Level.FixedNumerator, Level.FixedDivisor,
                              ParamValues);
      continue;
    }
    for (const LoopBound &B : Level.Lower)
      Scan.Lower.push_back(foldParams(B.Numerator, B.Divisor, ParamValues));
    for (const LoopBound &B : Level.Upper)
      Scan.Upper.push_back(foldParams(B.Numerator, B.Divisor, ParamValues));
  }
  // The time level's bounds mention only the parameters; an empty or
  // unbounded range means an empty domain.
  const ScanContext::Level &Time = Ctx.Levels[0];
  if (Time.Fixed) {
    if (fix(Ctx, 0))
      Ctx.Range = std::make_pair(Ctx.Env[NumParams], Ctx.Env[NumParams]);
  } else if (!Time.Lower.empty() && !Time.Upper.empty()) {
    int64_t Lo, Hi;
    bounds(Ctx, 0, Lo, Hi);
    if (Lo <= Hi)
      Ctx.Range = std::make_pair(Lo, Hi);
  }
  return Ctx;
}

void LoopNest::forEachPoint(
    const std::vector<int64_t> &ParamValues, int64_t TimeStep,
    const std::function<void(const int64_t *)> &Body) const {
  forEachPointForThread(ParamValues, TimeStep, 0, 1, Body);
}

void LoopNest::forEachPointForThread(
    const std::vector<int64_t> &ParamValues, int64_t TimeStep,
    unsigned ThreadId, unsigned NumThreads,
    const std::function<void(const int64_t *)> &Body) const {
  forEachPointForThread<std::function<void(const int64_t *)>>(
      ParamValues, TimeStep, ThreadId, NumThreads, Body);
}

uint64_t LoopNest::countPoints(const std::vector<int64_t> &ParamValues,
                               int64_t TimeStep) const {
  uint64_t Count = 0;
  forEachPoint(ParamValues, TimeStep, [&](const int64_t *) { ++Count; });
  return Count;
}

LoopNest parrec::poly::generateLoops(const Polyhedron &Domain,
                                     unsigned NumParams,
                                     const AffineExpr &Schedule,
                                     const std::string &TimeName) {
  // Instrumented by the "loopgen" pass wrapper (compiler/).
  unsigned DomDims = Domain.numDims();
  assert(NumParams < DomDims && "domain must have recursion dimensions");
  assert(Schedule.numDims() == DomDims && "schedule dimension mismatch");
  unsigned NumRec = DomDims - NumParams;
  unsigned NestDims = DomDims + 1; // params, t, x0..xn-1.
  unsigned TimeDim = NumParams;

  // Assemble the scattered polyhedron over [params, t, x...].
  std::vector<std::string> NestNames;
  NestNames.reserve(NestDims);
  for (unsigned I = 0; I != NumParams; ++I)
    NestNames.push_back(Domain.dimNames()[I]);
  NestNames.push_back(TimeName);
  for (unsigned I = NumParams; I != DomDims; ++I)
    NestNames.push_back(Domain.dimNames()[I]);

  Polyhedron Scattered(NestNames);
  for (const Constraint &C : Domain.constraints())
    Scattered.addConstraint(
        Constraint(C.Expr.insertDims(TimeDim, 1), C.Kind));
  // t - Schedule(x) == 0.
  AffineExpr TimeEq = AffineExpr::dim(NestDims, TimeDim) -
                      Schedule.insertDims(TimeDim, 1);
  Scattered.addConstraint(Constraint::eq(TimeEq));

  // Project from the innermost level outwards: Proj[L] constrains the
  // variable of level L in terms of parameters and outer levels.
  unsigned NumLevels = 1 + NumRec;
  std::vector<Polyhedron> Proj(NumLevels);
  Proj[NumLevels - 1] = Scattered;
  for (unsigned L = NumLevels - 1; L > 0; --L)
    Proj[L - 1] = Proj[L].eliminateDim(Proj[L].numDims() - 1);

  LoopNest Nest;
  Nest.NumParams = NumParams;
  Nest.NumRecursionDims = NumRec;
  Nest.NestDimNames = NestNames;
  Nest.Levels.resize(NumLevels);

  for (unsigned L = 0; L != NumLevels; ++L) {
    LoopLevel &Level = Nest.Levels[L];
    unsigned Dim = NumParams + L; // Level variable within Proj[L].
    Level.Name = NestNames[Dim];

    // Prefer defining the variable through an equality: this is what
    // reconstructs the eliminated recursion dimension from the time-step
    // (Figure 9's S1(i, p-i)).
    const Constraint *Pivot = nullptr;
    for (const Constraint &C : Proj[L].constraints())
      if (C.Kind == Constraint::EQ && C.Expr.coefficient(Dim) != 0) {
        Pivot = &C;
        break;
      }
    if (Pivot) {
      int64_t A = Pivot->Expr.coefficient(Dim);
      // A * v + rest == 0  =>  v = -rest / A; keep the divisor positive.
      AffineExpr Rest = Pivot->Expr;
      Rest.setCoefficient(Dim, 0);
      if (A > 0) {
        Level.FixedNumerator = -Rest;
        Level.FixedDivisor = A;
      } else {
        Level.FixedNumerator = Rest;
        Level.FixedDivisor = -A;
      }
      // Pad back to the full nest dimensionality.
      unsigned Missing = NestDims - Proj[L].numDims();
      if (Missing)
        Level.FixedNumerator =
            Level.FixedNumerator->insertDims(Proj[L].numDims(), Missing);
      continue;
    }

    for (const Constraint &C : Proj[L].constraints()) {
      int64_t A = C.Expr.coefficient(Dim);
      if (A == 0)
        continue;
      AffineExpr Rest = C.Expr;
      Rest.setCoefficient(Dim, 0);
      unsigned Missing = NestDims - Proj[L].numDims();
      if (A > 0) {
        // A*v + rest >= 0  =>  v >= ceil(-rest / A).
        AffineExpr Num = -Rest;
        if (Missing)
          Num = Num.insertDims(Proj[L].numDims(), Missing);
        Level.Lower.push_back({Num, A});
      } else {
        // A*v + rest >= 0  =>  v <= floor(rest / -A).
        AffineExpr Num = Rest;
        if (Missing)
          Num = Num.insertDims(Proj[L].numDims(), Missing);
        Level.Upper.push_back({Num, -A});
      }
    }
  }
  return Nest;
}

LoopNest parrec::poly::generateBoxLoops(
    const std::vector<std::string> &DimNames,
    const std::vector<int64_t> &Schedule) {
  unsigned N = static_cast<unsigned>(DimNames.size());
  assert(Schedule.size() == N && "schedule arity mismatch");
  std::vector<std::string> Names;
  for (const std::string &Dim : DimNames)
    Names.push_back(Dim + "_n");
  Names.insert(Names.end(), DimNames.begin(), DimNames.end());
  Polyhedron Domain(Names);
  AffineExpr Scatter(2 * N);
  for (unsigned D = 0; D != N; ++D) {
    AffineExpr X = AffineExpr::dim(2 * N, N + D);
    Domain.addConstraint(Constraint::ge(X));
    Domain.addConstraint(Constraint::ge(AffineExpr::dim(2 * N, D) - X -
                                        AffineExpr::constant(2 * N, 1)));
    Scatter.setCoefficient(N + D, Schedule[D]);
  }
  return generateLoops(Domain, N, Scatter);
}
