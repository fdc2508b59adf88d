//===- ScheduleSynthesis.cpp - Finding and checking schedules --------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "solver/ScheduleSynthesis.h"

#include "obs/Trace.h"
#include "solver/CspSolver.h"

#include <algorithm>
#include <numeric>

using namespace parrec;
using namespace parrec::solver;
using poly::AffineExpr;
using poly::Constraint;

bool ScheduleCriteria::isSatisfiedBy(const Schedule &S) const {
  assert(S.numDims() == NumDims && "schedule dimension mismatch");
  for (const Constraint &C : Constraints) {
    int64_t V = C.Expr.evaluate(S.Coefficients);
    if (C.Kind == Constraint::EQ ? V != 0 : V < 0)
      return false;
  }
  return true;
}

std::optional<ScheduleCriteria>
parrec::solver::buildCriteria(const RecurrenceSpec &Spec,
                              const std::optional<DomainBox> &Box,
                              DiagnosticEngine &Diags) {
  unsigned N = Spec.numDims();
  ScheduleCriteria Criteria;
  Criteria.NumDims = N;

  auto addFreeDimConstraints = [&](const DescentFunction &Call) {
    // A free component can land anywhere in its dimension, so the only
    // schedules that respect it are those ignoring that dimension
    // entirely: a_d == 0 (Section 5.2's conclusion for the forward
    // algorithm's state dimension).
    for (unsigned I = 0; I != N; ++I) {
      if (!Call.isFreeDim(I))
        continue;
      AffineExpr Expr(N);
      Expr.setCoefficient(I, 1);
      bool Duplicate = false;
      for (const Constraint &Existing : Criteria.Constraints)
        if (Existing.Kind == Constraint::EQ && Existing.Expr == Expr) {
          Duplicate = true;
          break;
        }
      if (!Duplicate)
        Criteria.Constraints.push_back(Constraint::eq(Expr));
    }
  };

  for (const DescentFunction &Call : Spec.Calls) {
    assert(Call.Components.size() == N && "descent arity mismatch");
    addFreeDimConstraints(Call);
    if (Call.isUniform()) {
      // Delta = sum_i a_i * (x_i - (x_i + c_i)) = -a . c, a constant, so
      // the criterion is -a . c - 1 >= 0 (Section 4.5).
      std::vector<int64_t> Offsets = Call.uniformOffsets();
      AffineExpr Expr(N);
      for (unsigned I = 0; I != N; ++I)
        Expr.setCoefficient(I, -Offsets[I]);
      Expr.setConstantTerm(-1);
      Criteria.Constraints.push_back(Constraint::ge(Expr));
      continue;
    }

    // General affine descent: Delta(x) is affine in x, so its minimum over
    // the runtime box is attained at a vertex. Emit one criterion per
    // vertex — exactly the paper's 2^n subproblem construction.
    if (!Box) {
      Diags.error({}, "recursive call " + Call.str(Spec.DimNames) +
                          " has a non-uniform affine descent; the runtime "
                          "domain is required to derive schedule criteria");
      return std::nullopt;
    }
    assert(Box->numDims() == N && "box dimension mismatch");
    for (uint64_t Mask = 0, End = uint64_t(1) << N; Mask != End; ++Mask) {
      std::vector<int64_t> Vertex(N);
      for (unsigned I = 0; I != N; ++I)
        Vertex[I] = (Mask >> I) & 1 ? Box->Upper[I] : Box->Lower[I];
      AffineExpr Expr(N);
      for (unsigned I = 0; I != N; ++I) {
        int64_t Delta = Vertex[I] - Call.Components[I].evaluate(Vertex);
        Expr.setCoefficient(I, Delta);
      }
      Expr.setConstantTerm(-1);
      // Drop duplicates as we go; vertex deltas often coincide.
      bool Duplicate = false;
      for (const Constraint &Existing : Criteria.Constraints)
        if (Existing.Expr == Expr) {
          Duplicate = true;
          break;
        }
      if (!Duplicate)
        Criteria.Constraints.push_back(Constraint::ge(Expr));
    }
  }
  return Criteria;
}

bool parrec::solver::verifySchedule(const RecurrenceSpec &Spec,
                                    const Schedule &S,
                                    const std::optional<DomainBox> &Box,
                                    DiagnosticEngine &Diags) {
  if (S.numDims() != Spec.numDims()) {
    Diags.error({}, "schedule for '" + Spec.Name + "' has " +
                        std::to_string(S.numDims()) + " coefficients; the "
                        "recursion has " +
                        std::to_string(Spec.numDims()) + " dimensions");
    return false;
  }
  std::optional<ScheduleCriteria> Criteria = buildCriteria(Spec, Box, Diags);
  if (!Criteria)
    return false;
  for (const Constraint &C : Criteria->Constraints) {
    int64_t V = C.Expr.evaluate(S.Coefficients);
    if (V < 0) {
      std::vector<std::string> CoeffNames;
      for (const std::string &Dim : Spec.DimNames)
        CoeffNames.push_back("a_" + Dim);
      Diags.error({}, "schedule " + S.str(Spec.DimNames) + " for '" +
                          Spec.Name + "' violates dependency criterion " +
                          C.str(CoeffNames));
      return false;
    }
  }
  return true;
}

std::optional<Schedule> parrec::solver::findMinimalSchedule(
    const RecurrenceSpec &Spec, const DomainBox &Box,
    DiagnosticEngine &Diags, const ScheduleSearchOptions &Options) {
  // Instrumented by the schedule_synthesis pass wrapper (compiler/).
  unsigned N = Spec.numDims();
  if (Spec.Calls.empty()) {
    // No recursion: everything is independent and one partition suffices.
    Schedule S;
    S.Coefficients.assign(N, 0);
    return S;
  }

  std::optional<ScheduleCriteria> Criteria =
      buildCriteria(Spec, Box, Diags);
  if (!Criteria)
    return std::nullopt;

  int64_t K = Options.MaxCoefficient;
  std::optional<Schedule> Best;
  int64_t BestPartitions = 0;

  // Enumerate the 2^n sign patterns (Section 4.6): under a fixed pattern,
  // |a_i| is linear and the objective max(S) - min(S) becomes
  // sum_i s_i * a_i * extent_i.
  for (uint64_t Pattern = 0, End = uint64_t(1) << N; Pattern != End;
       ++Pattern) {
    CspSolver Solver(N, -K, K);
    AffineExpr Objective(N);
    for (unsigned I = 0; I != N; ++I) {
      bool Negative = (Pattern >> I) & 1;
      if (Negative)
        Solver.restrictVar(I, -K, 0);
      else
        Solver.restrictVar(I, 0, K);
      int64_t Extent = Box.Upper[I] - Box.Lower[I];
      Objective.setCoefficient(I, Negative ? -Extent : Extent);
    }
    for (const Constraint &C : Criteria->Constraints)
      Solver.addConstraint(C);
    Solver.setObjective(Objective);

    std::optional<CspSolution> Solution = Solver.solve();
    if (!Solution)
      continue;
    int64_t Partitions = Solution->ObjectiveValue + 1;
    if (!Best || Partitions < BestPartitions) {
      Best = Schedule{Solution->Assignment};
      BestPartitions = Partitions;
    }
  }

  if (!Best)
    Diags.error({}, "no valid schedule with coefficients in [-" +
                        std::to_string(K) + ", " + std::to_string(K) +
                        "] exists for '" + Spec.Name +
                        "'; the recursion's dependencies are cyclic");
  return Best;
}

namespace {

/// Values 0, 1, -1, 2, -2, ... within [-K, K]: magnitude-lexicographic
/// with positive preferred, the order the conditional derivation fixes
/// coefficients in.
std::vector<int64_t> magnitudeOrder(int64_t K) {
  std::vector<int64_t> Order;
  Order.push_back(0);
  for (int64_t V = 1; V <= K; ++V) {
    Order.push_back(V);
    Order.push_back(-V);
  }
  return Order;
}

bool feasibleWithFixed(const ScheduleCriteria &Criteria, int64_t K,
                       const std::vector<std::optional<int64_t>> &Fixed) {
  CspSolver Solver(Criteria.NumDims, -K, K);
  for (unsigned I = 0; I != Criteria.NumDims; ++I)
    if (Fixed[I])
      Solver.fixVar(I, *Fixed[I]);
  for (const Constraint &C : Criteria.Constraints)
    Solver.addConstraint(C);
  return Solver.solve().has_value();
}

} // namespace

std::optional<std::vector<ConditionalSchedule>>
parrec::solver::findConditionalSchedules(
    const RecurrenceSpec &Spec, DiagnosticEngine &Diags,
    const ScheduleSearchOptions &Options) {
  obs::Span PhaseSpan("compile.conditional_schedules", "compiler");
  if (PhaseSpan.active())
    PhaseSpan.arg("function", Spec.Name);
  if (!Spec.allUniform()) {
    Diags.error({}, "conditional parallelisation requires uniform descent "
                    "functions (Section 4.7); '" +
                        Spec.Name + "' has a general affine descent");
    return std::nullopt;
  }
  unsigned N = Spec.numDims();
  std::optional<ScheduleCriteria> Criteria =
      buildCriteria(Spec, std::nullopt, Diags);
  if (!Criteria)
    return std::nullopt;

  int64_t K = Options.MaxCoefficient;
  std::vector<int64_t> ValueOrder = magnitudeOrder(K);

  std::vector<ConditionalSchedule> Candidates;
  std::vector<unsigned> Perm(N);
  std::iota(Perm.begin(), Perm.end(), 0);

  // For each permutation, find the first lexicographic solution: minimise
  // each dimension in turn, propagating the already-fixed values.
  do {
    std::vector<std::optional<int64_t>> Fixed(N);
    bool Failed = false;
    for (unsigned Dim : Perm) {
      bool Assigned = false;
      for (int64_t V : ValueOrder) {
        Fixed[Dim] = V;
        if (feasibleWithFixed(*Criteria, K, Fixed)) {
          Assigned = true;
          break;
        }
      }
      if (!Assigned) {
        Failed = true;
        break;
      }
    }
    if (Failed)
      continue;

    Schedule S;
    S.Coefficients.reserve(N);
    for (unsigned I = 0; I != N; ++I)
      S.Coefficients.push_back(*Fixed[I]);
    bool Duplicate = false;
    for (const ConditionalSchedule &C : Candidates)
      if (C.S == S) {
        Duplicate = true;
        break;
      }
    if (!Duplicate)
      Candidates.push_back({std::move(S)});
  } while (std::next_permutation(Perm.begin(), Perm.end()));

  if (Candidates.empty()) {
    Diags.error({}, "no valid conditional schedules with coefficients in "
                    "[-" +
                        std::to_string(K) + ", " + std::to_string(K) +
                        "] exist for '" + Spec.Name + "'");
    return std::nullopt;
  }
  return Candidates;
}

const ConditionalSchedule &parrec::solver::selectSchedule(
    const std::vector<ConditionalSchedule> &Candidates,
    const DomainBox &Box) {
  assert(!Candidates.empty() && "no candidates to select from");
  const ConditionalSchedule *Best = &Candidates[0];
  int64_t BestCount = Best->S.partitionCount(Box);
  for (const ConditionalSchedule &C : Candidates) {
    int64_t Count = C.S.partitionCount(Box);
    if (Count < BestCount) {
      Best = &C;
      BestCount = Count;
    }
  }
  return *Best;
}

std::optional<int64_t>
parrec::solver::slidingWindowDepth(const RecurrenceSpec &Spec,
                                   const Schedule &S) {
  int64_t Depth = 0;
  for (const DescentFunction &Call : Spec.Calls) {
    if (!Call.isUniform())
      return std::nullopt; // Affine descents force full tabulation.
    std::vector<int64_t> Offsets = Call.uniformOffsets();
    int64_t Lag = 0;
    for (unsigned I = 0, E = S.numDims(); I != E; ++I)
      Lag += -S.Coefficients[I] * Offsets[I];
    assert(Lag >= 1 && "sliding window requires a valid schedule");
    Depth = std::max(Depth, Lag);
  }
  return Depth;
}
