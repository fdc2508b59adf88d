//===- ScheduleSynthesis.h - Finding and checking schedules -------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sections 4.5–4.8 of the paper:
///  * deriving validity criteria on scheduling functions from the
///    recursion's descent functions,
///  * verifying a user-provided schedule against those criteria,
///  * automatically finding the minimal-partition schedule with a CSP,
///  * deriving a set of conditional schedules for multiple problem sizes,
///  * computing the sliding-window depth for table compression.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_SOLVER_SCHEDULESYNTHESIS_H
#define PARREC_SOLVER_SCHEDULESYNTHESIS_H

#include "poly/Polyhedron.h"
#include "solver/Recurrence.h"
#include "support/Diagnostics.h"

#include <optional>
#include <vector>

namespace parrec {
namespace solver {

/// Linear validity criteria over the n schedule coefficients: every
/// constraint must hold for Sf to respect the recursion's dependencies
/// (the inductive condition (3) of Section 4.5).
struct ScheduleCriteria {
  unsigned NumDims = 0;
  std::vector<poly::Constraint> Constraints;

  /// True when \p S satisfies every criterion.
  bool isSatisfiedBy(const Schedule &S) const;
};

/// Derives validity criteria for \p Spec.
///
/// Uniform descents contribute the box-independent criterion
/// -a.c >= 1. General affine descents require the runtime \p Box: the
/// delta expression is affine in x, so its minimum over the box is at a
/// vertex, and one criterion is emitted per box vertex (the paper's "up
/// to 2^n constraint problems"). Reports an error when an affine descent
/// is present but no box is supplied.
std::optional<ScheduleCriteria>
buildCriteria(const RecurrenceSpec &Spec, const std::optional<DomainBox> &Box,
              DiagnosticEngine &Diags);

/// Verifies a user-provided schedule (Section 4.5). Returns true when
/// valid; otherwise reports which criterion failed.
bool verifySchedule(const RecurrenceSpec &Spec, const Schedule &S,
                    const std::optional<DomainBox> &Box,
                    DiagnosticEngine &Diags);

/// Options controlling the automatic search.
struct ScheduleSearchOptions {
  /// Coefficients are searched in [-MaxCoefficient, MaxCoefficient]; the
  /// paper fixes this to a small user-customisable number (10).
  int64_t MaxCoefficient = 10;
};

/// Finds the valid schedule minimising the partition count over \p Box
/// (Section 4.6). Implements the paper's decomposition into 2^n
/// sign-pattern subproblems, each a linear CSP. Returns nullopt when no
/// valid schedule exists within the coefficient bound (e.g. Fibonacci-like
/// recursions whose every partition has one element... which still yields
/// Sf = x; genuine failures are cyclic dependencies).
std::optional<Schedule>
findMinimalSchedule(const RecurrenceSpec &Spec, const DomainBox &Box,
                    DiagnosticEngine &Diags,
                    const ScheduleSearchOptions &Options = {});

/// One compile-time candidate from the conditional parallelisation of
/// Section 4.7, minimal for some region of problem sizes.
struct ConditionalSchedule {
  Schedule S;
};

/// Derives the candidate schedule set for unknown problem sizes
/// (Section 4.7): for each of the n! dimension permutations, the first
/// lexicographic solution with non-negative coefficients. Requires all
/// descents to be uniform. The returned set is deduplicated.
std::optional<std::vector<ConditionalSchedule>>
findConditionalSchedules(const RecurrenceSpec &Spec, DiagnosticEngine &Diags,
                         const ScheduleSearchOptions &Options = {});

/// Picks the conditional schedule with the fewest partitions for the
/// runtime \p Box (evaluated per problem, Section 4.7).
const ConditionalSchedule &
selectSchedule(const std::vector<ConditionalSchedule> &Candidates,
               const DomainBox &Box);

/// Computes the sliding-window depth for \p S (Section 4.8): the number
/// of preceding partitions any element may depend on. Only defined when
/// all descents are uniform; affine descents force full tabulation
/// (returns nullopt).
std::optional<int64_t> slidingWindowDepth(const RecurrenceSpec &Spec,
                                          const Schedule &S);

} // namespace solver
} // namespace parrec

#endif // PARREC_SOLVER_SCHEDULESYNTHESIS_H
