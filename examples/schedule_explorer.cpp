//===- schedule_explorer.cpp - Visualising schedules ---------------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays the paper's schedule discussion interactively: renders the
/// partitionings of Figures 3 and 4 as ASCII grids, verifies user
/// schedules against the dependency criteria (Section 4.5), shows the
/// CSP-derived minimal schedule for several recursions (Section 4.6),
/// and the conditional schedule sets of Section 4.7.
///
/// Build and run:  ./build/examples/schedule_explorer
///
/// The compiler plans with exactly these schedules: the CSP-derived
/// minimal schedule for a single problem, the conditional candidate
/// with the fewest partitions for each problem of a `map` batch, plus
/// the Section 4.8 sliding window where it is legal. `parrec run
/// --dump-passes <script>` lists the planning passes (DESIGN.md §9).
///
//===----------------------------------------------------------------------===//

#include "solver/ScheduleSynthesis.h"

#include <cstdio>

using namespace parrec;
using namespace parrec::solver;

namespace {

DescentFunction uniformDescent(std::vector<int64_t> Offsets) {
  DescentFunction D;
  unsigned N = static_cast<unsigned>(Offsets.size());
  for (unsigned I = 0; I != N; ++I) {
    poly::AffineExpr C = poly::AffineExpr::dim(N, I);
    C.setConstantTerm(Offsets[I]);
    D.Components.push_back(C);
  }
  return D;
}

/// Prints the partition number of every cell of a W x H grid under S —
/// the pictures of Figures 3 and 4.
void renderPartitions(const Schedule &S, int64_t W, int64_t H) {
  std::printf("     ");
  for (int64_t X = 0; X != W; ++X)
    std::printf("%3lld", static_cast<long long>(X));
  std::printf("  (x ->)\n");
  for (int64_t Y = 0; Y != H; ++Y) {
    std::printf("  y=%lld", static_cast<long long>(Y));
    for (int64_t X = 0; X != W; ++X)
      std::printf("%3lld",
                  static_cast<long long>(S.apply({X, Y})));
    std::printf("\n");
  }
}

void exploreRecursion(const char *Title, const RecurrenceSpec &Spec,
                      const DomainBox &Box) {
  std::printf("== %s ==\n", Title);
  std::printf("calls:");
  for (const DescentFunction &Call : Spec.Calls)
    std::printf("  %s", Call.str(Spec.DimNames).c_str());
  std::printf("\n");

  DiagnosticEngine Diags;
  auto S = findMinimalSchedule(Spec, Box, Diags);
  if (!S) {
    std::printf("no valid schedule: dependencies are cyclic\n\n");
    return;
  }
  std::printf("minimal schedule: S = %s, %lld partitions\n",
              S->str(Spec.DimNames).c_str(),
              static_cast<long long>(S->partitionCount(Box)));
  if (Spec.numDims() == 2 && Box.extent(0) <= 8 && Box.extent(1) <= 8)
    renderPartitions(*S, Box.extent(0), Box.extent(1));

  if (Spec.allUniform()) {
    auto Candidates = findConditionalSchedules(Spec, Diags);
    if (Candidates) {
      std::printf("conditional candidates (Section 4.7):");
      for (const ConditionalSchedule &C : *Candidates)
        std::printf("  %s", C.S.str(Spec.DimNames).c_str());
      std::printf("\n");
    }
  }
  std::printf("\n");
}

} // namespace

int main() {
  // Figure 3: the 3x3 edit-distance problem, five diagonal partitions.
  RecurrenceSpec EditDistance;
  EditDistance.Name = "d";
  EditDistance.DimNames = {"x", "y"};
  EditDistance.Calls = {uniformDescent({-1, 0}), uniformDescent({0, -1}),
                        uniformDescent({-1, -1})};
  exploreRecursion("edit distance (Figures 1-3)", EditDistance,
                   DomainBox::fromExtents({3, 3}));

  // Figure 4: three strategies for the diagonal-only recursion; which
  // one is minimal depends on the domain shape.
  RecurrenceSpec Diagonal;
  Diagonal.Name = "f";
  Diagonal.DimNames = {"x", "y"};
  Diagonal.Calls = {uniformDescent({-1, -1})};
  exploreRecursion("diagonal recursion, wide domain (Figure 4a)",
                   Diagonal, DomainBox::fromExtents({7, 6}));
  exploreRecursion("diagonal recursion, tall domain (Figure 4b)",
                   Diagonal, DomainBox::fromExtents({6, 7}));

  // Fibonacci: every partition has exactly one element (Figure 2b).
  RecurrenceSpec Fib;
  Fib.Name = "fib";
  Fib.DimNames = {"x"};
  Fib.Calls = {uniformDescent({-1}), uniformDescent({-2})};
  exploreRecursion("fibonacci (Figure 2b: no parallelism)", Fib,
                   DomainBox::fromExtents({8}));

  // Verifying a user-provided schedule (Section 4.5).
  DiagnosticEngine Diags;
  DomainBox Box = DomainBox::fromExtents({6, 6});
  std::printf("== user schedule verification (Section 4.5) ==\n");
  for (Schedule S : {Schedule{{1, 1}}, Schedule{{2, 1}},
                     Schedule{{1, 0}}}) {
    DiagnosticEngine Local;
    bool Valid = verifySchedule(EditDistance, S, Box, Local);
    std::printf("S = %-8s : %s\n", S.str({"x", "y"}).c_str(),
                Valid ? "valid" : "rejected");
    if (!Valid)
      std::printf("    %s", Local.str().c_str());
  }
  (void)Diags;
  return 0;
}
