//===- LoopGenTest.cpp - Tests for CLooG-style loop generation --------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "poly/CPrinter.h"
#include "poly/LoopGen.h"
#include "solver/ScheduleSynthesis.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <utility>

using namespace parrec;
using namespace parrec::poly;

namespace {

/// Builds the edit-distance domain of Figure 9: parameters m, n and
/// recursion dimensions x in [0, n], y in [0, m].
Polyhedron editDistanceDomain() {
  Polyhedron P({"m", "n", "x", "y"});
  // x >= 0, n - x >= 0.
  P.addConstraint(Constraint::ge(AffineExpr::dim(4, 2)));
  P.addConstraint(
      Constraint::ge(AffineExpr::dim(4, 1) - AffineExpr::dim(4, 2)));
  // y >= 0, m - y >= 0.
  P.addConstraint(Constraint::ge(AffineExpr::dim(4, 3)));
  P.addConstraint(
      Constraint::ge(AffineExpr::dim(4, 0) - AffineExpr::dim(4, 3)));
  return P;
}

AffineExpr diagonalSchedule() {
  // S = x + y over [m, n, x, y].
  return AffineExpr::dim(4, 2) + AffineExpr::dim(4, 3);
}

using Point = std::vector<int64_t>;

std::multiset<Point> scanAll(const LoopNest &Nest,
                             const std::vector<int64_t> &Params) {
  std::multiset<Point> Seen;
  auto Range = Nest.timeRange(Params);
  if (!Range)
    return Seen;
  for (int64_t P = Range->first; P <= Range->second; ++P)
    Nest.forEachPoint(Params, P, [&](const int64_t *X) {
      Seen.insert(Point(X, X + Nest.NumRecursionDims));
    });
  return Seen;
}

} // namespace

TEST(LoopGenTest, Figure9EditDistance) {
  LoopNest Nest = generateLoops(editDistanceDomain(), /*NumParams=*/2,
                                diagonalSchedule(), "p");
  ASSERT_EQ(Nest.Levels.size(), 3u);
  EXPECT_FALSE(Nest.Levels[0].isFixed()); // p loop.
  EXPECT_FALSE(Nest.Levels[1].isFixed()); // x loop.
  EXPECT_TRUE(Nest.Levels[2].isFixed());  // y = p - x.

  // Instantiate m = 3, n = 2: time range is [0, m + n] = [0, 5].
  auto Range = Nest.timeRange({3, 2});
  ASSERT_TRUE(Range.has_value());
  EXPECT_EQ(Range->first, 0);
  EXPECT_EQ(Range->second, 5);

  // The scan visits exactly the (x, y) box, each point once, in its own
  // partition.
  std::multiset<Point> Seen = scanAll(Nest, {3, 2});
  EXPECT_EQ(Seen.size(), 4u * 3u); // (m+1) * (n+1).
  for (int64_t X = 0; X <= 2; ++X)
    for (int64_t Y = 0; Y <= 3; ++Y)
      EXPECT_EQ(Seen.count({X, Y}), 1u)
          << "point (" << X << "," << Y << ")";
}

TEST(LoopGenTest, Figure9PrintedForm) {
  LoopNest Nest = generateLoops(editDistanceDomain(), 2,
                                diagonalSchedule(), "p");
  std::string Code = printSequentialLoops(Nest, "S1");
  // The canonical CLooG shape: an outer p loop, an inner x loop with
  // max/min bounds mentioning p and the parameters, and the statement
  // reconstructing y as p - x.
  EXPECT_NE(Code.find("for (p="), std::string::npos) << Code;
  EXPECT_NE(Code.find("for (x="), std::string::npos) << Code;
  EXPECT_NE(Code.find("S1(x,p - x);"), std::string::npos) << Code;
  EXPECT_NE(Code.find("max("), std::string::npos) << Code;
  EXPECT_NE(Code.find("min("), std::string::npos) << Code;
}

TEST(LoopGenTest, Figure10ParallelForm) {
  LoopNest Nest = generateLoops(editDistanceDomain(), 2,
                                diagonalSchedule(), "p");
  std::string Code = printParallelLoops(Nest);
  EXPECT_NE(Code.find("parfor threads t in 0..tn"), std::string::npos)
      << Code;
  EXPECT_NE(Code.find("x+=tn"), std::string::npos) << Code;
  EXPECT_NE(Code.find("sync"), std::string::npos) << Code;
  EXPECT_NE(Code.find("farr[x0,x1] = f(x0,x1);"), std::string::npos)
      << Code;
}

TEST(LoopGenTest, ThreadStripingPartitionsTheWork) {
  LoopNest Nest = generateLoops(editDistanceDomain(), 2,
                                diagonalSchedule(), "p");
  std::vector<int64_t> Params = {7, 5};
  auto Range = Nest.timeRange(Params);
  ASSERT_TRUE(Range.has_value());

  for (unsigned Threads : {1u, 2u, 3u, 8u}) {
    std::multiset<Point> Combined;
    for (int64_t P = Range->first; P <= Range->second; ++P)
      for (unsigned T = 0; T != Threads; ++T)
        Nest.forEachPointForThread(Params, P, T, Threads,
                                   [&](const int64_t *X) {
                                     Combined.insert(Point(
                                         X, X + Nest.NumRecursionDims));
                                   });
    EXPECT_EQ(Combined.size(), 8u * 6u) << Threads << " threads";
    // No duplicates: every point exactly once across all threads.
    for (const Point &Pt : Combined)
      EXPECT_EQ(Combined.count(Pt), 1u);
  }
}

/// Property: over random boxes and random valid-looking schedules, the
/// generated nest enumerates exactly the box, each point exactly once,
/// and assigns each point to the partition its schedule value names.
struct RandomScanCase {
  unsigned Dims;
  uint64_t Seed;

  friend std::ostream &operator<<(std::ostream &Os,
                                  const RandomScanCase &C) {
    return Os << C.Dims << "d_seed" << C.Seed;
  }
};

class LoopGenPropertyTest
    : public ::testing::TestWithParam<RandomScanCase> {};

namespace {

/// "x<D>", built by appending: GCC 12 warns (-Wrestrict, falsely) on
/// "x" + std::to_string(D).
std::string dimName(unsigned D) {
  std::string Name = "x";
  Name += std::to_string(D);
  return Name;
}

/// The box, schedule and nest one RandomScanCase draws.
struct RandomScan {
  std::vector<int64_t> Extents;
  AffineExpr Schedule;
  LoopNest Nest;
};

RandomScan drawRandomScan(const RandomScanCase &Case) {
  SplitMix64 Rng(Case.Seed);
  unsigned N = Case.Dims;

  RandomScan S;
  std::vector<std::string> Names;
  for (unsigned D = 0; D != N; ++D) {
    S.Extents.push_back(Rng.nextInRange(1, 6));
    Names.push_back(dimName(D));
  }
  Polyhedron Domain(Names);
  for (unsigned D = 0; D != N; ++D)
    Domain.addBounds(D, 0, S.Extents[D] - 1);

  S.Schedule = AffineExpr(N);
  bool AllZero = true;
  for (unsigned D = 0; D != N; ++D) {
    int64_t C = Rng.nextInRange(-3, 3);
    S.Schedule.setCoefficient(D, C);
    AllZero &= C == 0;
  }
  if (AllZero)
    S.Schedule.setCoefficient(0, 1);

  S.Nest = generateLoops(Domain, 0, S.Schedule);
  return S;
}

} // namespace

TEST_P(LoopGenPropertyTest, ScansExactlyTheBox) {
  RandomScan S = drawRandomScan(GetParam());
  unsigned N = GetParam().Dims;
  const AffineExpr &Schedule = S.Schedule;
  const LoopNest &Nest = S.Nest;
  auto Range = Nest.timeRange({});
  ASSERT_TRUE(Range.has_value());

  std::map<Point, int64_t> SeenPartition;
  uint64_t Total = 0;
  for (int64_t P = Range->first; P <= Range->second; ++P)
    Nest.forEachPoint({}, P, [&](const int64_t *X) {
      Point Pt(X, X + N);
      EXPECT_EQ(SeenPartition.count(Pt), 0u) << "duplicate point";
      EXPECT_EQ(Schedule.evaluate(Pt), P) << "wrong partition";
      SeenPartition[Pt] = P;
      ++Total;
    });

  uint64_t Expected = 1;
  for (int64_t E : S.Extents)
    Expected *= static_cast<uint64_t>(E);
  EXPECT_EQ(Total, Expected);
}

INSTANTIATE_TEST_SUITE_P(
    RandomScans, LoopGenPropertyTest,
    ::testing::Values(RandomScanCase{1, 11}, RandomScanCase{1, 12},
                      RandomScanCase{2, 21}, RandomScanCase{2, 22},
                      RandomScanCase{2, 23}, RandomScanCase{3, 31},
                      RandomScanCase{3, 32}, RandomScanCase{3, 33},
                      RandomScanCase{4, 41}, RandomScanCase{4, 42}));

namespace {

using ThreadPoint = std::pair<unsigned, Point>;

/// The per-thread walk as the nest defines it, written out level by
/// level with AffineExpr::evaluate and the ceil/floor divisions: an
/// oracle for the walker that shares none of its hoisting or folding.
void referenceWalk(const LoopNest &Nest, std::vector<int64_t> &Env,
                   unsigned L, std::optional<unsigned> Striped, unsigned T,
                   unsigned NumThreads, std::vector<ThreadPoint> &Out) {
  if (L == Nest.Levels.size()) {
    const int64_t *X = Env.data() + Nest.NumParams + 1;
    Out.emplace_back(T, Point(X, X + Nest.NumRecursionDims));
    return;
  }
  const LoopLevel &Level = Nest.Levels[L];
  int64_t &V = Env[Nest.NumParams + L];
  if (Level.isFixed()) {
    int64_t Num = Level.FixedNumerator->evaluate(Env);
    if (Num % Level.FixedDivisor != 0)
      return;
    V = Num / Level.FixedDivisor;
    referenceWalk(Nest, Env, L + 1, Striped, T, NumThreads, Out);
    return;
  }
  int64_t Lo = std::numeric_limits<int64_t>::min();
  int64_t Hi = std::numeric_limits<int64_t>::max();
  for (const LoopBound &B : Level.Lower)
    Lo = std::max(Lo, ceilDiv(B.Numerator.evaluate(Env), B.Divisor));
  for (const LoopBound &B : Level.Upper)
    Hi = std::min(Hi, floorDiv(B.Numerator.evaluate(Env), B.Divisor));
  bool IsStriped = Striped && *Striped == L;
  for (int64_t X = Lo + (IsStriped ? T : 0); X <= Hi;
       X += IsStriped ? NumThreads : 1) {
    V = X;
    referenceWalk(Nest, Env, L + 1, Striped, T, NumThreads, Out);
  }
}

/// Checks, for every partition of the range (and one beyond each end),
/// every thread count and several thread sub-ranges, that the walker's
/// (thread, point) sequence equals the per-thread calls' concatenation
/// and the reference walk's.
void expectWalkerMatchesPerThreadWalks(const LoopNest &Nest,
                                       const std::vector<int64_t> &Params,
                                       uint64_t DomainSize,
                                       const std::string &What) {
  auto Range = Nest.timeRange(Params);
  ASSERT_TRUE(Range.has_value()) << What;
  ScanContext Ctx = Nest.makeScanContext(Params);
  uint64_t Points = 0;
  for (unsigned Threads : {1u, 3u, 32u, 100u}) {
    std::vector<std::pair<unsigned, unsigned>> Slices = {
        {0, Threads},
        {0, 1},
        {1, Threads},
        {Threads / 3, 2 * Threads / 3},
        {Threads - 1, Threads},
        {Threads / 2, Threads / 2}};
    for (int64_t P = Range->first - 1; P <= Range->second + 1; ++P) {
      for (size_t Slice = 0; Slice != Slices.size(); ++Slice) {
        auto [Begin, End] = Slices[Slice];
        std::vector<ThreadPoint> Walked, PerThread, Reference;
        Nest.forEachPointForThreads(
            Ctx, P, Begin, End, Threads,
            [&](unsigned T, const int64_t *X) {
              Walked.emplace_back(T, Point(X, X + Nest.NumRecursionDims));
            });
        for (unsigned T = Begin; T != End; ++T) {
          Nest.forEachPointForThread(
              Ctx, P, T, Threads, [&](const int64_t *X) {
                PerThread.emplace_back(T,
                                       Point(X, X + Nest.NumRecursionDims));
              });
          if (P < Range->first || P > Range->second)
            continue;
          std::vector<int64_t> Env(Nest.NestDimNames.size(), 0);
          std::copy(Params.begin(), Params.end(), Env.begin());
          Env[Nest.NumParams] = P;
          std::optional<unsigned> Striped;
          if (Threads > 1) {
            Striped = Nest.threadedLevel();
            if (!Striped && T != 0)
              continue;
          }
          referenceWalk(Nest, Env, 1, Striped, T, Threads, Reference);
        }
        std::string Where = What + " p=" + std::to_string(P) + " threads=" +
                            std::to_string(Threads) + " [" +
                            std::to_string(Begin) + ", " +
                            std::to_string(End) + ")";
        EXPECT_EQ(Walked, PerThread) << Where;
        EXPECT_EQ(Walked, Reference) << Where;
        if (Slice == 0)
          Points += Walked.size();
      }
    }
  }
  // The full range covers the domain once per thread count.
  EXPECT_EQ(Points, 4 * DomainSize) << What;
}

/// Every schedule with coefficients in {0, 1, 2} that the verifier
/// accepts for a recursion reading f(x0 - 1, x1, ...), as
/// coefficient vectors over \p N dimensions.
std::vector<std::vector<int64_t>> acceptedSmallSchedules(unsigned N) {
  solver::RecurrenceSpec Spec;
  solver::DescentFunction Row;
  for (unsigned D = 0; D != N; ++D) {
    Spec.DimNames.push_back(dimName(D));
    AffineExpr C = AffineExpr::dim(N, D);
    C.setConstantTerm(D == 0 ? -1 : 0);
    Row.Components.push_back(C);
  }
  Spec.Calls.push_back(Row);
  std::vector<int64_t> Extents(N, 4);
  solver::DomainBox Box = solver::DomainBox::fromExtents(Extents);
  std::vector<std::vector<int64_t>> Accepted;
  std::vector<int64_t> Coeffs(N, 0);
  unsigned Total = 1;
  for (unsigned D = 0; D != N; ++D)
    Total *= 3;
  for (unsigned Code = 0; Code != Total; ++Code) {
    unsigned Rest = Code;
    for (unsigned D = 0; D != N; ++D) {
      Coeffs[D] = Rest % 3;
      Rest /= 3;
    }
    DiagnosticEngine Diags;
    if (solver::verifySchedule(Spec, solver::Schedule{Coeffs}, Box, Diags))
      Accepted.push_back(Coeffs);
  }
  return Accepted;
}

} // namespace

TEST_P(LoopGenPropertyTest, WalkerMatchesPerThreadWalks) {
  RandomScan S = drawRandomScan(GetParam());
  uint64_t Size = 1;
  for (int64_t E : S.Extents)
    Size *= static_cast<uint64_t>(E);
  expectWalkerMatchesPerThreadWalks(S.Nest, {}, Size, S.Schedule.str());
}

TEST(LoopGenTest, WalkerMatchesPerThreadWalksOnSmallSchedules) {
  bool SawDivisorTwo = false, SawFixedAboveStripe = false;
  for (std::vector<int64_t> Extents :
       {std::vector<int64_t>{5, 7}, std::vector<int64_t>{3, 4, 5}}) {
    unsigned N = static_cast<unsigned>(Extents.size());
    std::vector<std::string> Dims;
    for (unsigned D = 0; D != N; ++D)
      Dims.push_back(dimName(D));
    std::vector<std::vector<int64_t>> Schedules = acceptedSmallSchedules(N);
    // a0 in {1, 2} and every other coefficient in {0, 1, 2}.
    EXPECT_EQ(Schedules.size(), N == 2 ? 6u : 18u);
    for (const std::vector<int64_t> &S : Schedules) {
      LoopNest Nest = generateBoxLoops(Dims, S);
      for (unsigned L = 1; L != Nest.Levels.size(); ++L) {
        const LoopLevel &Level = Nest.Levels[L];
        SawDivisorTwo |= Level.isFixed() && Level.FixedDivisor == 2;
        SawFixedAboveStripe |= Level.isFixed() && Nest.threadedLevel() &&
                               L < *Nest.threadedLevel();
      }
      std::string What = "schedule";
      for (int64_t C : S) {
        What += ' ';
        What += std::to_string(C);
      }
      uint64_t Size = 1;
      for (int64_t E : Extents)
        Size *= static_cast<uint64_t>(E);
      expectWalkerMatchesPerThreadWalks(Nest, Extents, Size, What);
    }
  }
  EXPECT_TRUE(SawDivisorTwo);
  EXPECT_TRUE(SawFixedAboveStripe);
}

TEST(LoopGenTest, CountPoints) {
  LoopNest Nest = generateLoops(editDistanceDomain(), 2,
                                diagonalSchedule(), "p");
  // Partition p of an (m+1) x (n+1) edit-distance domain holds the p-th
  // anti-diagonal.
  EXPECT_EQ(Nest.countPoints({3, 3}, 0), 1u);
  EXPECT_EQ(Nest.countPoints({3, 3}, 2), 3u);
  EXPECT_EQ(Nest.countPoints({3, 3}, 3), 4u);
  EXPECT_EQ(Nest.countPoints({3, 3}, 6), 1u);
  EXPECT_EQ(Nest.countPoints({3, 3}, 7), 0u);
}

TEST(LoopGenTest, NonUnitScheduleCoefficients) {
  // S = 2x + y on a 3x3 box: partitions are sparse but must still cover
  // the box exactly once.
  Polyhedron Domain({"x", "y"});
  Domain.addBounds(0, 0, 2);
  Domain.addBounds(1, 0, 2);
  AffineExpr S({2, 1}, 0);
  LoopNest Nest = generateLoops(Domain, 0, S);
  std::multiset<Point> Seen = scanAll(Nest, {});
  EXPECT_EQ(Seen.size(), 9u);
  for (int64_t X = 0; X <= 2; ++X)
    for (int64_t Y = 0; Y <= 2; ++Y)
      EXPECT_EQ(Seen.count({X, Y}), 1u);
}

TEST(LoopGenTest, DividedBoundsRenderAsFloorDiv) {
  // S = 2x + y over a square box: the x loop's upper bound involves
  // floor(p / 2), rendered in CLooG's floord style.
  Polyhedron Domain({"n", "x", "y"});
  // 0 <= x <= n, 0 <= y <= n.
  for (unsigned D : {1u, 2u}) {
    Domain.addConstraint(Constraint::ge(AffineExpr::dim(3, D)));
    Domain.addConstraint(
        Constraint::ge(AffineExpr::dim(3, 0) - AffineExpr::dim(3, D)));
  }
  AffineExpr S = AffineExpr::dim(3, 1) * 2 + AffineExpr::dim(3, 2);
  LoopNest Nest = generateLoops(Domain, 1, S);
  std::string Code = printSequentialLoops(Nest);
  EXPECT_NE(Code.find("floord("), std::string::npos) << Code;

  // And the scan is still exact for a concrete instantiation.
  std::multiset<Point> Seen = scanAll(Nest, {4});
  EXPECT_EQ(Seen.size(), 25u);
}

TEST(LoopGenTest, EmptyDomainHasNoTimeRange) {
  Polyhedron Domain({"x"});
  Domain.addBounds(0, 5, 3); // Empty.
  AffineExpr S = AffineExpr::dim(1, 0);
  LoopNest Nest = generateLoops(Domain, 0, S);
  EXPECT_FALSE(Nest.timeRange({}).has_value());
}

TEST(LoopGenTest, NegativeCoefficients) {
  Polyhedron Domain({"x", "y"});
  Domain.addBounds(0, 0, 3);
  Domain.addBounds(1, 0, 2);
  AffineExpr S({1, -1}, 0); // S = x - y.
  LoopNest Nest = generateLoops(Domain, 0, S);
  auto Range = Nest.timeRange({});
  ASSERT_TRUE(Range.has_value());
  EXPECT_EQ(Range->first, -2);
  EXPECT_EQ(Range->second, 3);
  EXPECT_EQ(scanAll(Nest, {}).size(), 12u);
}
