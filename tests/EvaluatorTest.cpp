//===- EvaluatorTest.cpp - Tests for the cell evaluator ------------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "codegen/Evaluator.h"

#include "bio/HmmZoo.h"
#include "codegen/LogSpace.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

using namespace parrec;
using namespace parrec::codegen;

namespace {

/// A trivial table stub returning a fixed value.
class ConstantTable : public TableView {
public:
  explicit ConstantTable(double Value) : Value(Value) {}
  double get(const int64_t *) const override { return Value; }

private:
  double Value;
};

struct Harness {
  std::unique_ptr<lang::FunctionDecl> Decl;
  lang::FunctionInfo Info;
  std::unique_ptr<Evaluator> Eval;
  DiagnosticEngine Diags;

  bool compile(const char *Source) {
    lang::Parser P(Source, Diags);
    Decl = P.parseFunctionOnly();
    if (!Decl)
      return false;
    lang::Sema S(Diags, {"dna", "rna", "protein", "en"});
    auto MaybeInfo = S.analyze(*Decl);
    if (!MaybeInfo)
      return false;
    Info = std::move(*MaybeInfo);
    Info.Decl = Decl.get();
    Eval = std::make_unique<Evaluator>(*Decl, Info);
    return true;
  }

  double evalAt(std::vector<int64_t> Point, double TableValue,
                gpu::CostCounter *CostOut = nullptr) {
    ConstantTable Table(TableValue);
    gpu::CostCounter Cost;
    double V = Eval->evalCell(Point.data(), Table, Cost);
    if (CostOut)
      *CostOut = Cost;
    return V;
  }
};

} // namespace

TEST(EvaluatorTest, IntegerArithmetic) {
  Harness H;
  ASSERT_TRUE(H.compile(
      "int f(int n) = if n == 0 then 0 else ((n * 3 + 4) / 2 - 1) min "
      "100 max (0 - 5)\n"))
      << H.Diags.str();
  H.Eval->bind({ArgValue::ofInt(10)});
  // n = 7: (7*3+4)/2 - 1 = 11; min 100 -> 11; max -5 -> 11.
  EXPECT_DOUBLE_EQ(H.evalAt({7}, 0.0), 11.0);
  EXPECT_DOUBLE_EQ(H.evalAt({0}, 0.0), 0.0);
}

TEST(EvaluatorTest, ComparisonsAndBooleans) {
  Harness H;
  ASSERT_TRUE(H.compile("int f(int n) =\n"
                        "  if n < 3 then 1\n"
                        "  else if n >= 8 then 2\n"
                        "  else if n != 5 then 3\n"
                        "  else 4 + f(n - 1) * 0\n"))
      << H.Diags.str();
  H.Eval->bind({ArgValue::ofInt(10)});
  EXPECT_DOUBLE_EQ(H.evalAt({2}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(H.evalAt({9}, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(H.evalAt({6}, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(H.evalAt({5}, 0.0), 4.0);
}

TEST(EvaluatorTest, RecursiveLookupUsesTable) {
  Harness H;
  ASSERT_TRUE(H.compile(
      "int f(int n) = if n == 0 then 1 else f(n - 1) + 2\n"));
  H.Eval->bind({ArgValue::ofInt(5)});
  gpu::CostCounter Cost;
  EXPECT_DOUBLE_EQ(H.evalAt({3}, 40.0, &Cost), 42.0);
  EXPECT_EQ(Cost.TableReads, 1u);
  EXPECT_EQ(Cost.TableWrites, 1u);
}

TEST(EvaluatorTest, SequenceAndCharEquality) {
  Harness H;
  ASSERT_TRUE(H.compile(
      "int f(seq[dna] s, index[s] i) =\n"
      "  if i == 0 then 0\n"
      "  else if s[i-1] == 'a' then 1 + f(i-1) * 0 else 2\n"))
      << H.Diags.str();
  bio::Sequence S("s", "acg");
  H.Eval->bind({ArgValue::ofSeq(&S), ArgValue()});
  EXPECT_DOUBLE_EQ(H.evalAt({1}, 0.0), 1.0); // s[0] == 'a'.
  EXPECT_DOUBLE_EQ(H.evalAt({2}, 0.0), 2.0); // s[1] == 'c'.
}

TEST(EvaluatorTest, MatrixLookup) {
  Harness H;
  ASSERT_TRUE(H.compile(
      "int f(matrix[protein] m, seq[protein] a, index[a] i) =\n"
      "  if i == 0 then 0 else m[a[i-1], a[i-1]] + f(i-1) * 0\n"))
      << H.Diags.str();
  bio::Sequence A("a", "WA");
  H.Eval->bind({ArgValue::ofMatrix(&bio::SubstitutionMatrix::blosum62()),
                ArgValue::ofSeq(&A), ArgValue()});
  EXPECT_DOUBLE_EQ(H.evalAt({1}, 0.0), 11.0); // W vs W.
  EXPECT_DOUBLE_EQ(H.evalAt({2}, 0.0), 4.0);  // A vs A.
}

TEST(EvaluatorTest, ProbabilityLogSpace) {
  Harness H;
  ASSERT_TRUE(H.compile(
      "prob f(float p, int n) =\n"
      "  if n == 0 then 0.5 else (f(n-1) * 0.5) + f(n-1)\n"))
      << H.Diags.str();
  H.Eval->bind({ArgValue::ofReal(0.0), ArgValue::ofInt(4)});
  // Base case: stored value is log(0.5).
  EXPECT_NEAR(H.evalAt({0}, 0.0), std::log(0.5), 1e-12);
  // Recursive case with table cell = log(0.25):
  // 0.25*0.5 + 0.25 = 0.375 in linear space.
  gpu::CostCounter Cost;
  double V = H.evalAt({2}, std::log(0.25), &Cost);
  EXPECT_NEAR(V, std::log(0.375), 1e-12);
  EXPECT_GE(Cost.Transcendentals, 1u)
      << "log-space addition must count a transcendental";
}

TEST(EvaluatorTest, HmmMembersAndReductions) {
  Harness H;
  ASSERT_TRUE(H.compile(
      "prob f(hmm h, state[h] s, int n) =\n"
      "  if n == 0 then (if s.isstart then 1.0 else 0.0)\n"
      "  else sum(t in s.transitionsto : t.prob * f(t.start, n - 1))\n"))
      << H.Diags.str();
  bio::Hmm Model = bio::makeCasinoModel();
  H.Eval->bind({ArgValue::ofHmm(&Model), ArgValue(),
                ArgValue::ofInt(3)});

  // Base cases: start state stores log 1 = 0, others log 0 = -inf.
  unsigned Start = Model.startState();
  EXPECT_DOUBLE_EQ(
      H.evalAt({static_cast<int64_t>(Start), 0}, 0.0), 0.0);
  int Fair = Model.findState("fair");
  EXPECT_TRUE(std::isinf(H.evalAt({Fair, 0}, 0.0)));

  // fair at n > 0: incoming from begin (1.0), fair (0.94), loaded (0.1);
  // with all table cells = log(0.5): sum = 0.5 * (1 + 0.94 + 0.1).
  double V = H.evalAt({Fair, 1}, std::log(0.5));
  EXPECT_NEAR(V, std::log(0.5 * (1.0 + 0.94 + 0.1)), 1e-9);
}

TEST(EvaluatorTest, EmptyReductionIdentities) {
  // The begin state has no incoming transitions: sum over the empty set
  // is probability 0 (log -inf), max is -inf, NOT probability 1. (This
  // was a real bug: see the Viterbi example.)
  for (const char *Op : {"sum", "max", "min"}) {
    Harness H;
    std::string Source =
        std::string("prob f(hmm h, state[h] s, int n) =\n"
                    "  if n == 0 then 1.0\n"
                    "  else ") +
        Op + "(t in s.transitionsto : t.prob * f(t.start, n - 1))\n";
    ASSERT_TRUE(H.compile(Source.c_str())) << Op << H.Diags.str();
    bio::Hmm Model = bio::makeCasinoModel();
    H.Eval->bind({ArgValue::ofHmm(&Model), ArgValue(),
                  ArgValue::ofInt(2)});
    int64_t Begin = Model.startState();
    double V = H.evalAt({Begin, 1}, 0.0);
    if (std::string(Op) == "min")
      EXPECT_TRUE(std::isinf(V) && V > 0) << Op;
    else
      EXPECT_TRUE(std::isinf(V) && V < 0) << Op;
  }
}

TEST(EvaluatorTest, TransitionsFromDirection) {
  Harness H;
  ASSERT_TRUE(H.compile(
      "prob f(hmm h, state[h] s, int n) =\n"
      "  if n == 0 then 1.0\n"
      "  else sum(t in s.transitionsfrom : t.prob * f(t.end, n - 1))\n"))
      << H.Diags.str();
  bio::Hmm Model = bio::makeCasinoModel();
  H.Eval->bind({ArgValue::ofHmm(&Model), ArgValue(),
                ArgValue::ofInt(2)});
  // Outgoing probabilities of fair sum to 1 -> with table cells log(1)=0
  // the sum is log(1) = 0.
  int Fair = Model.findState("fair");
  EXPECT_NEAR(H.evalAt({Fair, 1}, 0.0), 0.0, 1e-9);
}

TEST(EvaluatorTest, ValidationRejectsProbSubtraction) {
  DiagnosticEngine Diags;
  lang::Parser P("prob f(int n) = if n == 0 then 0.5 else f(n-1) - "
                 "f(n-1)\n",
                 Diags);
  auto Decl = P.parseFunctionOnly();
  ASSERT_TRUE(Decl != nullptr);
  lang::Sema S(Diags, {});
  auto Info = S.analyze(*Decl);
  ASSERT_TRUE(Info.has_value()) << Diags.str();
  EXPECT_FALSE(validateForExecution(*Decl, Diags));
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(EvaluatorTest, CostCountingIsMonotoneInWork) {
  Harness H;
  ASSERT_TRUE(H.compile(
      "int f(int n) = if n == 0 then 0 else f(n-1) + f(n-1) + f(n-1)\n"));
  H.Eval->bind({ArgValue::ofInt(4)});
  gpu::CostCounter Base, Rec;
  H.evalAt({0}, 0.0, &Base);
  H.evalAt({3}, 1.0, &Rec);
  EXPECT_GT(Rec.Ops, Base.Ops);
  EXPECT_EQ(Rec.TableReads, 3u);
}

TEST(HmmLogCacheTest, MatchesModelParameters) {
  bio::Hmm Model = bio::makeCasinoModel();
  HmmLogCache Cache;
  Cache.build(Model);
  ASSERT_EQ(Cache.LogTransitionProbs.size(), Model.numTransitions());
  for (unsigned T = 0; T != Model.numTransitions(); ++T)
    EXPECT_NEAR(Cache.LogTransitionProbs[T],
                std::log(Model.transition(T).Prob), 1e-12);
  unsigned Loaded = static_cast<unsigned>(Model.findState("loaded"));
  EXPECT_NEAR(Cache.LogEmissions[Loaded][5], std::log(0.5), 1e-12);
  EXPECT_TRUE(Cache.LogEmissions[Model.startState()].empty());
}

//===----------------------------------------------------------------------===//
// LogSumExp: the online log-space sum
//===----------------------------------------------------------------------===//

namespace {

double onlineSum(const std::vector<double> &Xs) {
  LogSumExp Sum;
  for (double X : Xs)
    Sum.add(X);
  return Sum.result();
}

double pairwiseSum(const std::vector<double> &Xs) {
  double Acc = NegInfinity;
  for (double X : Xs)
    Acc = pr_logaddexp(Acc, X);
  return Acc;
}

/// The relative bound of the long-double forward oracle
/// (DifferentialTest.ForwardWithinLongDoubleOracle).
constexpr double OracleRelErrBound = 1e-12;

} // namespace

TEST(LogSumExpTest, EmptyAndAllNegInfinityGiveNegInfinity) {
  EXPECT_EQ(onlineSum({}), NegInfinity);
  EXPECT_EQ(onlineSum({NegInfinity}), NegInfinity);
  EXPECT_EQ(onlineSum({NegInfinity, NegInfinity, NegInfinity}), NegInfinity);
}

TEST(LogSumExpTest, SingleElementIsReturnedExactly) {
  for (double X : {0.0, -1.5, 3.25, -745.1, 700.0, -1e300, 1e-310,
                   std::numeric_limits<double>::infinity()})
    EXPECT_EQ(onlineSum({X}), X) << X;
  // -inf elements around it are skipped.
  EXPECT_EQ(onlineSum({NegInfinity, -2.5, NegInfinity}), -2.5);
}

TEST(LogSumExpTest, TwoEqualElementsAddLogTwo) {
  for (double X : {0.0, -3.0, -46.7345, 12.5})
    EXPECT_EQ(onlineSum({X, X}), X + std::log(2.0)) << X;
}

TEST(LogSumExpTest, OrderAgreesWithinTheOracleBound) {
  // Seeded multisets of 1-32 elements spread over 60 nats, folded
  // ascending and descending, each against the sum in long double.
  uint64_t State = 0x9E3779B97F4A7C15ULL;
  auto Uniform = [&] {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(State >> 11) * 0x1.0p-53;
  };
  double WorstOnline = 0.0, WorstPairwise = 0.0;
  for (unsigned Trial = 0; Trial != 2000; ++Trial) {
    std::vector<double> Xs(1 + Trial % 32);
    double Offset = -100.0 * Uniform();
    for (double &X : Xs)
      X = Offset - 60.0 * Uniform();
    std::sort(Xs.begin(), Xs.end());
    long double Scaled = 0.0L;
    for (double X : Xs)
      Scaled += std::exp(static_cast<long double>(X) - Xs.back());
    long double Exact = Xs.back() + std::log(Scaled);
    double Tolerance =
        OracleRelErrBound * std::max(1.0L, std::fabs(Exact));
    auto Err = [&](double Got) {
      return static_cast<double>(std::fabs(Got - Exact) /
                                 std::max(1.0L, std::fabs(Exact)));
    };
    double Ascending = onlineSum(Xs);
    double AscendingPairwise = pairwiseSum(Xs);
    std::reverse(Xs.begin(), Xs.end());
    double Descending = onlineSum(Xs);
    EXPECT_LE(std::fabs(Ascending - Descending), Tolerance) << Trial;
    EXPECT_LE(Err(Ascending), OracleRelErrBound) << Trial;
    EXPECT_LE(Err(Descending), OracleRelErrBound) << Trial;
    WorstOnline =
        std::max({WorstOnline, Err(Ascending), Err(Descending)});
    WorstPairwise = std::max(
        {WorstPairwise, Err(AscendingPairwise), Err(pairwiseSum(Xs))});
  }
  std::printf("single sums vs long double, max relative error: "
              "online %.3g, pairwise %.3g\n",
              WorstOnline, WorstPairwise);
}

TEST(LogSumExpTest, InfinityAndNanFollowLogAddExp) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> Cases = {
      {Inf},        {1.0, Inf},          {Inf, 1.0}, {NegInfinity, Inf},
      {Inf, Inf},   {NaN},               {1.0, NaN}, {NaN, 1.0},
      {Inf, NaN},   {NaN, Inf},          {NegInfinity, NaN},
      {NaN, NegInfinity, 2.0}};
  for (size_t I = 0; I != Cases.size(); ++I) {
    double Pairwise = pairwiseSum(Cases[I]);
    double Online = onlineSum(Cases[I]);
    if (std::isnan(Pairwise))
      EXPECT_TRUE(std::isnan(Online)) << "case " << I;
    else
      EXPECT_EQ(Online, Pairwise) << "case " << I;
  }
}

TEST(LogSumExpTest, ExpWithinOneUlpOfExpl) {
  // Seeded arguments in (-708, 0]: a quarter in (-40, 0], where a sum's
  // terms mostly fall, the rest over the whole range. Each result must
  // be within 1 ulp of expl rounded to double.
  uint64_t State = 0x2545F4914F6CDD1DULL;
  auto Uniform = [&] {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(State >> 11) * 0x1.0p-53;
  };
  const unsigned N = 1000000;
  unsigned Exact = 0, Worse = 0;
  for (unsigned I = 0; I != N; ++I) {
    double X = (I % 4 == 0 ? -40.0 : pr_lse_min_arg) * Uniform();
    double Got = pr_lse_exp(X);
    double Want = static_cast<double>(std::exp(static_cast<long double>(X)));
    int64_t Ulps = static_cast<int64_t>(std::bit_cast<uint64_t>(Got) -
                                        std::bit_cast<uint64_t>(Want));
    if (Ulps == 0)
      ++Exact;
    if (Ulps > 1 || Ulps < -1) {
      if (++Worse <= 5)
        ADD_FAILURE() << std::hexfloat << "exp(" << X << ") = " << Got
                      << ", expl gives " << Want;
    }
  }
  EXPECT_EQ(Worse, 0u);
  std::printf("pr_lse_exp equal to expl rounded to double on %.4f%% of %u "
              "arguments\n",
              100.0 * Exact / N, N);
}

TEST(LogSumExpTest, ExpSpecialValues) {
  const double Inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(pr_lse_exp(0.0), 1.0);
  EXPECT_EQ(pr_lse_exp(-0.0), 1.0);
  EXPECT_EQ(pr_lse_exp(-Inf), 0.0);
  EXPECT_TRUE(
      std::isnan(pr_lse_exp(std::numeric_limits<double>::quiet_NaN())));
  for (double X : {std::nextafter(pr_lse_min_arg, -Inf), -708.5, -745.2,
                   -1e300})
    EXPECT_EQ(pr_lse_exp(X), 0.0) << X;
  // MinArg itself still gives a normal number.
  EXPECT_GE(pr_lse_exp(pr_lse_min_arg), std::numeric_limits<double>::min());
}

namespace {

/// Whether every lane of a lane-form result has the scalar form's bits.
bool sameBits(const pr_v4d &Lanes, const double (&Scalar)[4]) {
  for (unsigned L = 0; L != 4; ++L)
    if (std::bit_cast<uint64_t>(Lanes[L]) != std::bit_cast<uint64_t>(Scalar[L]))
      return false;
  return true;
}

/// The arguments no seeded draw reaches: -inf, NaN, both zeros, values
/// below pr_lse_min_arg (the boundary included), and the largest.
std::vector<double> specialArgs() {
  const double Inf = std::numeric_limits<double>::infinity();
  return {-Inf,
          std::numeric_limits<double>::quiet_NaN(),
          0.0,
          -0.0,
          pr_lse_min_arg,
          std::nextafter(pr_lse_min_arg, -Inf),
          -708.5,
          -745.2,
          -1e300,
          -std::numeric_limits<double>::denorm_min(),
          Inf,
          1.0};
}

} // namespace

TEST(LogSumExpTest, LaneExpEqualsScalarBitForBit) {
  // Seeded arguments over (-750, 0], so some fall below pr_lse_min_arg,
  // a different one in each lane; every lane position sees 10^6 of
  // them. Then every special argument in every lane, beside seeded ones.
  uint64_t State = 0x6A09E667F3BCC909ULL;
  auto Uniform = [&] {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(State >> 11) * 0x1.0p-53;
  };
  unsigned Mismatches = 0;
  auto Check = [&](const pr_v4d &X) {
    pr_v4d Got;
    pr_lse_exp_lanes(&Got, &X);
    double Want[4];
    for (unsigned L = 0; L != 4; ++L)
      Want[L] = pr_lse_exp(X[L]);
    if (!sameBits(Got, Want) && ++Mismatches <= 5)
      ADD_FAILURE() << std::hexfloat << "lanes of exp(" << X[0] << ", "
                    << X[1] << ", " << X[2] << ", " << X[3] << ")";
  };
  for (unsigned I = 0; I != 1000000; ++I) {
    pr_v4d X;
    for (unsigned L = 0; L != 4; ++L)
      X[L] = (I % 4 == L ? -40.0 : -750.0) * Uniform();
    Check(X);
  }
  for (double Special : specialArgs())
    for (unsigned L = 0; L != 4; ++L) {
      pr_v4d X = {-Uniform(), -10.0 * Uniform(), -700.0 * Uniform(),
                  -Uniform()};
      X[L] = Special;
      Check(X);
    }
  EXPECT_EQ(Mismatches, 0u);
}

TEST(LogSumExpTest, LaneAddEqualsScalarBitForBit) {
  // Four sums folded side by side, each lane against pr_lse_add on its
  // own (m, s). Three kinds of sequence: seeded elements in random
  // order, ascending elements (every element a new maximum, so every
  // add rescales), and special values mixed in, in every lane position.
  uint64_t State = 0xBB67AE8584CAA73BULL;
  auto Uniform = [&] {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(State >> 11) * 0x1.0p-53;
  };
  std::vector<double> Specials = specialArgs();
  unsigned Mismatches = 0, Elements = 0;
  for (unsigned Trial = 0; Trial != 64000; ++Trial) {
    pr_v4d M = {-INFINITY, -INFINITY, -INFINITY, -INFINITY};
    pr_v4d S = {0.0, 0.0, 0.0, 0.0};
    double Ms[4], Ss[4];
    for (unsigned L = 0; L != 4; ++L) {
      Ms[L] = -INFINITY;
      Ss[L] = 0.0;
    }
    unsigned Kind = Trial % 3;
    double Rising[4];
    for (unsigned L = 0; L != 4; ++L)
      Rising[L] = -60.0 * Uniform() - 30.0;
    for (unsigned E = 0; E != 1 + Trial % 32; ++E) {
      pr_v4d X;
      for (unsigned L = 0; L != 4; ++L) {
        if (Kind == 1) {
          Rising[L] += 3.0 * Uniform();
          X[L] = Rising[L];
        } else {
          X[L] = -100.0 * Uniform();
        }
      }
      if (Kind == 2 && E % 3 == 0)
        X[(Trial / 3 + E) % 4] = Specials[(Trial + E) % Specials.size()];
      pr_lse_add_lanes(&M, &S, &X);
      for (unsigned L = 0; L != 4; ++L)
        pr_lse_add(&Ms[L], &Ss[L], X[L]);
      ++Elements;
      if ((!sameBits(M, Ms) || !sameBits(S, Ss)) && ++Mismatches <= 5)
        ADD_FAILURE() << "trial " << Trial << " element " << E;
    }
  }
  EXPECT_EQ(Mismatches, 0u);
  EXPECT_GE(Elements, 1000000u);
}

namespace {

/// |Got - logl(X)| in ulps of logl(X) rounded to double.
double logUlpError(double X, double Got) {
  long double Exact = std::log(static_cast<long double>(X));
  double Want = static_cast<double>(Exact);
  double Ulp = std::nextafter(std::fabs(Want),
                              std::numeric_limits<double>::infinity()) -
               std::fabs(Want);
  return static_cast<double>(std::fabs(Got - Exact) / Ulp);
}

/// The first double of each of pr_lse_log's 128 subintervals, and the
/// last of the one before.
std::vector<double> logTableBoundaries() {
  std::vector<double> Bounds;
  for (uint64_t I = 0; I != pr_lse_table_size; ++I) {
    uint64_t First = 0x3fe6100000000000ULL + (I << 45);
    Bounds.push_back(std::bit_cast<double>(First));
    Bounds.push_back(std::bit_cast<double>(First - 1));
  }
  return Bounds;
}

} // namespace

TEST(LogSumExpTest, LogWithinOneUlpOfLogl) {
  // Seeded arguments in [1, 2^32], where a sum's s lies: a quarter in
  // [1, 2], the rest spread evenly over the binades. Then 1 and its
  // neighbours, every power of two, the subintervals' boundaries in
  // three binades, and subnormals.
  uint64_t State = 0x3C6EF372FE94F82BULL;
  auto Uniform = [&] {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(State >> 11) * 0x1.0p-53;
  };
  std::vector<double> Xs = {1.0, std::nextafter(1.0, 2.0),
                            std::nextafter(1.0, 0.0),
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::max()};
  for (int E = -1074; E != 1024; ++E)
    Xs.push_back(std::ldexp(1.0, E));
  for (double B : logTableBoundaries())
    for (int E : {-1, 0, 1, 20})
      Xs.push_back(std::ldexp(B, E));
  for (unsigned I = 0; I != 1000; ++I)
    Xs.push_back(Uniform() * std::numeric_limits<double>::min());
  for (unsigned I = 0; I != 1000000; ++I)
    Xs.push_back(I % 4 == 0 ? 1.0 + Uniform() : std::exp2(32.0 * Uniform()));
  double Worst = 0.0;
  unsigned Exact = 0, Worse = 0;
  for (double X : Xs) {
    double Got = pr_lse_log(X);
    double Err = logUlpError(X, Got);
    Worst = std::max(Worst, Err);
    Exact += Got == static_cast<double>(std::log(static_cast<long double>(X)));
    if (!(Err < 0.51) && ++Worse <= 5)
      ADD_FAILURE() << std::hexfloat << "log(" << X << ") = " << Got << ", "
                    << std::defaultfloat << Err << " ulp from logl";
  }
  EXPECT_EQ(Worse, 0u);
  std::printf("pr_lse_log: at most %.4f ulp from logl, and equal to logl "
              "rounded to double on %.4f%% of %zu arguments\n",
              Worst, 100.0 * Exact / Xs.size(), Xs.size());
}

TEST(LogSumExpTest, LogSpecialValues) {
  const double Inf = std::numeric_limits<double>::infinity();
  // The NaN x86-64 computes for 0 / 0, made at run time.
  volatile double Zero = 0.0;
  const uint64_t DefaultNaN = std::bit_cast<uint64_t>(Zero / Zero);
  EXPECT_EQ(std::bit_cast<uint64_t>(pr_lse_log(1.0)), 0u);
  EXPECT_EQ(pr_lse_log(0.0), -Inf);
  EXPECT_EQ(pr_lse_log(-0.0), -Inf);
  EXPECT_EQ(pr_lse_log(Inf), Inf);
  for (double X : {-1.0, -Inf, -std::numeric_limits<double>::denorm_min(),
                   -std::numeric_limits<double>::max()})
    EXPECT_EQ(std::bit_cast<uint64_t>(pr_lse_log(X)), DefaultNaN) << X;
  // A NaN passes through with its sign and payload.
  for (uint64_t Bits : {0x7ff8000000000000ULL, 0xfff8000000000000ULL,
                        0x7ff800000000beefULL})
    EXPECT_EQ(std::bit_cast<uint64_t>(
                  pr_lse_log(std::bit_cast<double>(Bits))),
              Bits);
  // Subnormals, the smallest normal and the largest double.
  for (double X : {std::numeric_limits<double>::denorm_min(), 0x1.8p-1060,
                   0x1.fffffffffffffp-1023,
                   std::numeric_limits<double>::min(),
                   std::numeric_limits<double>::max()})
    EXPECT_LT(logUlpError(X, pr_lse_log(X)), 0.51) << std::hexfloat << X;
}

TEST(LogSumExpTest, LogTableHoldsLogarithms) {
  // Entry i: 1/c with at most 10 significant bits, rounded from the
  // centre of subinterval i, and log c split into a multiple of 2^-42
  // and the rest, checked against logl.
  for (uint64_t I = 0; I != pr_lse_table_size; ++I) {
    double InvC = pr_lse_log_table[3 * I];
    double Hi = pr_lse_log_table[3 * I + 1], Lo = pr_lse_log_table[3 * I + 2];
    double Centre =
        std::bit_cast<double>(0x3fe6100000000000ULL + (I << 45) + (1ULL << 44));
    EXPECT_EQ(std::bit_cast<uint64_t>(InvC) & ((1ULL << 43) - 1), 0u) << I;
    EXPECT_LE(std::fabs(InvC * Centre - 1.0), 0x1p-10) << I;
    EXPECT_EQ(std::ldexp(Hi, 42), std::nearbyint(std::ldexp(Hi, 42))) << I;
    // Within 4 ulps of long double, logl's own precision.
    long double Want = -std::log(static_cast<long double>(InvC));
    EXPECT_LE(std::fabs(static_cast<long double>(Hi) + Lo - Want),
              std::fabs(Want) * 0x1p-61L)
        << I;
  }
  // The subinterval around 1 has c = 1.
  EXPECT_EQ(pr_lse_log_table[3 * 79], 1.0);
  EXPECT_EQ(pr_lse_log_table[3 * 79 + 1], 0.0);
}

TEST(LogSumExpTest, LaneResultEqualsScalarBitForBit) {
  // pr_lse_log_lanes and pr_lse_result_lanes, each lane against the
  // scalar form: seeded sums' (m, s), then lanes that hold an empty sum
  // (m = -inf, s = 0), a NaN, an s below 1 and every special argument,
  // in every lane position beside seeded ones.
  uint64_t State = 0x510E527FADE682D1ULL;
  auto Uniform = [&] {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(State >> 11) * 0x1.0p-53;
  };
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  unsigned Mismatches = 0;
  auto Check = [&](const pr_v4d &M, const pr_v4d &S) {
    pr_v4d Log, Result;
    pr_lse_log_lanes(&Log, &S);
    pr_lse_result_lanes(&Result, &M, &S);
    double WantLog[4], WantResult[4];
    for (unsigned L = 0; L != 4; ++L) {
      WantLog[L] = pr_lse_log(S[L]);
      WantResult[L] = pr_lse_result(M[L], S[L]);
    }
    if ((!sameBits(Log, WantLog) || !sameBits(Result, WantResult)) &&
        ++Mismatches <= 5)
      ADD_FAILURE() << std::hexfloat << "lanes of (" << M[0] << ", " << S[0]
                    << ") (" << M[1] << ", " << S[1] << ") (" << M[2]
                    << ", " << S[2] << ") (" << M[3] << ", " << S[3] << ")";
  };
  auto Seeded = [&] {
    return std::pair<double, double>{-200.0 * Uniform(),
                                      std::exp2(12.0 * Uniform())};
  };
  for (unsigned I = 0; I != 1000000; ++I) {
    pr_v4d M, S;
    for (unsigned L = 0; L != 4; ++L)
      std::tie(M[L], S[L]) = Seeded();
    Check(M, S);
  }
  std::vector<std::pair<double, double>> Specials = {
      {-Inf, 0.0}, {NaN, NaN}, {-3.0, NaN}, {NaN, 2.0}, {-3.0, 0.75},
      {-3.0, 0x1p-1070}, {-3.0, 0.0}, {-3.0, Inf}, {Inf, 1.0}, {-3.0, -1.0}};
  for (double X : specialArgs())
    Specials.push_back({-1.0, X});
  for (const auto &[Ms, Ss] : Specials)
    for (unsigned L = 0; L != 4; ++L) {
      pr_v4d M, S;
      for (unsigned K = 0; K != 4; ++K)
        std::tie(M[K], S[K]) = Seeded();
      M[L] = Ms;
      S[L] = Ss;
      Check(M, S);
    }
  EXPECT_EQ(Mismatches, 0u);
}

TEST(LogSumExpTest, ExpTableHoldsPowersOfTwo) {
  // Entry j: 2^(j/128) rounded to double (stored less j << 45) and the
  // relative tail of the rounding, checked against exp2l.
  for (uint64_t J = 0; J != pr_lse_table_size; ++J) {
    long double Exact = std::exp2(static_cast<long double>(J) / 128.0L);
    double Scale = std::bit_cast<double>(pr_lse_exp_table[2 * J + 1] +
                                         (J << (52 - pr_lse_table_bits)));
    EXPECT_EQ(Scale, static_cast<double>(Exact)) << J;
    double Tail = std::bit_cast<double>(pr_lse_exp_table[2 * J]);
    long double Want = (Exact - Scale) / Scale;
    EXPECT_LE(std::fabs(Tail - Want), 0x1.0p-62L) << J;
  }
}
