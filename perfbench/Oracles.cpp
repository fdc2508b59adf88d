//===- Oracles.cpp - Independent reference results ------------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "Oracles.h"

#include "baselines/HmmBaselines.h"
#include "baselines/SmithWaterman.h"
#include "bio/SubstitutionMatrix.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

using namespace parrec;

double perfbench::smithWatermanOracle(const bio::Sequence &Query,
                                      const bio::Sequence &Subject) {
  baselines::SwParams Params;
  Params.Matrix = &bio::SubstitutionMatrix::blosum62();
  Params.GapPenalty = 4;
  gpu::CostCounter Cost;
  return baselines::smithWatermanScore(Query, Subject, Params, Cost);
}

double perfbench::forwardOracle(const bio::Hmm &Model,
                                const bio::Sequence &Seq) {
  gpu::CostCounter Cost;
  return baselines::forwardLogLikelihood(Model, Seq, Cost);
}

double perfbench::viterbiOracle(const bio::Hmm &Model,
                                const bio::Sequence &Seq) {
  const double NegInf = -std::numeric_limits<double>::infinity();
  unsigned States = Model.numStates();
  std::vector<double> Prev(States, NegInf), Cur(States, NegInf);
  for (unsigned S = 0; S != States; ++S)
    Prev[S] = Model.state(S).IsStart ? 0.0 : NegInf;
  for (int64_t I = 1; I <= Seq.length(); ++I) {
    char C = Seq.at(I - 1);
    for (unsigned S = 0; S != States; ++S) {
      double Best = NegInf;
      for (unsigned T : Model.transitionsTo(S)) {
        const bio::HmmTransition &Tr = Model.transition(T);
        Best = std::max(Best, std::log(Tr.Prob) + Prev[Tr.From]);
      }
      double Emit =
          Model.state(S).IsEnd ? 0.0 : std::log(Model.emission(S, C));
      Cur[S] = Emit + Best;
    }
    std::swap(Prev, Cur);
  }
  return Prev[States - 1];
}

bool perfbench::matches(double Got, double Expected, bool Exact) {
  if (Exact)
    return Got == Expected;
  if (std::isinf(Expected) || std::isinf(Got))
    return Got == Expected;
  return std::fabs(Got - Expected) <=
         LogSpaceTolerance * std::max(1.0, std::fabs(Expected));
}

bool perfbench::oracleSelfCheck(double Got, bool Exact) {
  double Corrupted =
      Exact ? Got + 1.0 : Got + 1e-6 * std::max(1.0, std::fabs(Got));
  if (std::isinf(Got))
    Corrupted = 0.0;
  return matches(Got, Got, Exact) && !matches(Got, Corrupted, Exact);
}
