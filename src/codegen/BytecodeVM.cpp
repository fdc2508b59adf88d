//===- BytecodeVM.cpp - Register VM for compiled cell bodies ----------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "codegen/BytecodeVM.h"

using namespace parrec;
using namespace parrec::codegen;

void BytecodeVM::bind(const Evaluator &Eval) {
  const std::vector<ArgValue> &Args = Eval.boundArgs();
  const std::vector<HmmLogCache> &Caches = Eval.hmmCaches();
  assert(Args.size() == Prog->ParamClasses.size() &&
         "binding does not match the compiled function");

  size_t N = Args.size();
  Seqs.assign(N, {});
  Matrices.assign(N, nullptr);
  Hmms.assign(N, {});
  IntArgs.assign(N, 0);
  RealArgs.assign(N, 0.0);

  for (size_t P = 0; P != N; ++P) {
    switch (Prog->ParamClasses[P]) {
    case ParamClass::Seq:
      if (const bio::Sequence *S = Args[P].Seq) {
        Seqs[P].Data = S->data().data();
        Seqs[P].Len = S->length();
      }
      break;
    case ParamClass::Matrix:
      Matrices[P] = Args[P].Matrix;
      break;
    case ParamClass::Hmm: {
      const HmmLogCache &C = Caches[P];
      Hmms[P] = BoundHmm{Args[P].Hmm, C.LogTransitionProbs.data(),
                         C.Emissions.data(), C.EmissionStride,
                         C.CharCol.data()};
      break;
    }
    case ParamClass::Int:
      IntArgs[P] = Args[P].Int;
      break;
    case ParamClass::Real:
      RealArgs[P] = Args[P].Real;
      break;
    case ParamClass::Unused:
      break;
    }
  }
}
