//===- Evaluator.cpp - Executable form of compiled DSL functions ------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "codegen/Evaluator.h"

#include "codegen/LogSpace.h"

#include <cmath>
#include <limits>

using namespace parrec;
using namespace parrec::codegen;
using namespace parrec::lang;

void HmmLogCache::build(const bio::Hmm &Hmm) {
  Model = &Hmm;
  LogTransitionProbs.resize(Hmm.numTransitions());
  for (unsigned T = 0; T != Hmm.numTransitions(); ++T)
    LogTransitionProbs[T] = pr_tolog(Hmm.transition(T).Prob);
  LogEmissions.resize(Hmm.numStates());
  unsigned AlphaSize = Hmm.alphabet().size();
  EmissionStride = AlphaSize + 1;
  Emissions.assign(static_cast<size_t>(Hmm.numStates()) * EmissionStride,
                   0.0);
  for (unsigned S = 0; S != Hmm.numStates(); ++S) {
    const bio::HmmState &State = Hmm.state(S);
    if (State.isSilent())
      continue;
    LogEmissions[S].resize(AlphaSize);
    double *Dense = Emissions.data() + static_cast<size_t>(S) * EmissionStride;
    for (unsigned C = 0; C != AlphaSize; ++C)
      Dense[C] = LogEmissions[S][C] = pr_tolog(State.Emissions[C]);
    Dense[AlphaSize] = NegInfinity;
  }
  CharCol.resize(256);
  for (unsigned C = 0; C != 256; ++C) {
    int Index = Hmm.alphabet().indexOf(static_cast<char>(C));
    CharCol[C] = static_cast<uint16_t>(Index >= 0 ? Index : AlphaSize);
  }
}

bool parrec::codegen::validateForExecution(const FunctionDecl &F,
                                           DiagnosticEngine &Diags) {
  bool Ok = true;
  std::vector<const Expr *> Stack = {F.Body.get()};
  while (!Stack.empty()) {
    const Expr *E = Stack.back();
    Stack.pop_back();
    switch (E->getKind()) {
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      if (B->ExprType.Kind == TypeKind::Prob &&
          B->Op == BinaryOp::Sub) {
        Diags.error(E->getLoc(),
                    "subtraction of probabilities is not supported by "
                    "the log-space backend");
        Ok = false;
      }
      Stack.push_back(B->Lhs.get());
      Stack.push_back(B->Rhs.get());
      break;
    }
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      Stack.push_back(I->Condition.get());
      Stack.push_back(I->ThenExpr.get());
      Stack.push_back(I->ElseExpr.get());
      break;
    }
    case ExprKind::Call:
      for (const ExprPtr &A : cast<CallExpr>(E)->Args)
        Stack.push_back(A.get());
      break;
    case ExprKind::SeqIndex:
      Stack.push_back(cast<SeqIndexExpr>(E)->Index.get());
      break;
    case ExprKind::MatrixIndex:
      Stack.push_back(cast<MatrixIndexExpr>(E)->Row.get());
      Stack.push_back(cast<MatrixIndexExpr>(E)->Col.get());
      break;
    case ExprKind::Member:
      Stack.push_back(cast<MemberExpr>(E)->Base.get());
      if (cast<MemberExpr>(E)->Arg)
        Stack.push_back(cast<MemberExpr>(E)->Arg.get());
      break;
    case ExprKind::Reduction: {
      const auto *R = cast<ReductionExpr>(E);
      const auto *Domain = dyn_cast<MemberExpr>(R->Domain.get());
      if (!Domain || (Domain->Member != MemberKind::TransitionsTo &&
                      Domain->Member != MemberKind::TransitionsFrom)) {
        Diags.error(R->Domain->getLoc(),
                    "reduction domains must be .transitionsto or "
                    ".transitionsfrom expressions");
        Ok = false;
      }
      Stack.push_back(R->Domain.get());
      Stack.push_back(R->Body.get());
      break;
    }
    default:
      break;
    }
  }
  return Ok;
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

/// A dynamic value during evaluation. Probabilities live in the Real slot
/// in log space; states and transitions are integer indices.
struct Evaluator::RuntimeValue {
  enum class Kind { Int, Real, Bool, Char } K = Kind::Int;
  int64_t I = 0;
  double D = 0.0;
  bool B = false;
  char C = 0;

  static RuntimeValue ofInt(int64_t V) {
    RuntimeValue R;
    R.K = Kind::Int;
    R.I = V;
    return R;
  }
  static RuntimeValue ofReal(double V) {
    RuntimeValue R;
    R.K = Kind::Real;
    R.D = V;
    return R;
  }
  static RuntimeValue ofBool(bool V) {
    RuntimeValue R;
    R.K = Kind::Bool;
    R.B = V;
    return R;
  }
  static RuntimeValue ofChar(char V) {
    RuntimeValue R;
    R.K = Kind::Char;
    R.C = V;
    return R;
  }

  double asDouble() const { return K == Kind::Int ? double(I) : D; }
};

struct Evaluator::EvalContext {
  const int64_t *Point = nullptr;
  const TableView *Table = nullptr;
  gpu::CostCounter *Cost = nullptr;
  // Reduction bindings, innermost last. Tiny in practice.
  struct Binding {
    const std::string *Name;
    int64_t TransitionIndex;
    const bio::Hmm *Hmm;
    const HmmLogCache *Cache;
  };
  std::vector<Binding> Reductions;
};

Evaluator::Evaluator(const FunctionDecl &F, const FunctionInfo &Info)
    : Decl(F), Info(Info) {
  ParamToDim.assign(F.Params.size(), -1);
  for (unsigned D = 0; D != Info.Dims.size(); ++D)
    ParamToDim[Info.Dims[D].ParamIndex] = static_cast<int>(D);
}

void Evaluator::bind(std::vector<ArgValue> Args) {
  assert(Args.size() == Decl.Params.size() &&
         "one argument per declared parameter");
  this->Args = std::move(Args);
  HmmCaches.assign(this->Args.size(), {});
  for (unsigned I = 0; I != this->Args.size(); ++I)
    if (Decl.Params[I].ParamType.Kind == TypeKind::Hmm &&
        this->Args[I].Hmm)
      HmmCaches[I].build(*this->Args[I].Hmm);
}

double Evaluator::evalCell(const int64_t *Point, const TableView &Table,
                           gpu::CostCounter &Cost) const {
  EvalContext Ctx;
  Ctx.Point = Point;
  Ctx.Table = &Table;
  Ctx.Cost = &Cost;
  RuntimeValue V = evalExpr(Decl.Body.get(), Ctx);
  Cost.TableWrites += 1;
  switch (Decl.ReturnType.Kind) {
  case TypeKind::Prob: {
    // The body's static type may be float (literals); convert linear ->
    // log if needed.
    if (Decl.Body->ExprType.Kind == TypeKind::Prob)
      return V.asDouble();
    return pr_tolog(V.asDouble());
  }
  case TypeKind::Bool:
    return V.K == RuntimeValue::Kind::Bool ? (V.B ? 1.0 : 0.0)
                                           : V.asDouble();
  default:
    return V.asDouble();
  }
}

Evaluator::RuntimeValue Evaluator::evalExpr(const Expr *E,
                                            EvalContext &Ctx) const {
  using RV = RuntimeValue;
  switch (E->getKind()) {
  case ExprKind::IntLiteral:
    return RV::ofInt(cast<IntLiteralExpr>(E)->Value);
  case ExprKind::FloatLiteral:
    return RV::ofReal(cast<FloatLiteralExpr>(E)->Value);
  case ExprKind::BoolLiteral:
    return RV::ofBool(cast<BoolLiteralExpr>(E)->Value);
  case ExprKind::CharLiteral:
    return RV::ofChar(cast<CharLiteralExpr>(E)->Value);

  case ExprKind::VarRef: {
    const auto *V = cast<VarRefExpr>(E);
    if (V->ParamIndex < 0) {
      // A reduction variable: the bound transition index.
      for (auto It = Ctx.Reductions.rbegin(); It != Ctx.Reductions.rend();
           ++It)
        if (*It->Name == V->Name)
          return RV::ofInt(It->TransitionIndex);
      assert(false && "unbound reduction variable");
      return RV::ofInt(0);
    }
    unsigned P = static_cast<unsigned>(V->ParamIndex);
    int Dim = ParamToDim[P];
    if (Dim >= 0)
      return RV::ofInt(Ctx.Point[Dim]);
    const Type &T = Decl.Params[P].ParamType;
    switch (T.Kind) {
    case TypeKind::Int:
      return RV::ofInt(Args[P].Int);
    case TypeKind::Float:
      return RV::ofReal(Args[P].Real);
    case TypeKind::Prob:
      return RV::ofReal(Args[P].Real); // Already log space by contract.
    default:
      // Seq/matrix/hmm references are consumed by their parent nodes.
      return RV::ofInt(static_cast<int64_t>(P));
    }
  }

  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    RV L = evalExpr(B->Lhs.get(), Ctx);
    RV R = evalExpr(B->Rhs.get(), Ctx);
    Ctx.Cost->Ops += 1;
    const Type &ResultType = B->ExprType;

    // Comparisons: two ints as int64 values, so ints beyond 2^53 that
    // round to one double still differ; any other pair but like-kind
    // char/bool equality through asDouble.
    bool BothInt = L.K == RV::Kind::Int && R.K == RV::Kind::Int;
    switch (B->Op) {
    case BinaryOp::Lt:
      return RV::ofBool(BothInt ? L.I < R.I : L.asDouble() < R.asDouble());
    case BinaryOp::Gt:
      return RV::ofBool(BothInt ? L.I > R.I : L.asDouble() > R.asDouble());
    case BinaryOp::Le:
      return RV::ofBool(BothInt ? L.I <= R.I : L.asDouble() <= R.asDouble());
    case BinaryOp::Ge:
      return RV::ofBool(BothInt ? L.I >= R.I : L.asDouble() >= R.asDouble());
    case BinaryOp::Eq:
    case BinaryOp::Ne: {
      bool Equal;
      if (BothInt)
        Equal = L.I == R.I;
      else if (L.K == RV::Kind::Char && R.K == RV::Kind::Char)
        Equal = L.C == R.C;
      else if (L.K == RV::Kind::Bool && R.K == RV::Kind::Bool)
        Equal = L.B == R.B;
      else
        Equal = L.asDouble() == R.asDouble();
      return RV::ofBool(B->Op == BinaryOp::Eq ? Equal : !Equal);
    }
    default:
      break;
    }

    // Probability arithmetic in log space.
    if (ResultType.Kind == TypeKind::Prob) {
      auto AsLog = [&](const RV &V, const Expr *Operand) {
        if (Operand->ExprType.Kind == TypeKind::Prob)
          return V.asDouble();
        return pr_tolog(V.asDouble());
      };
      double A = AsLog(L, B->Lhs.get());
      double C = AsLog(R, B->Rhs.get());
      switch (B->Op) {
      case BinaryOp::Mul:
        return RV::ofReal(A + C);
      case BinaryOp::Div:
        return RV::ofReal(A - C);
      case BinaryOp::Add:
        Ctx.Cost->Ops += 2; // Compare + add around the exp/log pair.
        Ctx.Cost->Transcendentals += 1;
        return RV::ofReal(pr_logaddexp(A, C));
      case BinaryOp::Min:
        return RV::ofReal(A < C ? A : C);
      case BinaryOp::Max:
        return RV::ofReal(A > C ? A : C);
      default:
        assert(false && "unsupported probability operation");
        return RV::ofReal(NegInfinity);
      }
    }

    // Integer arithmetic stays integral; + - * wrap in two's complement,
    // computed in uint64_t, where C++ defines the wrap.
    if (L.K == RV::Kind::Int && R.K == RV::Kind::Int) {
      uint64_t X = static_cast<uint64_t>(L.I), Y = static_cast<uint64_t>(R.I);
      switch (B->Op) {
      case BinaryOp::Add:
        return RV::ofInt(static_cast<int64_t>(X + Y));
      case BinaryOp::Sub:
        return RV::ofInt(static_cast<int64_t>(X - Y));
      case BinaryOp::Mul:
        return RV::ofInt(static_cast<int64_t>(X * Y));
      case BinaryOp::Div:
        return RV::ofInt(pr_div_i64(L.I, R.I));
      case BinaryOp::Min:
        return RV::ofInt(L.I < R.I ? L.I : R.I);
      case BinaryOp::Max:
        return RV::ofInt(L.I > R.I ? L.I : R.I);
      default:
        break;
      }
    }
    double A = L.asDouble(), C = R.asDouble();
    switch (B->Op) {
    case BinaryOp::Add:
      return RV::ofReal(A + C);
    case BinaryOp::Sub:
      return RV::ofReal(A - C);
    case BinaryOp::Mul:
      return RV::ofReal(A * C);
    case BinaryOp::Div:
      return RV::ofReal(A / C);
    case BinaryOp::Min:
      return RV::ofReal(A < C ? A : C);
    case BinaryOp::Max:
      return RV::ofReal(A > C ? A : C);
    default:
      assert(false && "unhandled binary operator");
      return RV::ofReal(0.0);
    }
  }

  case ExprKind::If: {
    const auto *I = cast<IfExpr>(E);
    RV Cond = evalExpr(I->Condition.get(), Ctx);
    Ctx.Cost->Ops += 1;
    const Expr *Chosen =
        Cond.B ? I->ThenExpr.get() : I->ElseExpr.get();
    RV V = evalExpr(Chosen, Ctx);
    // Convert linear branches feeding a prob-typed if.
    if (I->ExprType.Kind == TypeKind::Prob &&
        Chosen->ExprType.Kind != TypeKind::Prob)
      return RV::ofReal(pr_tolog(V.asDouble()));
    return V;
  }

  case ExprKind::Call: {
    const auto *C = cast<CallExpr>(E);
    int64_t Target[8];
    assert(C->Args.size() <= 8 && "recursion arity limit");
    for (unsigned I = 0; I != C->Args.size(); ++I) {
      RV A = evalExpr(C->Args[I].get(), Ctx);
      Target[I] = A.I;
    }
    Ctx.Cost->TableReads += 1;
    double Stored = Ctx.Table->get(Target);
    switch (Decl.ReturnType.Kind) {
    case TypeKind::Prob:
    case TypeKind::Float:
      return RV::ofReal(Stored);
    case TypeKind::Bool:
      return RV::ofBool(Stored != 0.0);
    default:
      return RV::ofInt(pr_round_i64(Stored));
    }
  }

  case ExprKind::SeqIndex: {
    const auto *S = cast<SeqIndexExpr>(E);
    RV IndexValue = evalExpr(S->Index.get(), Ctx);
    const bio::Sequence *Seq =
        Args[static_cast<unsigned>(S->SeqParamIndex)].Seq;
    assert(Seq && "sequence parameter not bound");
    Ctx.Cost->ModelReads += 1;
    return RV::ofChar(Seq->at(IndexValue.I));
  }

  case ExprKind::MatrixIndex: {
    const auto *M = cast<MatrixIndexExpr>(E);
    RV Row = evalExpr(M->Row.get(), Ctx);
    RV Col = evalExpr(M->Col.get(), Ctx);
    const bio::SubstitutionMatrix *Matrix =
        Args[static_cast<unsigned>(M->MatrixParamIndex)].Matrix;
    assert(Matrix && "matrix parameter not bound");
    Ctx.Cost->ModelReads += 1;
    return RV::ofInt(Matrix->score(Row.C, Col.C));
  }

  case ExprKind::Member: {
    const auto *M = cast<MemberExpr>(E);
    // Locate the HMM this member operates on: the base is either a state
    // parameter (a recursion dimension), a reduction variable, or a
    // nested member (t.start.isend).
    RV Base = evalExpr(M->Base.get(), Ctx);
    const bio::Hmm *Hmm = nullptr;
    const HmmLogCache *Cache = nullptr;
    const Type &BaseType = M->Base->ExprType;
    // Resolve the hmm parameter by name from the base's type.
    for (unsigned P = 0; P != Decl.Params.size(); ++P)
      if (Decl.Params[P].Name == BaseType.RefParam) {
        Hmm = Args[P].Hmm;
        Cache = &HmmCaches[P];
        break;
      }
    assert(Hmm && "member access on unbound hmm");
    switch (M->Member) {
    case MemberKind::Start:
      Ctx.Cost->ModelReads += 1;
      return RV::ofInt(
          Hmm->transition(static_cast<unsigned>(Base.I)).From);
    case MemberKind::End:
      Ctx.Cost->ModelReads += 1;
      return RV::ofInt(
          Hmm->transition(static_cast<unsigned>(Base.I)).To);
    case MemberKind::Prob:
      Ctx.Cost->ModelReads += 1;
      return RV::ofReal(
          Cache->LogTransitionProbs[static_cast<size_t>(Base.I)]);
    case MemberKind::IsStart:
      Ctx.Cost->Ops += 1;
      return RV::ofBool(Hmm->state(static_cast<unsigned>(Base.I)).IsStart);
    case MemberKind::IsEnd:
      Ctx.Cost->Ops += 1;
      return RV::ofBool(Hmm->state(static_cast<unsigned>(Base.I)).IsEnd);
    case MemberKind::Emission: {
      RV C = evalExpr(M->Arg.get(), Ctx);
      Ctx.Cost->ModelReads += 1;
      unsigned State = static_cast<unsigned>(Base.I);
      const std::vector<double> &Row = Cache->LogEmissions[State];
      if (Row.empty())
        return RV::ofReal(0.0); // Silent states emit with log-prob 0.
      int Index = Hmm->alphabet().indexOf(C.C);
      if (Index < 0)
        return RV::ofReal(NegInfinity);
      return RV::ofReal(Row[static_cast<size_t>(Index)]);
    }
    case MemberKind::TransitionsTo:
    case MemberKind::TransitionsFrom:
      // Consumed by ReductionExpr; the state index flows through.
      return Base;
    }
    return RV::ofInt(0);
  }

  case ExprKind::Reduction: {
    const auto *R = cast<ReductionExpr>(E);
    const auto *Domain = cast<MemberExpr>(R->Domain.get());
    RV StateValue = evalExpr(Domain->Base.get(), Ctx);
    const bio::Hmm *Hmm = nullptr;
    const HmmLogCache *Cache = nullptr;
    const Type &BaseType = Domain->Base->ExprType;
    for (unsigned P = 0; P != Decl.Params.size(); ++P)
      if (Decl.Params[P].Name == BaseType.RefParam) {
        Hmm = Args[P].Hmm;
        Cache = &HmmCaches[P];
        break;
      }
    assert(Hmm && "reduction over unbound hmm");
    unsigned State = static_cast<unsigned>(StateValue.I);
    const std::vector<unsigned> &Set =
        Domain->Member == MemberKind::TransitionsTo
            ? Hmm->transitionsTo(State)
            : Hmm->transitionsFrom(State);

    bool IsProb = R->ExprType.Kind == TypeKind::Prob;
    bool First = true;
    // Identities for empty sets: sum -> 0 (log 0 = -inf for probs, which
    // ProbSum yields), max -> -inf / INT64_MIN, min -> +inf / INT64_MAX.
    LogSumExp ProbSum;
    double AccumReal = 0.0;
    int64_t AccumInt = 0;
    switch (R->Reduction) {
    case ReductionKind::Sum:
      break;
    case ReductionKind::Max:
      AccumReal = NegInfinity;
      AccumInt = std::numeric_limits<int64_t>::min();
      break;
    case ReductionKind::Min:
      AccumReal = std::numeric_limits<double>::infinity();
      AccumInt = std::numeric_limits<int64_t>::max();
      break;
    }

    Ctx.Reductions.push_back({&R->VarName, 0, Hmm, Cache});
    for (unsigned T : Set) {
      Ctx.Reductions.back().TransitionIndex = static_cast<int64_t>(T);
      RV Body = evalExpr(R->Body.get(), Ctx);
      double BodyLog = 0.0;
      if (IsProb)
        BodyLog = R->Body->ExprType.Kind == TypeKind::Prob
                      ? Body.asDouble()
                      : pr_tolog(Body.asDouble());
      switch (R->Reduction) {
      case ReductionKind::Sum:
        if (IsProb) {
          // Charged as the paper's pairwise log-add (DESIGN.md §4,
          // decision 3).
          Ctx.Cost->Ops += 2;
          Ctx.Cost->Transcendentals += 1;
          ProbSum.add(BodyLog);
        } else if (Body.K == RV::Kind::Int) {
          Ctx.Cost->Ops += 1;
          AccumInt += Body.I;
        } else {
          Ctx.Cost->Ops += 1;
          AccumReal += Body.asDouble();
        }
        break;
      case ReductionKind::Min:
        Ctx.Cost->Ops += 1;
        if (IsProb) {
          AccumReal = First ? BodyLog : std::min(AccumReal, BodyLog);
        } else if (Body.K == RV::Kind::Int) {
          AccumInt = First ? Body.I : std::min(AccumInt, Body.I);
        } else {
          AccumReal =
              First ? Body.asDouble() : std::min(AccumReal, Body.asDouble());
        }
        break;
      case ReductionKind::Max:
        Ctx.Cost->Ops += 1;
        if (IsProb) {
          AccumReal = First ? BodyLog : std::max(AccumReal, BodyLog);
        } else if (Body.K == RV::Kind::Int) {
          AccumInt = First ? Body.I : std::max(AccumInt, Body.I);
        } else {
          AccumReal =
              First ? Body.asDouble() : std::max(AccumReal, Body.asDouble());
        }
        break;
      }
      First = false;
    }
    Ctx.Reductions.pop_back();

    if (IsProb && R->Reduction == ReductionKind::Sum)
      return RV::ofReal(ProbSum.result());
    if (IsProb || R->ExprType.Kind == TypeKind::Float)
      return RV::ofReal(AccumReal);
    return RV::ofInt(AccumInt);
  }
  }
  assert(false && "unhandled expression kind");
  return RuntimeValue::ofInt(0);
}
