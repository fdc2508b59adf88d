//===- Bytecode.cpp - One-pass compiler from typed ASTs to bytecode ---------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// The compiler mirrors Evaluator::evalExpr case by case: every dynamic
// decision the tree-walker makes from RuntimeValue kinds is made here
// statically (kinds are fully determined by the expression structure),
// and every cost event the tree-walker charges is attached to the
// instruction that replaces the charging subtree. Where the walker's
// dynamic behaviour cannot be pinned down statically — mismatched branch
// kinds, non-boolean conditions, exotic kind coercions — compilation
// throws Unsupported and the caller keeps the AST evaluator.
//
//===----------------------------------------------------------------------===//

#include "codegen/Bytecode.h"

#include "codegen/LogSpace.h"

#include <cassert>
#include <cstring>
#include <limits>
#include <optional>

using namespace parrec;
using namespace parrec::codegen;
using namespace parrec::lang;

namespace {

/// Internal bail-out: the body uses a construct the bytecode cannot
/// reproduce bit-exactly. Never escapes compileToBytecode.
struct Unsupported {};

/// The static runtime kind of a value, mirroring RuntimeValue::Kind.
enum class VKind : uint8_t { Int, Real, Bool, Char };

/// A compiled (sub)expression: either a known constant that has not been
/// materialised yet (enabling constant folding), or a register. Constants
/// carry the cost the tree-walker would have charged computing the folded
/// subtree; it is attached to the eventual immediate load so totals never
/// drift.
struct Value {
  VKind Kind = VKind::Int;
  bool IsConst = false;
  int64_t CI = 0; // Const payload for Int/Bool/Char.
  double CD = 0.0; // Const payload for Real.
  InstrCost Cost;  // Pending cost (constants only).
  int32_t Reg = -1;
};

/// Adds \p B into \p A; fails (no fold) on uint16 overflow.
bool addCost(InstrCost &A, const InstrCost &B) {
  auto Fits = [](uint32_t X) { return X <= 0xFFFFu; };
  if (!Fits(A.Ops + B.Ops) || !Fits(A.TableReads + B.TableReads) ||
      !Fits(A.TableWrites + B.TableWrites) ||
      !Fits(A.ModelReads + B.ModelReads) ||
      !Fits(A.Transcendentals + B.Transcendentals))
    return false;
  A += B;
  return true;
}

class Compiler {
public:
  Compiler(const FunctionDecl &F, const FunctionInfo &Info)
      : F(F), Info(Info) {
    ParamToDim.assign(F.Params.size(), -1);
    DimReg.assign(Info.Dims.size(), -1);
    for (unsigned D = 0; D != Info.Dims.size(); ++D)
      ParamToDim[Info.Dims[D].ParamIndex] = static_cast<int>(D);
    P.NumDims = static_cast<uint32_t>(Info.Dims.size());
  }

  std::shared_ptr<const BytecodeProgram> run() {
    Value Result = compileExpr(F.Body.get());
    finishResult(Result);
    // A function whose result is an int register stores only
    // double(int64) values, which a plain conversion reads back exactly.
    // Any other int function (a float body, which Sema admits) rounds.
    if (P.Conv != ResultConv::IntSlot)
      for (Instr &I : P.Code)
        if (I.Op == Opcode::TableReadInt)
          I.Op = Opcode::TableReadRoundInt;
    P.NumRegs = static_cast<uint32_t>(NextReg);
    P.ParamClasses.reserve(F.Params.size());
    for (const Param &Pm : F.Params)
      P.ParamClasses.push_back(classify(Pm.ParamType));
    // The VM accumulates the packed cost lanes in one uint64; forward-only
    // jumps mean one pass executes each instruction at most once, so lane
    // carries are impossible exactly when every whole-code lane total
    // fits 16 bits. Anything bigger falls back to the tree-walker.
    uint64_t LaneTotals[4] = {0, 0, 0, 0};
    for (const Instr &I : P.Code)
      for (unsigned L = 0; L != 4; ++L)
        LaneTotals[L] += (I.Cost >> (16 * L)) & 0xFFFF;
    for (unsigned L = 0; L != 4; ++L)
      if (LaneTotals[L] > 0xFFFF)
        throw Unsupported{};
    return std::make_shared<const BytecodeProgram>(std::move(P));
  }

private:
  const FunctionDecl &F;
  const FunctionInfo &Info;
  BytecodeProgram P;
  std::vector<int> ParamToDim;
  int32_t NextReg = 0;

  struct Scope {
    const std::string *Name;
    int32_t Reg;
  };
  std::vector<Scope> ReduceScopes; // Innermost last.

  // Local value numbering for the two cheapest, most re-referenced value
  // classes: recursion-dimension loads and cost-free constants. Registers
  // are single-assignment, so a cached register stays valid for as long
  // as its defining instruction dominates the use — entries created
  // inside an if-branch or a reduction body are rolled back on exit.
  std::vector<int32_t> DimReg; // dim -> register holding Point[dim]
  struct ConstEntry {
    bool IsReal;
    int64_t Bits;
    int32_t Reg;
  };
  std::vector<ConstEntry> ConstCache;

  struct CseSnapshot {
    std::vector<int32_t> Dims;
    size_t NumConsts;
  };
  CseSnapshot saveCse() const { return {DimReg, ConstCache.size()}; }
  void restoreCse(const CseSnapshot &S) {
    DimReg = S.Dims;
    ConstCache.resize(S.NumConsts);
  }

  static bool isFree(const InstrCost &C) {
    return C.Ops == 0 && C.TableReads == 0 && C.TableWrites == 0 &&
           C.ModelReads == 0 && C.Transcendentals == 0;
  }

  static ParamClass classify(const Type &T) {
    switch (T.Kind) {
    case TypeKind::Seq:
      return ParamClass::Seq;
    case TypeKind::Matrix:
      return ParamClass::Matrix;
    case TypeKind::Hmm:
      return ParamClass::Hmm;
    case TypeKind::Int:
      return ParamClass::Int;
    case TypeKind::Float:
    case TypeKind::Prob:
      return ParamClass::Real;
    default:
      return ParamClass::Unused;
    }
  }

  int32_t newReg() {
    if (NextReg >= std::numeric_limits<int16_t>::max())
      throw Unsupported{};
    return NextReg++;
  }

  /// Narrows an operand into the packed 16-bit instruction field,
  /// bailing to the AST evaluator on (absurdly large) overflow.
  static int16_t operand(int32_t V) {
    if (V < std::numeric_limits<int16_t>::min() ||
        V > std::numeric_limits<int16_t>::max())
      throw Unsupported{};
    return static_cast<int16_t>(V);
  }

  size_t emit(Opcode Op, InstrCost Cost, int32_t A, int32_t B = 0,
              int32_t C = 0, int32_t D = 0) {
    // Expression costs never include table writes (only the per-cell
    // store does), which is what lets the packed encoding drop the lane.
    if (Cost.TableWrites != 0)
      throw Unsupported{};
    Instr I;
    I.Op = Op;
    I.Cost = packInstrCost(Cost);
    I.A = operand(A);
    I.B = operand(B);
    I.C = operand(C);
    I.D = operand(D);
    if (P.Code.size() >=
        static_cast<size_t>(std::numeric_limits<int16_t>::max()))
      throw Unsupported{};
    P.Code.push_back(I);
    return P.Code.size() - 1;
  }

  size_t emitImmI(Opcode Op, InstrCost Cost, int32_t A, int64_t Imm) {
    size_t Pc = emit(Op, Cost, A);
    P.Code[Pc].Imm.I = Imm;
    return Pc;
  }

  size_t emitImmD(Opcode Op, InstrCost Cost, int32_t A, double Imm) {
    size_t Pc = emit(Op, Cost, A);
    P.Code[Pc].Imm.D = Imm;
    return Pc;
  }

  static Value constInt(VKind K, int64_t V, InstrCost Cost = {}) {
    Value R;
    R.Kind = K;
    R.IsConst = true;
    R.CI = V;
    R.Cost = Cost;
    return R;
  }
  static Value constReal(double V, InstrCost Cost = {}) {
    Value R;
    R.Kind = VKind::Real;
    R.IsConst = true;
    R.CD = V;
    R.Cost = Cost;
    return R;
  }
  static Value regValue(VKind K, int32_t Reg) {
    Value R;
    R.Kind = K;
    R.Reg = Reg;
    return R;
  }

  /// Emits the immediate load for a pending constant (or returns the
  /// existing register). The constant's accumulated cost rides on the
  /// load instruction.
  int32_t materialize(Value &V) {
    if (!V.IsConst)
      return V.Reg;
    // Cost-free constants can share one register per distinct bit
    // pattern (pending-cost constants must charge their cost at every
    // materialisation site, so they always load fresh).
    bool Cacheable = isFree(V.Cost);
    bool IsReal = V.Kind == VKind::Real;
    int64_t Bits = IsReal ? bitsOfDouble(V.CD) : V.CI;
    if (Cacheable)
      for (const ConstEntry &E : ConstCache)
        if (E.IsReal == IsReal && E.Bits == Bits) {
          V.IsConst = false;
          V.Reg = E.Reg;
          return E.Reg;
        }
    int32_t Dst = newReg();
    materializeInto(V, Dst);
    if (Cacheable)
      ConstCache.push_back({IsReal, Bits, Dst});
    V.IsConst = false;
    V.Reg = Dst;
    V.Cost = {};
    return Dst;
  }

  static int64_t bitsOfDouble(double D) {
    int64_t Bits;
    static_assert(sizeof(Bits) == sizeof(D), "double must be 64-bit");
    std::memcpy(&Bits, &D, sizeof(Bits));
    return Bits;
  }

  void materializeInto(const Value &V, int32_t Dst) {
    if (V.IsConst) {
      if (V.Kind == VKind::Real)
        emitImmD(Opcode::ConstReal, V.Cost, Dst, V.CD);
      else
        emitImmI(Opcode::ConstInt, V.Cost, Dst, V.CI);
      return;
    }
    emit(Opcode::Move, {}, Dst, V.Reg);
  }

  /// RuntimeValue::asDouble, statically: Int converts, Real passes, and
  /// Bool/Char read the never-written D field — always 0.0 (the
  /// tree-walker's exact behaviour).
  Value coerceAsDouble(Value V) {
    switch (V.Kind) {
    case VKind::Real:
      return V;
    case VKind::Int:
      return unary(Opcode::IntToReal, VKind::Real, V);
    case VKind::Bool:
    case VKind::Char:
      // Side effects (cost events) of a register value were already
      // emitted; only a constant still carries pending cost.
      return constReal(0.0, V.IsConst ? V.Cost : InstrCost{});
    }
    throw Unsupported{};
  }

  /// The evaluator's AsLog: prob-typed operands are already log-space,
  /// anything else is converted with pr_tolog (cost-free in the walker).
  Value asLogProb(Value V, const Expr *Operand) {
    if (Operand->ExprType.Kind == TypeKind::Prob) {
      if (V.Kind != VKind::Real)
        throw Unsupported{};
      return V;
    }
    return logOfValue(coerceAsDouble(V));
  }

  Value logOfValue(Value Real) {
    return unary(Opcode::LogOf, VKind::Real, Real);
  }

  /// The operand slot of a pending constant.
  static RegValue constSlot(const Value &V) {
    RegValue S;
    if (V.Kind == VKind::Real)
      S.D = V.CD;
    else
      S.I = V.CI;
    return S;
  }

  /// A pending constant of kind \p K holding slot \p S.
  static Value constOf(VKind K, RegValue S, InstrCost Cost) {
    return K == VKind::Real ? constReal(S.D, Cost) : constInt(K, S.I, Cost);
  }

  /// The cost-free conversion \p Op of \p V: folded when V is a pending
  /// constant (which keeps its cost), else one instruction.
  Value unary(Opcode Op, VKind ResKind, const Value &V) {
    if (V.IsConst)
      return constOf(ResKind, evalRegOp(Op, constSlot(V), RegValue{}), V.Cost);
    int32_t Dst = newReg();
    emit(Op, {}, Dst, V.Reg);
    return regValue(ResKind, Dst);
  }

  /// Feeds \p V into a consumer that reads the tree-walker's I (or C)
  /// union field: kinds that store there pass through, any other kind
  /// reads the never-written field — always 0.
  int32_t slotOf(Value &V, VKind Want) {
    if (V.Kind == Want)
      return materialize(V);
    Value Zero = constInt(Want, 0, V.IsConst ? V.Cost : InstrCost{});
    if (!V.IsConst)
      (void)V.Reg; // Register side effects are already in the stream.
    return materialize(Zero);
  }

  //===--------------------------------------------------------------------===//
  // Expression compilation
  //===--------------------------------------------------------------------===//

  Value compileExpr(const Expr *E) {
    switch (E->getKind()) {
    case ExprKind::IntLiteral:
      return constInt(VKind::Int, cast<IntLiteralExpr>(E)->Value);
    case ExprKind::FloatLiteral:
      return constReal(cast<FloatLiteralExpr>(E)->Value);
    case ExprKind::BoolLiteral:
      return constInt(VKind::Bool, cast<BoolLiteralExpr>(E)->Value ? 1 : 0);
    case ExprKind::CharLiteral:
      return constInt(VKind::Char, cast<CharLiteralExpr>(E)->Value);
    case ExprKind::VarRef:
      return compileVarRef(cast<VarRefExpr>(E));
    case ExprKind::Binary:
      return compileBinary(cast<BinaryExpr>(E));
    case ExprKind::If:
      return compileIf(cast<IfExpr>(E));
    case ExprKind::Call:
      return compileCall(cast<CallExpr>(E));
    case ExprKind::SeqIndex:
      return compileSeqIndex(cast<SeqIndexExpr>(E));
    case ExprKind::MatrixIndex:
      return compileMatrixIndex(cast<MatrixIndexExpr>(E));
    case ExprKind::Member:
      return compileMember(cast<MemberExpr>(E));
    case ExprKind::Reduction:
      return compileReduction(cast<ReductionExpr>(E));
    }
    throw Unsupported{};
  }

  Value compileVarRef(const VarRefExpr *V) {
    if (V->ParamIndex < 0) {
      for (auto It = ReduceScopes.rbegin(); It != ReduceScopes.rend(); ++It)
        if (*It->Name == V->Name)
          return regValue(VKind::Int, It->Reg);
      throw Unsupported{}; // Unbound reduction variable.
    }
    unsigned Pi = static_cast<unsigned>(V->ParamIndex);
    if (ParamToDim[Pi] >= 0) {
      int D = ParamToDim[Pi];
      if (DimReg[D] >= 0)
        return regValue(VKind::Int, DimReg[D]);
      int32_t Dst = newReg();
      emit(Opcode::LoadPoint, {}, Dst, D);
      DimReg[D] = Dst;
      return regValue(VKind::Int, Dst);
    }
    switch (F.Params[Pi].ParamType.Kind) {
    case TypeKind::Int: {
      int32_t Dst = newReg();
      emit(Opcode::LoadArgInt, {}, Dst, static_cast<int32_t>(Pi));
      return regValue(VKind::Int, Dst);
    }
    case TypeKind::Float:
    case TypeKind::Prob: {
      int32_t Dst = newReg();
      emit(Opcode::LoadArgReal, {}, Dst, static_cast<int32_t>(Pi));
      return regValue(VKind::Real, Dst);
    }
    default:
      // Seq/matrix/hmm references are consumed by their parent nodes;
      // the walker yields the parameter index.
      return constInt(VKind::Int, static_cast<int64_t>(Pi));
    }
  }

  /// Binary operation \p Op of \p L and \p R, charging \p Cost: folded
  /// through evalRegOp when both are pending constants and the combined
  /// cost fits, else one instruction.
  Value binary(Opcode Op, InstrCost Cost, VKind ResKind, Value L, Value R) {
    if (L.IsConst && R.IsConst) {
      InstrCost Total = L.Cost;
      if (addCost(Total, R.Cost) && addCost(Total, Cost))
        return constOf(ResKind, evalRegOp(Op, constSlot(L), constSlot(R)),
                       Total);
    }
    int32_t LR = materialize(L);
    int32_t RR = materialize(R);
    int32_t Dst = newReg();
    emit(Op, Cost, Dst, LR, RR);
    return regValue(ResKind, Dst);
  }

  Value compileBinary(const BinaryExpr *B) {
    Value L = compileExpr(B->Lhs.get());
    Value R = compileExpr(B->Rhs.get());
    const InstrCost Op1{1, 0, 0, 0, 0};

    // Comparisons (the walker compares two ints as ints and like-kind
    // char/bool equality by value, and converts any other pair with
    // asDouble).
    bool BothInt = L.Kind == VKind::Int && R.Kind == VKind::Int;
    switch (B->Op) {
    case BinaryOp::Lt:
    case BinaryOp::Gt:
    case BinaryOp::Le:
    case BinaryOp::Ge: {
      if (BothInt) {
        Opcode Op = B->Op == BinaryOp::Lt   ? Opcode::CmpLtInt
                    : B->Op == BinaryOp::Gt ? Opcode::CmpGtInt
                    : B->Op == BinaryOp::Le ? Opcode::CmpLeInt
                                            : Opcode::CmpGeInt;
        return binary(Op, Op1, VKind::Bool, L, R);
      }
      Value A = coerceAsDouble(L), C = coerceAsDouble(R);
      Opcode Op = B->Op == BinaryOp::Lt   ? Opcode::CmpLtReal
                  : B->Op == BinaryOp::Gt ? Opcode::CmpGtReal
                  : B->Op == BinaryOp::Le ? Opcode::CmpLeReal
                                          : Opcode::CmpGeReal;
      return binary(Op, Op1, VKind::Bool, A, C);
    }
    case BinaryOp::Eq:
    case BinaryOp::Ne: {
      bool Negate = B->Op == BinaryOp::Ne;
      if (BothInt || (L.Kind == VKind::Char && R.Kind == VKind::Char) ||
          (L.Kind == VKind::Bool && R.Kind == VKind::Bool))
        return binary(Negate ? Opcode::CmpNeInt : Opcode::CmpEqInt, Op1,
                      VKind::Bool, L, R);
      Value A = coerceAsDouble(L), C = coerceAsDouble(R);
      return binary(Negate ? Opcode::CmpNeReal : Opcode::CmpEqReal, Op1,
                    VKind::Bool, A, C);
    }
    default:
      break;
    }

    // Probability arithmetic in log space.
    if (B->ExprType.Kind == TypeKind::Prob) {
      Value A = asLogProb(L, B->Lhs.get());
      Value C = asLogProb(R, B->Rhs.get());
      Opcode Op;
      InstrCost Cost = Op1;
      switch (B->Op) {
      case BinaryOp::Mul:
        Op = Opcode::LogMul;
        break;
      case BinaryOp::Div:
        Op = Opcode::LogDiv;
        break;
      case BinaryOp::Add:
        Op = Opcode::LogSum;
        Cost = InstrCost{3, 0, 0, 0, 1}; // 1 + 2 ops around the exp/log.
        break;
      case BinaryOp::Min:
        Op = Opcode::MinReal;
        break;
      case BinaryOp::Max:
        Op = Opcode::MaxReal;
        break;
      default:
        throw Unsupported{}; // The walker asserts here.
      }
      return binary(Op, Cost, VKind::Real, A, C);
    }

    // Integer arithmetic stays integral when both operands are.
    if (L.Kind == VKind::Int && R.Kind == VKind::Int) {
      Opcode Op;
      switch (B->Op) {
      case BinaryOp::Add:
        Op = Opcode::AddInt;
        break;
      case BinaryOp::Sub:
        Op = Opcode::SubInt;
        break;
      case BinaryOp::Mul:
        Op = Opcode::MulInt;
        break;
      case BinaryOp::Div:
        Op = Opcode::DivInt;
        break;
      case BinaryOp::Min:
        Op = Opcode::MinInt;
        break;
      case BinaryOp::Max:
        Op = Opcode::MaxInt;
        break;
      default:
        throw Unsupported{};
      }
      return binary(Op, Op1, VKind::Int, L, R);
    }

    // Mixed/real arithmetic via asDouble.
    Value A = coerceAsDouble(L), C = coerceAsDouble(R);
    Opcode Op;
    switch (B->Op) {
    case BinaryOp::Add:
      Op = Opcode::AddReal;
      break;
    case BinaryOp::Sub:
      Op = Opcode::SubReal;
      break;
    case BinaryOp::Mul:
      Op = Opcode::MulReal;
      break;
    case BinaryOp::Div:
      Op = Opcode::DivReal;
      break;
    case BinaryOp::Min:
      Op = Opcode::MinReal;
      break;
    case BinaryOp::Max:
      Op = Opcode::MaxReal;
      break;
    default:
      throw Unsupported{};
    }
    return binary(Op, Op1, VKind::Real, A, C);
  }

  Value compileIf(const IfExpr *I) {
    Value Cond = compileExpr(I->Condition.get());
    if (Cond.Kind != VKind::Bool)
      throw Unsupported{}; // The walker would read an unset B field.
    int32_t CondReg = materialize(Cond);
    // The if's Ops charge rides on the branch instruction.
    size_t JumpFalse =
        emit(Opcode::JumpIfFalse, InstrCost{1, 0, 0, 0, 0}, CondReg);

    // Values defined inside a branch only exist when that branch runs;
    // roll the reuse caches back to the pre-branch state on exit.
    CseSnapshot Snap = saveCse();
    Value Then = compileExpr(I->ThenExpr.get());
    if (I->ExprType.Kind == TypeKind::Prob &&
        I->ThenExpr->ExprType.Kind != TypeKind::Prob)
      Then = logOfValue(coerceAsDouble(Then));
    int32_t Dst = newReg();
    materializeInto(Then, Dst);
    size_t JumpEnd = emit(Opcode::Jump, {}, 0);
    P.Code[JumpFalse].B = operand(static_cast<int32_t>(P.Code.size()));

    restoreCse(Snap);
    Value Else = compileExpr(I->ElseExpr.get());
    if (I->ExprType.Kind == TypeKind::Prob &&
        I->ElseExpr->ExprType.Kind != TypeKind::Prob)
      Else = logOfValue(coerceAsDouble(Else));
    if (Else.Kind != Then.Kind)
      throw Unsupported{}; // Branch kinds must agree statically.
    materializeInto(Else, Dst);
    P.Code[JumpEnd].A = operand(static_cast<int32_t>(P.Code.size()));
    restoreCse(Snap);

    return regValue(Then.Kind, Dst);
  }

  /// Affine form of an integer argument expression over the recursion
  /// point, with the walker's cost for evaluating it.
  struct Affine {
    std::vector<int64_t> Coeffs;
    int64_t Bias = 0;
    InstrCost Cost;
  };

  std::optional<Affine> tryAffine(const Expr *E) {
    switch (E->getKind()) {
    case ExprKind::IntLiteral: {
      Affine A;
      A.Coeffs.assign(P.NumDims, 0);
      A.Bias = cast<IntLiteralExpr>(E)->Value;
      return A;
    }
    case ExprKind::VarRef: {
      const auto *V = cast<VarRefExpr>(E);
      if (V->ParamIndex < 0)
        return std::nullopt;
      int Dim = ParamToDim[static_cast<unsigned>(V->ParamIndex)];
      if (Dim < 0)
        return std::nullopt;
      Affine A;
      A.Coeffs.assign(P.NumDims, 0);
      A.Coeffs[static_cast<unsigned>(Dim)] = 1;
      return A;
    }
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      if (B->Op != BinaryOp::Add && B->Op != BinaryOp::Sub &&
          B->Op != BinaryOp::Mul)
        return std::nullopt;
      std::optional<Affine> L = tryAffine(B->Lhs.get());
      std::optional<Affine> R = tryAffine(B->Rhs.get());
      if (!L || !R)
        return std::nullopt;
      Affine A;
      A.Cost = L->Cost;
      if (!addCost(A.Cost, R->Cost) ||
          !addCost(A.Cost, InstrCost{1, 0, 0, 0, 0}))
        return std::nullopt;
      auto IsConst = [](const Affine &X) {
        for (int64_t C : X.Coeffs)
          if (C != 0)
            return false;
        return true;
      };
      switch (B->Op) {
      case BinaryOp::Add:
      case BinaryOp::Sub: {
        int64_t Sign = B->Op == BinaryOp::Add ? 1 : -1;
        A.Coeffs = L->Coeffs;
        for (unsigned D = 0; D != P.NumDims; ++D)
          A.Coeffs[D] += Sign * R->Coeffs[D];
        A.Bias = L->Bias + Sign * R->Bias;
        return A;
      }
      case BinaryOp::Mul: {
        const Affine *Scalar = IsConst(*L) ? &*L : IsConst(*R) ? &*R : nullptr;
        const Affine *Other = Scalar == &*L ? &*R : &*L;
        if (!Scalar)
          return std::nullopt;
        A.Coeffs = Other->Coeffs;
        for (int64_t &C : A.Coeffs)
          C *= Scalar->Bias;
        A.Bias = Other->Bias * Scalar->Bias;
        return A;
      }
      default:
        return std::nullopt;
      }
    }
    default:
      return std::nullopt;
    }
  }

  Value compileCall(const CallExpr *C) {
    if (C->Args.size() > 8 || C->Args.size() != P.NumDims)
      throw Unsupported{};
    CallDesc Desc;
    Desc.FirstArg = static_cast<uint32_t>(P.CallArgsPool.size());
    Desc.NumArgs = static_cast<uint32_t>(C->Args.size());
    InstrCost Cost{0, 1, 0, 0, 0}; // The table read itself.
    for (const ExprPtr &ArgExpr : C->Args) {
      CallArg Arg;
      if (std::optional<Affine> Aff = tryAffine(ArgExpr.get())) {
        if (!addCost(Cost, Aff->Cost))
          throw Unsupported{};
        Arg.Reg = -1;
        Arg.CoeffOffset = static_cast<uint32_t>(P.AffinePool.size());
        Arg.Bias = Aff->Bias;
        P.AffinePool.insert(P.AffinePool.end(), Aff->Coeffs.begin(),
                            Aff->Coeffs.end());
      } else {
        Value V = compileExpr(ArgExpr.get());
        Arg.Reg = slotOf(V, VKind::Int);
      }
      P.CallArgsPool.push_back(Arg);
    }
    int32_t DescIdx = static_cast<int32_t>(P.Calls.size());
    P.Calls.push_back(Desc);

    int32_t Dst = newReg();
    switch (F.ReturnType.Kind) {
    case TypeKind::Prob:
    case TypeKind::Float:
      emit(Opcode::TableReadReal, Cost, Dst, DescIdx);
      return regValue(VKind::Real, Dst);
    case TypeKind::Bool:
      emit(Opcode::TableReadBool, Cost, Dst, DescIdx);
      return regValue(VKind::Bool, Dst);
    default:
      emit(Opcode::TableReadInt, Cost, Dst, DescIdx);
      return regValue(VKind::Int, Dst);
    }
  }

  Value compileSeqIndex(const SeqIndexExpr *S) {
    Value Idx = compileExpr(S->Index.get());
    int32_t IdxReg = slotOf(Idx, VKind::Int);
    int32_t Dst = newReg();
    emit(Opcode::SeqChar, InstrCost{0, 0, 0, 1, 0}, Dst, S->SeqParamIndex,
         IdxReg);
    return regValue(VKind::Char, Dst);
  }

  Value compileMatrixIndex(const MatrixIndexExpr *M) {
    Value Row = compileExpr(M->Row.get());
    Value Col = compileExpr(M->Col.get());
    int32_t RowReg = slotOf(Row, VKind::Char);
    int32_t ColReg = slotOf(Col, VKind::Char);
    int32_t Dst = newReg();
    emit(Opcode::MatrixScore, InstrCost{0, 0, 0, 1, 0}, Dst,
         M->MatrixParamIndex, RowReg, ColReg);
    return regValue(VKind::Int, Dst);
  }

  /// Resolves the HMM parameter a state/transition-typed base belongs
  /// to, exactly as the walker does by name — but once, at compile time.
  int32_t resolveHmmParam(const Type &BaseType) {
    for (unsigned Pi = 0; Pi != F.Params.size(); ++Pi)
      if (F.Params[Pi].Name == BaseType.RefParam)
        return static_cast<int32_t>(Pi);
    throw Unsupported{}; // The walker would assert.
  }

  Value compileMember(const MemberExpr *M) {
    Value Base = compileExpr(M->Base.get());
    if (M->Member == MemberKind::TransitionsTo ||
        M->Member == MemberKind::TransitionsFrom)
      return Base; // Consumed by Reduce; the state index flows through.

    int32_t Hp = resolveHmmParam(M->Base->ExprType);
    int32_t BaseReg = slotOf(Base, VKind::Int);
    int32_t Dst = newReg();
    const InstrCost Read{0, 0, 0, 1, 0};
    const InstrCost Op1{1, 0, 0, 0, 0};
    switch (M->Member) {
    case MemberKind::Start:
      emit(Opcode::TransStart, Read, Dst, Hp, BaseReg);
      return regValue(VKind::Int, Dst);
    case MemberKind::End:
      emit(Opcode::TransEnd, Read, Dst, Hp, BaseReg);
      return regValue(VKind::Int, Dst);
    case MemberKind::Prob:
      emit(Opcode::TransLogProb, Read, Dst, Hp, BaseReg);
      return regValue(VKind::Real, Dst);
    case MemberKind::IsStart:
      emit(Opcode::StateIsStart, Op1, Dst, Hp, BaseReg);
      return regValue(VKind::Bool, Dst);
    case MemberKind::IsEnd:
      emit(Opcode::StateIsEnd, Op1, Dst, Hp, BaseReg);
      return regValue(VKind::Bool, Dst);
    case MemberKind::Emission: {
      Value Arg = compileExpr(M->Arg.get());
      int32_t CharReg = slotOf(Arg, VKind::Char);
      emit(Opcode::Emission, Read, Dst, Hp, BaseReg, CharReg);
      return regValue(VKind::Real, Dst);
    }
    default:
      throw Unsupported{};
    }
  }

  Value compileReduction(const ReductionExpr *R) {
    const auto *Domain = dyn_cast<MemberExpr>(R->Domain.get());
    if (!Domain || (Domain->Member != MemberKind::TransitionsTo &&
                    Domain->Member != MemberKind::TransitionsFrom))
      throw Unsupported{}; // validateForExecution rejects these anyway.

    Value StateV = compileExpr(Domain->Base.get());
    int32_t StateReg = slotOf(StateV, VKind::Int);
    int32_t Hp = resolveHmmParam(Domain->Base->ExprType);

    ReduceDesc Desc;
    Desc.HmmParam = static_cast<uint16_t>(Hp);
    Desc.OverIncoming = Domain->Member == MemberKind::TransitionsTo;
    Desc.Kind = R->Reduction;
    Desc.StateReg = StateReg;
    Desc.VarReg = newReg();
    Desc.DstReg = newReg();

    int32_t DescIdx = static_cast<int32_t>(P.Reduces.size());
    P.Reduces.push_back(Desc); // Placeholder; patched below.
    size_t ReducePc = emit(Opcode::Reduce, {}, DescIdx);

    // The body range [ReducePc+1, BodyEnd) is skipped by the outer pass,
    // so registers first defined inside it must not leak into the cache
    // of the surrounding straight-line code.
    CseSnapshot Snap = saveCse();
    ReduceScopes.push_back({&R->VarName, Desc.VarReg});
    Value Body = compileExpr(R->Body.get());
    ReduceScopes.pop_back();

    bool IsProb = R->ExprType.Kind == TypeKind::Prob;
    VKind ResKind;
    if (IsProb) {
      // The walker converts non-prob bodies with pr_tolog per element.
      if (R->Body->ExprType.Kind == TypeKind::Prob) {
        if (Body.Kind != VKind::Real)
          throw Unsupported{};
      } else {
        Body = logOfValue(coerceAsDouble(Body));
      }
      Desc.AccKind = ReduceDesc::Acc::Prob;
      ResKind = VKind::Real;
    } else if (Body.Kind == VKind::Int) {
      if (R->ExprType.Kind == TypeKind::Float)
        throw Unsupported{}; // Walker would return the untouched real acc.
      Desc.AccKind = ReduceDesc::Acc::Int;
      ResKind = VKind::Int;
    } else if (Body.Kind == VKind::Real) {
      if (R->ExprType.Kind != TypeKind::Float)
        throw Unsupported{}; // Walker would return the untouched int acc.
      Desc.AccKind = ReduceDesc::Acc::Real;
      ResKind = VKind::Real;
    } else {
      throw Unsupported{}; // Bool/char bodies hit the asDouble quirk.
    }
    Desc.BodyReg = materialize(Body);
    Desc.BodyEnd = static_cast<uint32_t>(P.Code.size());
    restoreCse(Snap);
    Desc.ElemCost = (Desc.Kind == lang::ReductionKind::Sum && IsProb)
                        ? InstrCost{2, 0, 0, 0, 1}
                        : InstrCost{1, 0, 0, 0, 0};
    (void)ReducePc;
    P.Reduces[static_cast<size_t>(DescIdx)] = Desc;

    return regValue(ResKind, Desc.DstReg);
  }

  void finishResult(Value &Result) {
    P.ResultReg = materialize(Result);
    switch (F.ReturnType.Kind) {
    case TypeKind::Prob:
      if (F.Body->ExprType.Kind == TypeKind::Prob) {
        if (Result.Kind != VKind::Real)
          throw Unsupported{};
        P.Conv = ResultConv::RealSlot;
      } else if (Result.Kind == VKind::Real) {
        P.Conv = ResultConv::LogRealSlot;
      } else if (Result.Kind == VKind::Int) {
        P.Conv = ResultConv::LogIntSlot;
      } else {
        throw Unsupported{};
      }
      return;
    case TypeKind::Bool:
      if (Result.Kind == VKind::Bool)
        P.Conv = ResultConv::BoolSlot;
      else if (Result.Kind == VKind::Int)
        P.Conv = ResultConv::IntSlot;
      else if (Result.Kind == VKind::Real)
        P.Conv = ResultConv::RealSlot;
      else
        throw Unsupported{};
      return;
    default:
      if (Result.Kind == VKind::Int)
        P.Conv = ResultConv::IntSlot;
      else if (Result.Kind == VKind::Real)
        P.Conv = ResultConv::RealSlot;
      else
        throw Unsupported{};
      return;
    }
  }
};

} // namespace

RegValue parrec::codegen::evalRegOp(Opcode Op, RegValue B, RegValue C) {
  RegValue A{};
  switch (Op) {
#define PARREC_UNARY(Name, Res, Opnd, Form, What)                             \
  case Opcode::Name:                                                          \
    A.Res = PARREC_CXX1_##Form(What, B.Opnd);                                 \
    break;
#define PARREC_BINARY(Name, Res, Opnd, Form, What)                            \
  case Opcode::Name:                                                          \
    A.Res = PARREC_CXX2_##Form(What, B.Opnd, C.Opnd);                         \
    break;
#include "codegen/Opcodes.def"
  default:
    assert(false && "not a register operation");
    break;
  }
  return A;
}

std::shared_ptr<const BytecodeProgram>
parrec::codegen::compileToBytecode(const FunctionDecl &F,
                                   const FunctionInfo &Info) {
  // Instrumented by the "bytecode" pass wrapper (compiler/).
  try {
    return Compiler(F, Info).run();
  } catch (const Unsupported &) {
    return nullptr;
  }
}
