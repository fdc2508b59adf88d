//===- CudaEmitter.cpp - CUDA C source synthesis ------------------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "codegen/CudaEmitter.h"

#include "poly/CPrinter.h"
#include "poly/LoopGen.h"

#include <cassert>

using namespace parrec;
using namespace parrec::codegen;
using namespace parrec::lang;

namespace {

/// Statement-level lowering of the DSL body: every expression becomes a
/// named temporary so branching and reductions can be emitted as
/// statements.
class CellEmitter {
public:
  CellEmitter(const FunctionDecl &F, const FunctionInfo &Info)
      : F(F), Info(Info) {}

  /// C type of the table cells.
  const char *tableType() const {
    switch (F.ReturnType.Kind) {
    case TypeKind::Int:
    case TypeKind::Bool:
      return "int";
    default:
      return "float";
    }
  }

  /// Emits the whole __device__ cell function.
  std::string emit() {
    Body.clear();
    TempCount = 0;
    std::string Result = emitExpr(F.Body.get());
    std::string Out;
    Out += "__device__ " + std::string(tableType()) + " " + F.Name +
           "_cell(" + cellParams() + ") {\n";
    Out += Body;
    Out += "  return " + Result + ";\n";
    Out += "}\n";
    return Out;
  }

  /// Parameter list shared by the cell function and the kernel.
  std::string cellParams() const {
    std::string Out;
    auto Add = [&](const std::string &Piece) {
      if (!Out.empty())
        Out += ", ";
      Out += Piece;
    };
    for (const Param &P : F.Params) {
      switch (P.ParamType.Kind) {
      case TypeKind::Seq:
        Add("const char *" + P.Name);
        Add("int " + P.Name + "_len");
        break;
      case TypeKind::Matrix:
        Add("const int *" + P.Name);
        Add("int " + P.Name + "_dim");
        break;
      case TypeKind::Hmm:
        // CSR transition tables plus per-state data.
        Add("const int *" + P.Name + "_tr_from");
        Add("const int *" + P.Name + "_tr_to");
        Add("const float *" + P.Name + "_tr_logprob");
        Add("const int *" + P.Name + "_in_off");
        Add("const int *" + P.Name + "_in_tr");
        Add("const int *" + P.Name + "_out_off");
        Add("const int *" + P.Name + "_out_tr");
        Add("const float *" + P.Name + "_emis");
        Add("int " + P.Name + "_alpha");
        Add("const unsigned char *" + P.Name + "_flags");
        break;
      case TypeKind::Int:
        if (!isRecursiveDim(P))
          Add("int " + P.Name);
        break;
      case TypeKind::Float:
      case TypeKind::Prob:
        Add("float " + P.Name);
        break;
      default:
        break;
      }
    }
    Add("const " + std::string(tableType()) + " *farr");
    for (const lang::DimInfo &Dim : Info.Dims) {
      Add("int " + Dim.Name);
      Add("int " + Dim.Name + "_n");
    }
    return Out;
  }

  /// Arguments matching cellParams() at a kernel call site, with the
  /// recursion coordinates supplied as x0..xn-1.
  std::string cellArgs() const {
    std::string Out;
    auto Add = [&](const std::string &Piece) {
      if (!Out.empty())
        Out += ", ";
      Out += Piece;
    };
    for (const Param &P : F.Params) {
      switch (P.ParamType.Kind) {
      case TypeKind::Seq:
        Add(P.Name);
        Add(P.Name + "_len");
        break;
      case TypeKind::Matrix:
        Add(P.Name);
        Add(P.Name + "_dim");
        break;
      case TypeKind::Hmm:
        for (const char *Suffix :
             {"_tr_from", "_tr_to", "_tr_logprob", "_in_off", "_in_tr",
              "_out_off", "_out_tr", "_emis", "_alpha", "_flags"})
          Add(P.Name + std::string(Suffix));
        break;
      case TypeKind::Int:
        if (!isRecursiveDim(P))
          Add(P.Name);
        break;
      case TypeKind::Float:
      case TypeKind::Prob:
        Add(P.Name);
        break;
      default:
        break;
      }
    }
    Add("farr");
    for (unsigned D = 0; D != Info.Dims.size(); ++D) {
      Add("x" + std::to_string(D));
      Add(Info.Dims[D].Name + "_n");
    }
    return Out;
  }

  /// Row-major flattened index into the table for the given coordinate
  /// expressions (dimension extents are the symbolic "<dim>_n").
  std::string tableIndex(const std::vector<std::string> &Coords) const {
    std::string Out;
    for (unsigned D = 0; D != Info.Dims.size(); ++D) {
      if (D == 0) {
        Out = Coords[0];
        continue;
      }
      Out = "(" + Out + ") * " + Info.Dims[D].Name + "_n + (" +
            Coords[D] + ")";
    }
    return Out.empty() ? "0" : Out;
  }

private:
  const FunctionDecl &F;
  const FunctionInfo &Info;
  std::string Body;
  unsigned TempCount = 0;
  unsigned IndentDepth = 1;

  bool isRecursiveDim(const Param &P) const {
    for (const lang::DimInfo &Dim : Info.Dims)
      if (F.Params[Dim.ParamIndex].Name == P.Name)
        return true;
    return false;
  }

  void line(const std::string &Text) {
    Body.append(2 * IndentDepth, ' ');
    Body += Text;
    Body += '\n';
  }

  std::string freshTemp() { return "v" + std::to_string(TempCount++); }

  static const char *cTypeOf(const Type &T) {
    switch (T.Kind) {
    case TypeKind::Float:
    case TypeKind::Prob:
      return "float";
    case TypeKind::Bool:
      return "int";
    case TypeKind::Char:
      return "char";
    default:
      return "int";
    }
  }

  /// Wraps a linear-space value expression into log space when a prob
  /// consumer receives a non-prob operand.
  std::string toLogIfNeeded(const std::string &Value, const Expr *E) {
    if (E->ExprType.Kind == TypeKind::Prob)
      return Value;
    return "parrec_logf(" + Value + ")";
  }

  /// Emits statements computing \p E; returns the value expression (a
  /// temporary name or a simple expression).
  std::string emitExpr(const Expr *E) {
    switch (E->getKind()) {
    case ExprKind::IntLiteral:
      return std::to_string(cast<IntLiteralExpr>(E)->Value);
    case ExprKind::FloatLiteral: {
      char Buffer[64];
      snprintf(Buffer, sizeof(Buffer), "%.9g",
               cast<FloatLiteralExpr>(E)->Value);
      std::string Text = Buffer;
      if (Text.find('.') == std::string::npos &&
          Text.find('e') == std::string::npos &&
          Text.find("inf") == std::string::npos)
        Text += ".0";
      return Text + "f";
    }
    case ExprKind::BoolLiteral:
      return cast<BoolLiteralExpr>(E)->Value ? "1" : "0";
    case ExprKind::CharLiteral:
      return std::string("'") + cast<CharLiteralExpr>(E)->Value + "'";

    case ExprKind::VarRef: {
      const auto *V = cast<VarRefExpr>(E);
      if (V->ParamIndex < 0)
        return V->Name; // Reduction variable (a transition index).
      return V->Name;
    }

    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      std::string L = emitExpr(B->Lhs.get());
      std::string R = emitExpr(B->Rhs.get());
      bool Prob = B->ExprType.Kind == TypeKind::Prob;
      std::string T = freshTemp();
      std::string Decl =
          std::string("const ") + cTypeOf(B->ExprType) + " " + T + " = ";
      if (Prob) {
        std::string LL = toLogIfNeeded(L, B->Lhs.get());
        std::string RL = toLogIfNeeded(R, B->Rhs.get());
        switch (B->Op) {
        case BinaryOp::Mul:
          line(Decl + LL + " + " + RL + ";");
          return T;
        case BinaryOp::Div:
          line(Decl + LL + " - " + RL + ";");
          return T;
        case BinaryOp::Add:
          line(Decl + "parrec_logaddexpf(" + LL + ", " + RL + ");");
          return T;
        case BinaryOp::Min:
          line(Decl + "fminf(" + LL + ", " + RL + ");");
          return T;
        case BinaryOp::Max:
          line(Decl + "fmaxf(" + LL + ", " + RL + ");");
          return T;
        default:
          break;
        }
      }
      switch (B->Op) {
      case BinaryOp::Min:
        line(Decl + "(" + L + ") < (" + R + ") ? (" + L + ") : (" + R +
             ");");
        return T;
      case BinaryOp::Max:
        line(Decl + "(" + L + ") > (" + R + ") ? (" + L + ") : (" + R +
             ");");
        return T;
      case BinaryOp::Div:
        if (B->ExprType.Kind == TypeKind::Int) {
          line(Decl + "parrec_div(" + L + ", " + R + ");");
          return T;
        }
        [[fallthrough]];
      default: {
        const char *Op = binaryOpSpelling(B->Op);
        line(Decl + "(" + L + ") " + Op + " (" + R + ");");
        return T;
      }
      }
    }

    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      std::string Cond = emitExpr(I->Condition.get());
      std::string T = freshTemp();
      line(std::string(cTypeOf(I->ExprType)) + " " + T + ";");
      line("if (" + Cond + ") {");
      ++IndentDepth;
      std::string ThenValue = emitExpr(I->ThenExpr.get());
      if (I->ExprType.Kind == TypeKind::Prob)
        ThenValue = toLogIfNeeded(ThenValue, I->ThenExpr.get());
      line(T + " = " + ThenValue + ";");
      --IndentDepth;
      line("} else {");
      ++IndentDepth;
      std::string ElseValue = emitExpr(I->ElseExpr.get());
      if (I->ExprType.Kind == TypeKind::Prob)
        ElseValue = toLogIfNeeded(ElseValue, I->ElseExpr.get());
      line(T + " = " + ElseValue + ";");
      --IndentDepth;
      line("}");
      return T;
    }

    case ExprKind::Call: {
      const auto *C = cast<CallExpr>(E);
      std::vector<std::string> Coords;
      for (const ExprPtr &A : C->Args)
        Coords.push_back(emitExpr(A.get()));
      std::string T = freshTemp();
      line(std::string("const ") + tableType() + " " + T + " = farr[" +
           tableIndex(Coords) + "];");
      return T;
    }

    case ExprKind::SeqIndex: {
      const auto *S = cast<SeqIndexExpr>(E);
      std::string Index = emitExpr(S->Index.get());
      return S->SeqName + "[" + Index + "]";
    }

    case ExprKind::MatrixIndex: {
      const auto *M = cast<MatrixIndexExpr>(E);
      std::string Row = emitExpr(M->Row.get());
      std::string Col = emitExpr(M->Col.get());
      return M->MatrixName + "[parrec_chr(" + Row + ") * " +
             M->MatrixName + "_dim + parrec_chr(" + Col + ")]";
    }

    case ExprKind::Member: {
      const auto *M = cast<MemberExpr>(E);
      std::string Base = emitExpr(M->Base.get());
      std::string H = M->Base->ExprType.RefParam;
      switch (M->Member) {
      case MemberKind::Start:
        return H + "_tr_from[" + Base + "]";
      case MemberKind::End:
        return H + "_tr_to[" + Base + "]";
      case MemberKind::Prob:
        return H + "_tr_logprob[" + Base + "]";
      case MemberKind::IsStart:
        return "(" + H + "_flags[" + Base + "] & 1)";
      case MemberKind::IsEnd:
        return "(" + H + "_flags[" + Base + "] & 2)";
      case MemberKind::Emission: {
        std::string C = emitExpr(M->Arg.get());
        return H + "_emis[(" + Base + ") * " + H + "_alpha + " +
               "parrec_chr(" + C + ")]";
      }
      case MemberKind::TransitionsTo:
      case MemberKind::TransitionsFrom:
        return Base; // Consumed by the reduction loop below.
      }
      return Base;
    }

    case ExprKind::Reduction: {
      const auto *R = cast<ReductionExpr>(E);
      const auto *Domain = cast<MemberExpr>(R->Domain.get());
      std::string State = emitExpr(Domain->Base.get());
      std::string H = Domain->Base->ExprType.RefParam;
      bool Incoming = Domain->Member == MemberKind::TransitionsTo;
      std::string Off = H + (Incoming ? "_in_off" : "_out_off");
      std::string Tr = H + (Incoming ? "_in_tr" : "_out_tr");

      bool Prob = R->ExprType.Kind == TypeKind::Prob;
      // A log-space sum folds online into a running maximum and a
      // scaled sum; other reduces fold into Acc.
      bool ProbSum = Prob && R->Reduction == ReductionKind::Sum;
      std::string Acc = freshTemp();
      std::string Max, Scaled;
      if (ProbSum) {
        Max = freshTemp();
        Scaled = freshTemp();
        line("float " + Max + " = -INFINITY;");
        line("float " + Scaled + " = 0.0f;");
      } else {
        std::string Init;
        if (R->Reduction == ReductionKind::Sum)
          Init = "0";
        else if (R->Reduction == ReductionKind::Min)
          Init = Prob ? "INFINITY" : "INT_MAX";
        else
          Init = Prob ? "-INFINITY" : "INT_MIN";
        line(std::string(cTypeOf(R->ExprType)) + " " + Acc + " = " + Init +
             ";");
      }
      std::string Iter = freshTemp();
      line("for (int " + Iter + " = " + Off + "[" + State + "]; " + Iter +
           " < " + Off + "[(" + State + ") + 1]; ++" + Iter + ") {");
      ++IndentDepth;
      line("const int " + R->VarName + " = " + Tr + "[" + Iter + "];");
      std::string BodyValue = emitExpr(R->Body.get());
      if (Prob)
        BodyValue = toLogIfNeeded(BodyValue, R->Body.get());
      switch (R->Reduction) {
      case ReductionKind::Sum:
        if (ProbSum)
          line("parrec_lse_addf(&" + Max + ", &" + Scaled + ", " +
               BodyValue + ");");
        else
          line(Acc + " = " + Acc + " + (" + BodyValue + ");");
        break;
      case ReductionKind::Min:
        line(Acc + " = " + (Prob ? "fminf" : "min") + "(" + Acc + ", " +
             BodyValue + ");");
        break;
      case ReductionKind::Max:
        line(Acc + " = " + (Prob ? "fmaxf" : "max") + "(" + Acc + ", " +
             BodyValue + ");");
        break;
      }
      --IndentDepth;
      line("}");
      if (ProbSum)
        line("const float " + Acc + " = parrec_lse_resultf(" + Max + ", " +
             Scaled + ");");
      return Acc;
    }
    }
    assert(false && "unhandled expression kind");
    return "0";
  }
};

} // namespace

std::string
parrec::codegen::emitHostLaunchStub(const FunctionDecl &F,
                                    const FunctionInfo &Info) {
  CellEmitter Cell(F, Info);
  std::string TableType = Cell.tableType();

  // Host parameters: the kernel parameters without the table pointer and
  // without per-cell coordinates; extents are inputs.
  std::string Params = Cell.cellParams();
  std::string TableParam = "const " + TableType + " *farr";
  size_t Pos = Params.find(TableParam);
  if (Pos != std::string::npos) {
    size_t End = Pos + TableParam.size();
    if (End < Params.size() && Params.compare(End, 2, ", ") == 0)
      End += 2;
    Params.erase(Pos, End - Pos);
  }
  for (const lang::DimInfo &Dim : Info.Dims) {
    std::string Coord = "int " + Dim.Name + ", ";
    size_t C = Params.find(Coord);
    if (C != std::string::npos)
      Params.erase(C, Coord.size());
  }

  std::string Cells;
  for (unsigned D = 0; D != Info.Dims.size(); ++D) {
    if (D)
      Cells += " * ";
    Cells += Info.Dims[D].Name + "_n";
  }

  std::string Out;
  Out += "// Host-side launch sketch: one block computes one problem\n";
  Out += "// (one problem per multiprocessor; launch many blocks for a\n";
  Out += "// database by giving each its own table and arguments).\n";
  Out += TableType + " " + F.Name + "_launch(" + Params + ") {\n";
  Out += "  const size_t cells = (size_t)(" + Cells + ");\n";
  Out += "  " + TableType + " *farr = 0;\n";
  Out += "  cudaMalloc(&farr, cells * sizeof(" + TableType + "));\n";
  Out += "  " + F.Name + "_kernel<<<1, 32>>>(" +
         [&] {
           // Kernel call arguments: cellArgs() minus the per-cell
           // coordinates ("x<d>, ").
           std::string Args = Cell.cellArgs();
           for (unsigned D = 0; D != Info.Dims.size(); ++D) {
             std::string Coord = "x" + std::to_string(D) + ", ";
             size_t C = Args.find(Coord);
             if (C != std::string::npos)
               Args.erase(C, Coord.size());
           }
           return Args;
         }() +
         ");\n";
  Out += "  cudaDeviceSynchronize();\n";
  Out += "  " + TableType + " root = 0;\n";
  Out += "  cudaMemcpy(&root, farr + (cells - 1), sizeof(" + TableType +
         "), cudaMemcpyDeviceToHost);\n";
  Out += "  cudaFree(farr);\n";
  Out += "  return root; // Value at the recursion's root corner.\n";
  Out += "}\n";
  return Out;
}

std::string parrec::codegen::emitCudaKernel(const FunctionDecl &F,
                                            const FunctionInfo &Info,
                                            const solver::Schedule &S) {
  unsigned N = Info.numDims();
  assert(S.numDims() == N && "schedule arity mismatch");

  // The recursion's parametric nest, the one ParRec's plans run: one
  // parameter "<dim>_n" per dimension.
  poly::LoopNest Nest =
      poly::generateBoxLoops(Info.Recurrence.DimNames, S.Coefficients);

  CellEmitter Cell(F, Info);

  std::string Out;
  Out += "// Synthesized by ParRec from '" + F.signatureStr() + "'\n";
  Out += "// Schedule: S_" + F.Name + "(" ;
  for (unsigned D = 0; D != N; ++D)
    Out += (D ? ", " : "") + Info.Dims[D].Name;
  Out += ") = " + S.str(Info.Recurrence.DimNames) + "\n";
  Out += "#include <cuda_runtime.h>\n";
  Out += "#include <limits.h>\n";
  Out += "#include <math.h>\n\n";
  Out += "#define parrec_chr(c) ((int)(unsigned char)(c))\n";
  // Loop bounds divide as poly::ceilDiv and poly::floorDiv do (d > 0);
  // C's `/` truncates toward zero.
  Out += "__device__ static inline int parrec_ceil_div(int n, int d) {\n";
  Out += "  return n / d + (n % d != 0 && n > 0);\n";
  Out += "}\n";
  Out += "__device__ static inline int parrec_floor_div(int n, int d) {\n";
  Out += "  return n / d - (n % d != 0 && n < 0);\n";
  Out += "}\n";
  // The DSL's int `/`, as CellMath.h's pr_div_i64 defines it: a divisor
  // of 0 gives 0, and INT_MIN / -1 wraps to INT_MIN (C's `/` leaves
  // both undefined).
  Out += "__device__ static inline int parrec_div(int a, int b) {\n";
  Out += "  return b == 0 ? 0 : b == -1 ? (int)(0u - (unsigned)a) : a / b;\n";
  Out += "}\n";
  Out += "__device__ static inline float parrec_logf(float x) {\n";
  Out += "  return x <= 0.0f ? -INFINITY : logf(x);\n";
  Out += "}\n";
  Out += "__device__ static inline float parrec_logaddexpf(float a, "
         "float b) {\n";
  Out += "  if (a == -INFINITY) return b;\n";
  Out += "  if (b == -INFINITY) return a;\n";
  Out += "  float hi = fmaxf(a, b), lo = fminf(a, b);\n";
  Out += "  return hi + log1pf(expf(lo - hi));\n";
  Out += "}\n";
  // CellMath.h's pr_lse_add and pr_lse_result, in float.
  Out += "__device__ static inline void parrec_lse_addf(float *m, float *s, "
         "float x) {\n";
  Out += "  if (x == -INFINITY) return;\n";
  Out += "  if (x <= *m) {\n";
  Out += "    *s = *s + expf(x - *m);\n";
  Out += "  } else {\n";
  Out += "    *s = *s * expf(*m - x) + 1.0f;\n";
  Out += "    *m = x;\n";
  Out += "  }\n";
  Out += "}\n";
  Out += "__device__ static inline float parrec_lse_resultf(float m, "
         "float s) {\n";
  Out += "  return m == -INFINITY ? -INFINITY : m + logf(s);\n";
  Out += "}\n\n";
  Out += Cell.emit();
  Out += "\n";

  // The kernel: Figure 10's structure around the generated bounds.
  Out += "__global__ void " + F.Name + "_kernel(" +
         [&] {
           // Kernel parameters are the cell parameters minus the
           // per-cell coordinates (which the loops produce) plus a
           // mutable table pointer.
           std::string P = Cell.cellParams();
           // Replace the const table pointer with a mutable one and drop
           // the per-dimension coordinate arguments "int <dim>,".
           std::string Search = "const " + std::string(Cell.tableType()) +
                                " *farr";
           size_t Pos = P.find(Search);
           if (Pos != std::string::npos)
             P.replace(Pos, Search.size(),
                       std::string(Cell.tableType()) + " *farr");
           for (const lang::DimInfo &Dim : Info.Dims) {
             std::string Coord = "int " + Dim.Name + ", ";
             size_t C = P.find(Coord);
             if (C != std::string::npos)
               P.erase(C, Coord.size());
           }
           return P;
         }() +
         ") {\n";
  // "parrec_tid" avoids collisions with user parameter names like 't'.
  Out += "  const int parrec_tid = threadIdx.x;\n";
  Out += "  const int parrec_tn = blockDim.x;\n";

  const std::vector<std::string> &Names = Nest.NestDimNames;
  auto BoundList = [&](const std::vector<poly::LoopBound> &Bounds,
                       bool Lower) {
    std::string Text;
    for (size_t I = 0; I != Bounds.size(); ++I) {
      std::string One = Bounds[I].Numerator.str(Names);
      if (Bounds[I].Divisor != 1)
        One = std::string(Lower ? "parrec_ceil_div(" : "parrec_floor_div(") +
              One + "," + std::to_string(Bounds[I].Divisor) + ")";
      if (I == 0) {
        Text = One;
      } else {
        Text = std::string(Lower ? "max(" : "min(") + Text + ", " + One +
               ")";
      }
    }
    return Text;
  };

  unsigned Depth = 1;
  auto Indent = [&] { return std::string(2 * Depth, ' '); };
  std::optional<unsigned> Striped = Nest.threadedLevel();

  std::vector<unsigned> OpenLoops;
  for (unsigned L = 0; L != Nest.Levels.size(); ++L) {
    const poly::LoopLevel &Level = Nest.Levels[L];
    if (Level.isFixed()) {
      std::string Value = Level.FixedNumerator->str(Names);
      if (Level.FixedDivisor != 1) {
        Out += Indent() + "if ((" + Value + ") % " +
               std::to_string(Level.FixedDivisor) + " != 0) continue;\n";
        Value = "(" + Value + ") / " + std::to_string(Level.FixedDivisor);
      }
      Out += Indent() + "const int " + Level.Name + " = " + Value + ";\n";
      continue;
    }
    bool IsStriped = Striped && L == *Striped;
    std::string Lower = BoundList(Level.Lower, true);
    if (IsStriped)
      Lower = "parrec_tid + (" + Lower + ")";
    std::string Step = IsStriped ? Level.Name + " += parrec_tn"
                                 : Level.Name + "++";
    Out += Indent() + "for (int " + Level.Name + " = " + Lower + "; " +
           Level.Name + " <= " + BoundList(Level.Upper, false) + "; " +
           Step + ") {\n";
    ++Depth;
    OpenLoops.push_back(L);
    if (L == 0) {
      // Everything below the time loop runs per partition; barriers go
      // at the bottom of this loop.
    }
  }

  // Reconstructed coordinates and the tabulation statement.
  std::vector<std::string> Coords;
  for (unsigned D = 0; D != N; ++D) {
    Out += Indent() + "const int x" + std::to_string(D) + " = " +
           Info.Dims[D].Name + ";\n";
    Coords.push_back("x" + std::to_string(D));
  }
  Out += Indent() + "farr[" + Cell.tableIndex(Coords) + "] = " + F.Name +
         "_cell(" + Cell.cellArgs() + ");\n";

  // Close the space loops, barrier, close the time loop.
  while (OpenLoops.size() > 1) {
    --Depth;
    Out += Indent() + "}\n";
    OpenLoops.pop_back();
  }
  Out += Indent() + "__syncthreads();\n";
  --Depth;
  Out += Indent() + "}\n";
  Out += "}\n";
  return Out;
}
