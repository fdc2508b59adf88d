//===- BytecodeVM.h - Register VM for compiled cell bodies --------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes BytecodeProgram instruction streams. A VM is bound to one
/// problem (one Evaluator binding) and then evaluates cells through one
/// computed-goto dispatch loop — no variant values, no per-cell name
/// resolution. Its label table and the handlers of the register
/// operations expand Opcodes.def, the same rows the constant folder
/// (evalRegOp) and the native JIT's scans expand.
///
/// bind() precomputes everything the tree-walker re-derives per cell:
/// raw sequence pointers, the log-space HMM transition table base
/// pointer (shared with the Evaluator's own cache, so the values are
/// bit-identical), a dense log-emission matrix with a trailing
/// invalid-character column, and a 256-entry character -> column table.
/// Per-cell model reads are then single indexed loads.
///
/// evalCell is templated over the concrete table type so the recursive
/// lookups devirtualise; the cost of every instruction is accumulated in
/// plain integer lanes and flushed to the CostCounter once per cell,
/// preserving the tree-walker's totals exactly.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_CODEGEN_BYTECODEVM_H
#define PARREC_CODEGEN_BYTECODEVM_H

#include "codegen/Bytecode.h"
#include "codegen/Evaluator.h"
#include "codegen/LogSpace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace parrec {
namespace codegen {

class BytecodeVM {
public:
  explicit BytecodeVM(std::shared_ptr<const BytecodeProgram> Program)
      : Prog(std::move(Program)) {
    assert(Prog && "VM requires a compiled program");
    Regs.resize(Prog->NumRegs);
  }

  /// Captures \p Eval's bound arguments and model caches. The VM borrows
  /// the Evaluator's log-space tables, so \p Eval must stay alive and
  /// bound for as long as cells are evaluated.
  void bind(const Evaluator &Eval);

  /// Computes the cell at \p Point exactly like Evaluator::evalCell,
  /// including its cost events. \p TableT is the concrete table class so
  /// the lookup calls devirtualise.
  template <typename TableT>
  double evalCell(const int64_t *Point, const TableT &Table,
                  gpu::CostCounter &Cost) {
    CostAcc Acc;
    execRange(0, static_cast<uint32_t>(Prog->Code.size()), Point, Table,
              Acc);
    Cost.Ops += Acc.Ops;
    Cost.TableReads += Acc.TableReads;
    Cost.TableWrites += Acc.TableWrites + 1; // The cell's own store.
    Cost.ModelReads += Acc.ModelReads;
    Cost.Transcendentals += Acc.Transcendentals;
    const RegValue &R = Regs[static_cast<size_t>(Prog->ResultReg)];
    switch (Prog->Conv) {
    case ResultConv::RealSlot:
      return R.D;
    case ResultConv::IntSlot:
      return static_cast<double>(R.I);
    case ResultConv::BoolSlot:
      return R.I ? 1.0 : 0.0;
    case ResultConv::LogRealSlot:
      return pr_tolog(R.D);
    case ResultConv::LogIntSlot:
      return pr_tolog(static_cast<double>(R.I));
    }
    return 0.0;
  }

  const BytecodeProgram &program() const { return *Prog; }

private:
  /// Per-cell cost lanes; uint64 so no folded cost can overflow before
  /// the per-cell flush.
  struct CostAcc {
    uint64_t Ops = 0;
    uint64_t TableReads = 0;
    uint64_t TableWrites = 0;
    uint64_t ModelReads = 0;
    uint64_t Transcendentals = 0;

    void add(const InstrCost &C) {
      Ops += C.Ops;
      TableReads += C.TableReads;
      TableWrites += C.TableWrites;
      ModelReads += C.ModelReads;
      Transcendentals += C.Transcendentals;
    }

    /// Spreads a packInstrCost lane accumulator into the wide lanes.
    void flushPacked(uint64_t P) {
      Ops += P & 0xFFFF;
      TableReads += (P >> 16) & 0xFFFF;
      ModelReads += (P >> 32) & 0xFFFF;
      Transcendentals += P >> 48;
    }
  };

  struct BoundSeq {
    const char *Data = nullptr;
    int64_t Len = 0;
  };

  /// Borrowed from the Evaluator's HmmLogCache: identical values mean
  /// identical bits in every probability the VM produces.
  struct BoundHmm {
    const bio::Hmm *H = nullptr;
    const double *LogTrans = nullptr;
    const double *Emissions = nullptr;
    uint32_t Stride = 0;
    const uint16_t *CharCol = nullptr;
  };

  // Threaded (computed-goto) dispatch: every opcode handler ends in its
  // own indirect branch, so the branch predictor learns per-opcode
  // successor patterns instead of sharing one jump for the whole loop.
  // Labels-as-values is a GCC and Clang extension, as are the vector
  // types of CellMath.h, which every evaluator compiles.
  template <typename TableT>
  void execRange(uint32_t Pc, uint32_t End, const int64_t *Point,
                 const TableT &Table, CostAcc &Acc) {
    const Instr *Code = Prog->Code.data();
    RegValue *R = Regs.data();
    const Instr *In;
    // Packed cost lanes for this pass; one add per instruction, spread
    // into the wide accumulator on exit. Forward-only jumps plus the
    // compiler's whole-code lane-total check make carries impossible.
    uint64_t Packed = 0;
    // One label per opcode, in Opcode's order: both come from
    // Opcodes.def.
    static const void *const Labels[] = {
#define PARREC_OPCODE(Name) &&Op_##Name,
#include "codegen/Opcodes.def"
    };
#define VM_CASE(Name) Op_##Name
#define VM_DISPATCH()                                                     \
  do {                                                                    \
    if (Pc >= End) {                                                      \
      Acc.flushPacked(Packed);                                            \
      return;                                                             \
    }                                                                     \
    In = &Code[Pc];                                                       \
    Packed += In->Cost;                                                   \
    goto *Labels[static_cast<unsigned>(In->Op)];                          \
  } while (0)
#define VM_NEXT()                                                         \
  do {                                                                    \
    ++Pc;                                                                 \
    VM_DISPATCH();                                                        \
  } while (0)
    VM_DISPATCH();

    VM_CASE(ConstInt) : { R[In->A].I = In->Imm.I; }
      VM_NEXT();
    VM_CASE(ConstReal) : { R[In->A].D = In->Imm.D; }
      VM_NEXT();
    VM_CASE(Move) : { R[In->A] = R[In->B]; }
      VM_NEXT();
    VM_CASE(LoadPoint) : { R[In->A].I = Point[In->B]; }
      VM_NEXT();
    VM_CASE(LoadArgInt) : {
      R[In->A].I = IntArgs[static_cast<size_t>(In->B)];
    }
      VM_NEXT();
    VM_CASE(LoadArgReal) : {
      R[In->A].D = RealArgs[static_cast<size_t>(In->B)];
    }
      VM_NEXT();
    // The register operations, IntToReal through CmpGeInt: one handler
    // per row of Opcodes.def.
#define PARREC_UNARY(Name, Res, Opnd, Form, What)                             \
  VM_CASE(Name) : { R[In->A].Res = PARREC_CXX1_##Form(What, R[In->B].Opnd); }  \
  VM_NEXT();
#define PARREC_BINARY(Name, Res, Opnd, Form, What)                            \
  VM_CASE(Name) : {                                                           \
    R[In->A].Res = PARREC_CXX2_##Form(What, R[In->B].Opnd, R[In->C].Opnd);    \
  }                                                                           \
  VM_NEXT();
#include "codegen/Opcodes.def"
    VM_CASE(JumpIfFalse) : {
      if (!R[In->A].I) {
        Pc = static_cast<uint32_t>(In->B);
        VM_DISPATCH();
      }
    }
      VM_NEXT();
    VM_CASE(Jump) : {
      Pc = static_cast<uint32_t>(In->A);
      VM_DISPATCH();
    }
    VM_CASE(TableReadReal) : {
      R[In->A].D = readTable(In->B, Point, Table);
    }
      VM_NEXT();
    VM_CASE(TableReadBool) : {
      R[In->A].I = readTable(In->B, Point, Table) != 0.0;
    }
      VM_NEXT();
    VM_CASE(TableReadInt) : {
      R[In->A].I = static_cast<int64_t>(readTable(In->B, Point, Table));
    }
      VM_NEXT();
    VM_CASE(TableReadRoundInt) : {
      R[In->A].I = pr_round_i64(readTable(In->B, Point, Table));
    }
      VM_NEXT();
    VM_CASE(SeqChar) : {
      const BoundSeq &S = Seqs[static_cast<size_t>(In->B)];
      int64_t Index = R[In->C].I;
      assert(S.Data && "sequence parameter not bound");
      assert(Index >= 0 && Index < S.Len && "sequence index out of range");
      R[In->A].I = static_cast<int64_t>(S.Data[Index]);
    }
      VM_NEXT();
    VM_CASE(MatrixScore) : {
      const bio::SubstitutionMatrix *M =
          Matrices[static_cast<size_t>(In->B)];
      assert(M && "matrix parameter not bound");
      R[In->A].I = M->score(static_cast<char>(R[In->C].I),
                            static_cast<char>(R[In->D].I));
    }
      VM_NEXT();
    VM_CASE(TransStart) : {
      R[In->A].I = Hmms[static_cast<size_t>(In->B)]
                       .H->transition(static_cast<unsigned>(R[In->C].I))
                       .From;
    }
      VM_NEXT();
    VM_CASE(TransEnd) : {
      R[In->A].I = Hmms[static_cast<size_t>(In->B)]
                       .H->transition(static_cast<unsigned>(R[In->C].I))
                       .To;
    }
      VM_NEXT();
    VM_CASE(TransLogProb) : {
      R[In->A].D = Hmms[static_cast<size_t>(In->B)]
                       .LogTrans[static_cast<size_t>(R[In->C].I)];
    }
      VM_NEXT();
    VM_CASE(StateIsStart) : {
      R[In->A].I = Hmms[static_cast<size_t>(In->B)]
                       .H->state(static_cast<unsigned>(R[In->C].I))
                       .IsStart;
    }
      VM_NEXT();
    VM_CASE(StateIsEnd) : {
      R[In->A].I = Hmms[static_cast<size_t>(In->B)]
                       .H->state(static_cast<unsigned>(R[In->C].I))
                       .IsEnd;
    }
      VM_NEXT();
    VM_CASE(Emission) : {
      const BoundHmm &BH = Hmms[static_cast<size_t>(In->B)];
      size_t State = static_cast<size_t>(R[In->C].I);
      unsigned Col = BH.CharCol[static_cast<unsigned char>(
          static_cast<char>(R[In->D].I))];
      R[In->A].D = BH.Emissions[State * BH.Stride + Col];
    }
      VM_NEXT();
    VM_CASE(Reduce) : {
      const ReduceDesc &Rd = Prog->Reduces[static_cast<size_t>(In->A)];
      const BoundHmm &BH = Hmms[Rd.HmmParam];
      assert(BH.H && "reduction over unbound hmm");
      unsigned State = static_cast<unsigned>(R[Rd.StateReg].I);
      const std::vector<unsigned> &Set =
          Rd.OverIncoming ? BH.H->transitionsTo(State)
                          : BH.H->transitionsFrom(State);
      // Identities for empty sets, exactly as the tree-walker
      // initialises its accumulators.
      LogSumExp ProbSum;
      double AccumReal = 0.0;
      int64_t AccumInt = 0;
      switch (Rd.Kind) {
      case lang::ReductionKind::Sum:
        break;
      case lang::ReductionKind::Max:
        AccumReal = NegInfinity;
        AccumInt = std::numeric_limits<int64_t>::min();
        break;
      case lang::ReductionKind::Min:
        AccumReal = std::numeric_limits<double>::infinity();
        AccumInt = std::numeric_limits<int64_t>::max();
        break;
      }
      bool First = true;
      for (unsigned T : Set) {
        R[Rd.VarReg].I = static_cast<int64_t>(T);
        execRange(Pc + 1, Rd.BodyEnd, Point, Table, Acc);
        Acc.add(Rd.ElemCost);
        const RegValue Body = R[Rd.BodyReg];
        switch (Rd.Kind) {
        case lang::ReductionKind::Sum:
          if (Rd.AccKind == ReduceDesc::Acc::Prob)
            ProbSum.add(Body.D);
          else if (Rd.AccKind == ReduceDesc::Acc::Int)
            AccumInt += Body.I;
          else
            AccumReal += Body.D;
          break;
        case lang::ReductionKind::Min:
          if (Rd.AccKind == ReduceDesc::Acc::Int)
            AccumInt = First ? Body.I : std::min(AccumInt, Body.I);
          else
            AccumReal = First ? Body.D : std::min(AccumReal, Body.D);
          break;
        case lang::ReductionKind::Max:
          if (Rd.AccKind == ReduceDesc::Acc::Int)
            AccumInt = First ? Body.I : std::max(AccumInt, Body.I);
          else
            AccumReal = First ? Body.D : std::max(AccumReal, Body.D);
          break;
        }
        First = false;
      }
      if (Rd.AccKind == ReduceDesc::Acc::Int)
        R[Rd.DstReg].I = AccumInt;
      else if (Rd.Kind == lang::ReductionKind::Sum &&
               Rd.AccKind == ReduceDesc::Acc::Prob)
        R[Rd.DstReg].D = ProbSum.result();
      else
        R[Rd.DstReg].D = AccumReal;
      Pc = Rd.BodyEnd;
      VM_DISPATCH();
    }

#undef VM_CASE
#undef VM_DISPATCH
#undef VM_NEXT
  }

  template <typename TableT>
  double readTable(int32_t CallIdx, const int64_t *Point,
                   const TableT &Table) {
    const CallDesc &Cd = Prog->Calls[static_cast<size_t>(CallIdx)];
    const CallArg *Args = &Prog->CallArgsPool[Cd.FirstArg];
    int64_t Target[8];
    for (unsigned A = 0; A != Cd.NumArgs; ++A) {
      const CallArg &Ca = Args[A];
      if (Ca.Reg >= 0) {
        Target[A] = Regs[static_cast<size_t>(Ca.Reg)].I;
      } else {
        const int64_t *Coeffs = &Prog->AffinePool[Ca.CoeffOffset];
        int64_t V = Ca.Bias;
        for (unsigned D = 0; D != Prog->NumDims; ++D)
          V += Coeffs[D] * Point[D];
        Target[A] = V;
      }
    }
    return Table.get(Target);
  }

  std::shared_ptr<const BytecodeProgram> Prog;
  std::vector<RegValue> Regs;

  // Bound per-parameter state (indexed by parameter).
  std::vector<BoundSeq> Seqs;
  std::vector<const bio::SubstitutionMatrix *> Matrices;
  std::vector<BoundHmm> Hmms;
  std::vector<int64_t> IntArgs;
  std::vector<double> RealArgs;
};

} // namespace codegen
} // namespace parrec

#endif // PARREC_CODEGEN_BYTECODEVM_H
