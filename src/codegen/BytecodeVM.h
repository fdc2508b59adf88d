//===- BytecodeVM.h - Register VM for compiled cell bodies --------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes BytecodeProgram instruction streams. A VM is bound to one
/// problem (one Evaluator binding) and then evaluates cells through a
/// single switch-dispatch loop — no recursion, no variant values, no
/// per-cell name resolution.
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
    const Slot &R = Regs[static_cast<size_t>(Prog->ResultReg)];
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
  union Slot {
    int64_t I;
    double D;
  };

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

  // Threaded (computed-goto) dispatch gives every opcode handler its own
  // indirect branch, so the branch predictor learns per-opcode successor
  // patterns instead of sharing one jump for the whole switch. GCC and
  // Clang support labels-as-values; everything else gets the portable
  // switch with identical handler bodies (the handlers are written once,
  // below, behind the VM_CASE/VM_NEXT/VM_DISPATCH macros).
#if defined(__GNUC__) || defined(__clang__)
#define PARREC_VM_THREADED_DISPATCH 1
#else
#define PARREC_VM_THREADED_DISPATCH 0
#endif

  template <typename TableT>
  void execRange(uint32_t Pc, uint32_t End, const int64_t *Point,
                 const TableT &Table, CostAcc &Acc) {
    const Instr *Code = Prog->Code.data();
    Slot *R = Regs.data();
    const Instr *In;
    // Packed cost lanes for this pass; one add per instruction, spread
    // into the wide accumulator on exit. Forward-only jumps plus the
    // compiler's whole-code lane-total check make carries impossible.
    uint64_t Packed = 0;
#if PARREC_VM_THREADED_DISPATCH
    // One label per opcode, in exact Opcode declaration order.
    static const void *const Labels[] = {
        &&Op_ConstInt,      &&Op_ConstReal,  &&Op_Move,
        &&Op_LoadPoint,     &&Op_LoadArgInt, &&Op_LoadArgReal,
        &&Op_IntToReal,     &&Op_LogOf,      &&Op_AddInt,
        &&Op_SubInt,        &&Op_MulInt,     &&Op_DivInt,
        &&Op_MinInt,        &&Op_MaxInt,     &&Op_AddReal,
        &&Op_SubReal,       &&Op_MulReal,    &&Op_DivReal,
        &&Op_MinReal,       &&Op_MaxReal,    &&Op_LogMul,
        &&Op_LogDiv,        &&Op_LogSum,     &&Op_CmpLtReal,
        &&Op_CmpLeReal,     &&Op_CmpGtReal,  &&Op_CmpGeReal,
        &&Op_CmpEqReal,     &&Op_CmpNeReal,  &&Op_CmpEqInt,
        &&Op_CmpNeInt,      &&Op_JumpIfFalse, &&Op_Jump,
        &&Op_TableReadReal, &&Op_TableReadBool, &&Op_TableReadInt,
        &&Op_TableReadRoundInt,
        &&Op_SeqChar,       &&Op_MatrixScore, &&Op_TransStart,
        &&Op_TransEnd,      &&Op_TransLogProb, &&Op_StateIsStart,
        &&Op_StateIsEnd,    &&Op_Emission,   &&Op_Reduce};
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
#else
#define VM_CASE(Name) case Opcode::Name
#define VM_DISPATCH() continue
#define VM_NEXT()                                                         \
  do {                                                                    \
    ++Pc;                                                                 \
    continue;                                                             \
  } while (0)
    while (Pc < End) {
      In = &Code[Pc];
      Packed += In->Cost;
      switch (In->Op) {
#endif

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
    VM_CASE(IntToReal) : { R[In->A].D = static_cast<double>(R[In->B].I); }
      VM_NEXT();
    VM_CASE(LogOf) : { R[In->A].D = pr_tolog(R[In->B].D); }
      VM_NEXT();
    VM_CASE(AddInt) : { R[In->A].I = R[In->B].I + R[In->C].I; }
      VM_NEXT();
    VM_CASE(SubInt) : { R[In->A].I = R[In->B].I - R[In->C].I; }
      VM_NEXT();
    VM_CASE(MulInt) : { R[In->A].I = R[In->B].I * R[In->C].I; }
      VM_NEXT();
    VM_CASE(DivInt) : {
      R[In->A].I = R[In->C].I == 0 ? 0 : R[In->B].I / R[In->C].I;
    }
      VM_NEXT();
    VM_CASE(MinInt) : {
      R[In->A].I = R[In->B].I < R[In->C].I ? R[In->B].I : R[In->C].I;
    }
      VM_NEXT();
    VM_CASE(MaxInt) : {
      R[In->A].I = R[In->B].I > R[In->C].I ? R[In->B].I : R[In->C].I;
    }
      VM_NEXT();
    VM_CASE(AddReal) : { R[In->A].D = R[In->B].D + R[In->C].D; }
      VM_NEXT();
    VM_CASE(SubReal) : { R[In->A].D = R[In->B].D - R[In->C].D; }
      VM_NEXT();
    VM_CASE(MulReal) : { R[In->A].D = R[In->B].D * R[In->C].D; }
      VM_NEXT();
    VM_CASE(DivReal) : { R[In->A].D = R[In->B].D / R[In->C].D; }
      VM_NEXT();
    VM_CASE(MinReal) : {
      R[In->A].D = R[In->B].D < R[In->C].D ? R[In->B].D : R[In->C].D;
    }
      VM_NEXT();
    VM_CASE(MaxReal) : {
      R[In->A].D = R[In->B].D > R[In->C].D ? R[In->B].D : R[In->C].D;
    }
      VM_NEXT();
    VM_CASE(LogMul) : { R[In->A].D = R[In->B].D + R[In->C].D; }
      VM_NEXT();
    VM_CASE(LogDiv) : { R[In->A].D = R[In->B].D - R[In->C].D; }
      VM_NEXT();
    VM_CASE(LogSum) : { R[In->A].D = pr_logaddexp(R[In->B].D, R[In->C].D); }
      VM_NEXT();
    VM_CASE(CmpLtReal) : { R[In->A].I = R[In->B].D < R[In->C].D; }
      VM_NEXT();
    VM_CASE(CmpLeReal) : { R[In->A].I = R[In->B].D <= R[In->C].D; }
      VM_NEXT();
    VM_CASE(CmpGtReal) : { R[In->A].I = R[In->B].D > R[In->C].D; }
      VM_NEXT();
    VM_CASE(CmpGeReal) : { R[In->A].I = R[In->B].D >= R[In->C].D; }
      VM_NEXT();
    VM_CASE(CmpEqReal) : { R[In->A].I = R[In->B].D == R[In->C].D; }
      VM_NEXT();
    VM_CASE(CmpNeReal) : { R[In->A].I = R[In->B].D != R[In->C].D; }
      VM_NEXT();
    VM_CASE(CmpEqInt) : { R[In->A].I = R[In->B].I == R[In->C].I; }
      VM_NEXT();
    VM_CASE(CmpNeInt) : { R[In->A].I = R[In->B].I != R[In->C].I; }
      VM_NEXT();
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
        const Slot Body = R[Rd.BodyReg];
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

#if !PARREC_VM_THREADED_DISPATCH
      }
    }
    Acc.flushPacked(Packed);
#endif
#undef VM_CASE
#undef VM_DISPATCH
#undef VM_NEXT
  }
#undef PARREC_VM_THREADED_DISPATCH

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
  std::vector<Slot> Regs;

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
