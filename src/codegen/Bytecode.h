//===- Bytecode.h - Register bytecode for cell bodies -------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat, register-based instruction stream compiled from an analysed
/// FunctionDecl body. The per-cell hot path executes this instead of
/// re-walking the typed AST: one pass over fixed-size instructions with
/// all name resolution (parameter -> dimension, HMM parameter lookup by
/// name, sequence/matrix parameter indices) done at compile time.
///
/// Opcodes.def lists the opcodes and states, once, what each register
/// operation computes; the enum below, the VM, the constant folder and
/// both scans of the native JIT expand it.
///
/// The compiler additionally
///   - folds constant subexpressions (and the type conversions between
///     them) into immediate loads, computing them with evalRegOp,
///   - strength-reduces recursive table lookups whose arguments are
///     affine in the recursion point into precomputed coefficient
///     vectors (no per-cell argument evaluation at all),
/// while preserving the abstract cost accounting *exactly*: every
/// instruction carries the static gpu::CostCounter delta the AST
/// evaluator would have charged for the subtree it replaces, so cycle
/// totals — and therefore every figure in the evaluation — are unchanged.
///
/// Compilation is conservative: any construct whose dynamic-kind
/// behaviour cannot be proven statically (e.g. an `if` whose branches
/// produce different runtime kinds) makes compileToBytecode return null
/// and the caller falls back to the AST evaluator, which remains the
/// semantics oracle.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_CODEGEN_BYTECODE_H
#define PARREC_CODEGEN_BYTECODE_H

#include "lang/Sema.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace parrec {
namespace codegen {

/// Static cost delta charged when an instruction executes. Mirrors
/// gpu::CostCounter field-for-field; uint16 is ample for any folded
/// subtree (the compiler refuses folds that would overflow).
struct InstrCost {
  uint16_t Ops = 0;
  uint16_t TableReads = 0;
  uint16_t TableWrites = 0;
  uint16_t ModelReads = 0;
  uint16_t Transcendentals = 0;

  InstrCost &operator+=(const InstrCost &O) {
    Ops += O.Ops;
    TableReads += O.TableReads;
    TableWrites += O.TableWrites;
    ModelReads += O.ModelReads;
    Transcendentals += O.Transcendentals;
    return *this;
  }
};

/// The opcodes, in the order of Opcodes.def, whose rows also state what
/// each register operation computes.
enum class Opcode : uint8_t {
#define PARREC_OPCODE(Name) Name,
#include "codegen/Opcodes.def"
};

/// One register: the int64 slot (ints, bools, chars, indices) or the
/// double slot (reals and log-space probabilities).
union RegValue {
  int64_t I;
  double D;
};

/// Register operation \p Op (a PARREC_UNARY or PARREC_BINARY row of
/// Opcodes.def) applied to the operands \p B and \p C (C unused by a
/// unary one), as the VM executes it. The constant folder computes
/// through it.
RegValue evalRegOp(Opcode Op, RegValue B, RegValue C);

/// Operand of an Infix row: an int converts to uint64_t, where C++
/// defines + - * to wrap in two's complement (the result converts back
/// on assignment); a double passes unchanged.
inline uint64_t infixOperand(int64_t V) { return static_cast<uint64_t>(V); }
inline double infixOperand(double V) { return V; }

// The forms of Opcodes.def as C++ over operand slots X and Y, for the
// VM's handlers and evalRegOp.
#define PARREC_CXX1_Cast(What, X) static_cast<What>(X)
#define PARREC_CXX1_Call(What, X) What(X)
#define PARREC_CXX2_Infix(What, X, Y) (infixOperand(X) What infixOperand(Y))
#define PARREC_CXX2_Compare(What, X, Y) ((X) What (Y))
#define PARREC_CXX2_Select(What, X, Y) ((X) What (Y) ? (X) : (Y))
#define PARREC_CXX2_Call(What, X, Y) What(X, Y)

/// One fixed-size instruction. Imm holds an integer or double immediate
/// depending on the opcode.
/// Instruction costs ride in one uint64 with four 16-bit lanes
/// (Ops | TableReads<<16 | ModelReads<<32 | Transcendentals<<48), so the
/// dispatch loop accumulates a whole cost vector with a single add.
/// TableWrites never occurs inside an expression (only the per-cell
/// store charges one), so it needs no lane. Lane sums cannot carry into
/// a neighbour: jumps are forward-only, so one pass executes each
/// instruction at most once, and the compiler rejects programs whose
/// whole-code lane totals don't fit 16 bits.
inline uint64_t packInstrCost(const InstrCost &C) {
  return static_cast<uint64_t>(C.Ops) |
         static_cast<uint64_t>(C.TableReads) << 16 |
         static_cast<uint64_t>(C.ModelReads) << 32 |
         static_cast<uint64_t>(C.Transcendentals) << 48;
}

/// One instruction, packed to 32 bytes (two per cache line): 16-bit
/// operands are plenty — the compiler bails out on any body needing more
/// than 32k registers or instructions, far beyond any real recursion.
struct Instr {
  Opcode Op;
  int16_t A = 0;
  int16_t B = 0;
  int16_t C = 0;
  int16_t D = 0;
  uint64_t Cost = 0; // packInstrCost lanes
  union {
    int64_t I;
    double D;
  } Imm = {0};
};
static_assert(sizeof(Instr) <= 32, "keep the dispatch loop cache-dense");

/// One argument of a recursive lookup: either precomputed affine
/// coefficients over the recursion point (Reg < 0) or a register
/// computed by ordinary instructions (Reg >= 0).
struct CallArg {
  int32_t Reg = -1;
  uint32_t CoeffOffset = 0; // Into BytecodeProgram::AffinePool; NumDims
                            // consecutive coefficients.
  int64_t Bias = 0;
};

/// A recursive lookup's argument list (slice of CallArgsPool).
struct CallDesc {
  uint32_t FirstArg = 0;
  uint32_t NumArgs = 0;
};

/// A reduction over s.transitionsto / s.transitionsfrom.
struct ReduceDesc {
  enum class Acc : uint8_t { Prob, Int, Real };

  uint16_t HmmParam = 0;
  bool OverIncoming = true; // transitionsto (vs transitionsfrom)
  lang::ReductionKind Kind = lang::ReductionKind::Sum;
  Acc AccKind = Acc::Prob;
  uint32_t BodyEnd = 0; // Body = [reduce pc + 1, BodyEnd).
  int32_t StateReg = 0; // Input: the state whose set is iterated.
  int32_t VarReg = 0;   // Receives each transition index; the body
                        // only reads it (NativeJit relies on this).
  int32_t BodyReg = 0;  // Body result (for Prob: already log-space).
  int32_t DstReg = 0;
  InstrCost ElemCost;   // Accumulation cost charged per element.
};

/// How the final register is converted into the stored table value,
/// replicating Evaluator::evalCell's return-type switch statically.
enum class ResultConv : uint8_t {
  RealSlot,    // R.D as-is
  IntSlot,     // double(R.I)
  BoolSlot,    // R.I ? 1.0 : 0.0
  LogRealSlot, // pr_tolog(R.D) (linear body feeding a prob function)
  LogIntSlot,  // pr_tolog(double(R.I))
};

/// How each declared parameter is consumed at bind time.
enum class ParamClass : uint8_t {
  Unused, // Recursion dimensions and anything never read from Args.
  Seq,
  Matrix,
  Hmm,
  Int,
  Real, // float and (log-space) prob scalars
};

/// The compiled, immutable form of one recursion body. Built once per
/// CompiledRecurrence, attached to every ExecutablePlan (so PlanCache
/// hits skip compilation too), and executed by BytecodeVM.
struct BytecodeProgram {
  std::vector<Instr> Code;
  std::vector<CallArg> CallArgsPool;
  std::vector<CallDesc> Calls;
  std::vector<ReduceDesc> Reduces;
  std::vector<int64_t> AffinePool;
  std::vector<ParamClass> ParamClasses; // One per declared parameter.

  uint32_t NumRegs = 0;
  uint32_t NumDims = 0;
  int32_t ResultReg = 0;
  ResultConv Conv = ResultConv::RealSlot;
};

/// Compiles \p F's body to bytecode. Returns null when the body uses a
/// construct the compiler does not model bit-exactly; callers then keep
/// using the AST evaluator.
std::shared_ptr<const BytecodeProgram>
compileToBytecode(const lang::FunctionDecl &F,
                  const lang::FunctionInfo &Info);

} // namespace codegen
} // namespace parrec

#endif // PARREC_CODEGEN_BYTECODE_H
