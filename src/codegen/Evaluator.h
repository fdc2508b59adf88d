//===- Evaluator.h - Executable form of compiled DSL functions ----*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cell evaluator: the typed AST of a recursion is executed directly
/// over a runtime environment (bound calling arguments, the current
/// recursion point, and a DP-table view for recursive lookups), counting
/// abstract cost events as it goes. This plays the role the paper's
/// nvcc-compiled kernels play on real hardware; the synthesized CUDA
/// source itself is produced separately by CudaEmitter.
///
/// Values of type `prob` are computed in log space (Section 3.2's
/// motivation for a dedicated probability type): multiplication becomes
/// addition and summation becomes log-sum-exp, eliminating underflow on
/// long sequences.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_CODEGEN_EVALUATOR_H
#define PARREC_CODEGEN_EVALUATOR_H

#include "bio/Hmm.h"
#include "bio/Sequence.h"
#include "bio/SubstitutionMatrix.h"
#include "gpu/CostModel.h"
#include "lang/Sema.h"

#include <vector>

namespace parrec {
namespace codegen {

/// One bound calling argument. Only the member matching the parameter's
/// type is meaningful.
struct ArgValue {
  const bio::Sequence *Seq = nullptr;
  const bio::SubstitutionMatrix *Matrix = nullptr;
  const bio::Hmm *Hmm = nullptr;
  int64_t Int = 0;
  double Real = 0.0;

  static ArgValue ofSeq(const bio::Sequence *S) {
    ArgValue V;
    V.Seq = S;
    return V;
  }
  static ArgValue ofMatrix(const bio::SubstitutionMatrix *M) {
    ArgValue V;
    V.Matrix = M;
    return V;
  }
  static ArgValue ofHmm(const bio::Hmm *H) {
    ArgValue V;
    V.Hmm = H;
    return V;
  }
  static ArgValue ofInt(int64_t I) {
    ArgValue V;
    V.Int = I;
    return V;
  }
  static ArgValue ofReal(double R) {
    ArgValue V;
    V.Real = R;
    return V;
  }
};

/// Read access to the DP table for recursive lookups.
class TableView {
public:
  virtual ~TableView() = default;
  /// Value previously stored for the recursion point \p Point (one entry
  /// per recursion dimension).
  virtual double get(const int64_t *Point) const = 0;
};

/// Log-space caches of an HMM's parameters, built once per binding so
/// per-cell evaluation avoids libm calls.
struct HmmLogCache {
  const bio::Hmm *Model = nullptr;
  std::vector<double> LogTransitionProbs;
  /// Per state: per alphabet character log emission; empty for silent
  /// states (which contribute log 1 = 0).
  std::vector<std::vector<double>> LogEmissions;
  /// The same emissions as the VM and the JIT read them, dense with
  /// stride alphabet size + 1: silent states are all-zero rows, and the
  /// last column (-inf) is where CharCol maps characters outside the
  /// alphabet.
  std::vector<double> Emissions;
  uint32_t EmissionStride = 0;
  std::vector<uint16_t> CharCol; // 256 entries, one per character.

  void build(const bio::Hmm &Hmm);
};

/// Validates that an analysed function can actually be executed by this
/// backend (e.g. no subtraction of probabilities, reductions only over
/// transition sets). Reports errors; returns false on failure.
bool validateForExecution(const lang::FunctionDecl &F,
                          DiagnosticEngine &Diags);

/// Evaluates cells of one recursion for one problem binding.
///
/// Thread-compatible: a bound Evaluator is read-only during evalCell, so
/// a single instance can serve the whole simulated block.
class Evaluator {
public:
  Evaluator(const lang::FunctionDecl &F, const lang::FunctionInfo &Info);

  /// Binds the calling arguments (one ArgValue per declared parameter;
  /// entries for recursive parameters are ignored) and precomputes model
  /// caches.
  void bind(std::vector<ArgValue> Args);

  const lang::FunctionInfo &info() const { return Info; }
  const std::vector<ArgValue> &boundArgs() const { return Args; }

  /// The per-parameter log-space model caches built by bind(). The
  /// bytecode VM borrows these so both evaluators read identical bits.
  const std::vector<HmmLogCache> &hmmCaches() const { return HmmCaches; }

  /// Computes the value of the cell at \p Point (recursion-dimension
  /// coordinates), reading dependencies from \p Table and charging events
  /// to \p Cost. The returned double is what the table stores (log-space
  /// for prob functions).
  double evalCell(const int64_t *Point, const TableView &Table,
                  gpu::CostCounter &Cost) const;

private:
  const lang::FunctionDecl &Decl;
  const lang::FunctionInfo &Info;
  std::vector<ArgValue> Args;
  std::vector<HmmLogCache> HmmCaches; // Parallel to Args.

  /// Dimension index for each parameter (-1 for calling parameters).
  std::vector<int> ParamToDim;

  struct EvalContext;
  struct RuntimeValue;
  RuntimeValue evalExpr(const lang::Expr *E, EvalContext &Ctx) const;
};

} // namespace codegen
} // namespace parrec

#endif // PARREC_CODEGEN_EVALUATOR_H
