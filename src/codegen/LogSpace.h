//===- LogSpace.h - Log-space probability arithmetic --------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The log-space arithmetic shared by every cell evaluator. Its one
/// definition is CellMath.h, included here inside parrec::codegen: the
/// AST tree-walker, the bytecode compiler's constant folding and the VM
/// call its pr_ helpers, and the native JIT prints the same text into
/// every kernel. So all three compile the very same floating-point
/// operation sequence, one operation per statement, built with
/// -ffp-contract=off so no pair is fused into an FMA, and their
/// probabilities agree bit for bit.
///
/// The `exp` and the final `log` of the online sum are ParRec's own
/// (pr_lse_exp, pr_lse_log), so the sum does not depend on the host's
/// libm; pr_tolog and pr_logaddexp call libm.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_CODEGEN_LOGSPACE_H
#define PARREC_CODEGEN_LOGSPACE_H

#include <cmath>
#include <cstdint>
#include <limits>

namespace parrec {
namespace codegen {

inline constexpr double NegInfinity =
    -std::numeric_limits<double>::infinity();

#include "codegen/CellMath.h"

/// The running (m, s) of the log-space n-ary `sum` (pr_lse_add). The
/// empty sum is -inf.
struct LogSumExp {
  double M = NegInfinity;
  double S = 0.0;

  void add(double X) { pr_lse_add(&M, &S, X); }
  double result() const { return pr_lse_result(M, S); }
};

} // namespace codegen
} // namespace parrec

#endif // PARREC_CODEGEN_LOGSPACE_H
