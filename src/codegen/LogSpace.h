//===- LogSpace.h - Log-space probability arithmetic --------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The log-space primitives shared by every cell evaluator (the AST
/// tree-walker and the bytecode VM; the native JIT emits the same
/// operations). Keeping a single definition is what guarantees the
/// backends produce bit-identical probabilities: all compile to the very
/// same floating-point operation sequence, one operation per statement,
/// built with -ffp-contract=off so no pair is fused into an FMA.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_CODEGEN_LOGSPACE_H
#define PARREC_CODEGEN_LOGSPACE_H

#include <cmath>
#include <limits>

namespace parrec {
namespace codegen {

inline constexpr double NegInfinity =
    -std::numeric_limits<double>::infinity();

/// Linear -> log conversion; log 0 is -inf.
inline double toLog(double Linear) {
  return Linear <= 0.0 ? NegInfinity : std::log(Linear);
}

/// log(exp(A) + exp(B)) without overflow; the log-space binary '+'.
inline double logAddExp(double A, double B) {
  if (A == NegInfinity)
    return B;
  if (B == NegInfinity)
    return A;
  double Hi = A > B ? A : B;
  double Lo = A > B ? B : A;
  return Hi + std::log1p(std::exp(Lo - Hi));
}

/// The log-space n-ary `sum`: an online log-sum-exp (Milakov &
/// Gimelshein, "Online normalizer calculation for softmax"). It keeps
/// the running maximum M and the sum S of exp(x - M) over the elements
/// added so far, so each element costs one `exp` that does not wait on
/// the previous element's, and the whole sum one `log`. -inf elements
/// are skipped, as logAddExp skips them; the empty sum is -inf.
struct LogSumExp {
  double M = NegInfinity;
  double S = 0.0;

  void add(double X) {
    if (X == NegInfinity)
      return;
    if (X <= M) {
      double E = std::exp(X - M);
      S = S + E;
    } else {
      double E = std::exp(M - X);
      double Scaled = S * E;
      S = Scaled + 1.0;
      M = X;
    }
  }

  double result() const {
    if (M == NegInfinity)
      return NegInfinity;
    double L = std::log(S);
    return M + L;
  }
};

} // namespace codegen
} // namespace parrec

#endif // PARREC_CODEGEN_LOGSPACE_H
