//===- AffineExpr.h - Integer affine expressions ------------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integer affine expressions a1*x1 + ... + an*xn + c over a fixed number
/// of dimensions. These are the common currency of the whole compiler:
/// descent functions, scheduling functions, polyhedron constraints and
/// generated loop bounds are all affine expressions.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_POLY_AFFINEEXPR_H
#define PARREC_POLY_AFFINEEXPR_H

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace parrec {
namespace poly {

/// An affine expression over a fixed dimension count.
///
/// The dimension count is fixed at construction; all arithmetic requires
/// both operands to agree. Coefficients and the constant are 64-bit; the
/// schedules and domains handled by the compiler are tiny, so overflow is
/// not a practical concern (asserts guard the entry points).
class AffineExpr {
public:
  AffineExpr() = default;

  /// Creates the zero expression over \p NumDims dimensions.
  explicit AffineExpr(unsigned NumDims)
      : Coefficients(NumDims, 0), Constant(0) {}

  /// Creates an expression with explicit coefficients and constant.
  AffineExpr(std::vector<int64_t> Coefficients, int64_t Constant)
      : Coefficients(std::move(Coefficients)), Constant(Constant) {}

  /// Returns the expression "x_Dim" over \p NumDims dimensions.
  static AffineExpr dim(unsigned NumDims, unsigned Dim) {
    AffineExpr E(NumDims);
    assert(Dim < NumDims && "dimension out of range");
    E.Coefficients[Dim] = 1;
    return E;
  }

  /// Returns the constant expression \p Value over \p NumDims dimensions.
  static AffineExpr constant(unsigned NumDims, int64_t Value) {
    AffineExpr E(NumDims);
    E.Constant = Value;
    return E;
  }

  unsigned numDims() const {
    return static_cast<unsigned>(Coefficients.size());
  }

  int64_t coefficient(unsigned Dim) const {
    assert(Dim < numDims() && "dimension out of range");
    return Coefficients[Dim];
  }
  void setCoefficient(unsigned Dim, int64_t Value) {
    assert(Dim < numDims() && "dimension out of range");
    Coefficients[Dim] = Value;
  }

  int64_t constantTerm() const { return Constant; }
  void setConstantTerm(int64_t Value) { Constant = Value; }

  /// True when every coefficient is zero.
  bool isConstant() const;

  AffineExpr operator+(const AffineExpr &Other) const;
  AffineExpr operator-(const AffineExpr &Other) const;
  AffineExpr operator*(int64_t Scale) const;
  AffineExpr operator-() const { return *this * -1; }

  AffineExpr &operator+=(const AffineExpr &Other);
  AffineExpr &operator-=(const AffineExpr &Other);

  friend bool operator==(const AffineExpr &A, const AffineExpr &B) {
    return A.Coefficients == B.Coefficients && A.Constant == B.Constant;
  }

  /// Evaluates the expression at the point \p Values (one entry per dim).
  int64_t evaluate(const std::vector<int64_t> &Values) const;
  int64_t evaluate(const int64_t *Values, size_t Count) const;

  /// Appends \p Extra zero-coefficient dimensions at position \p At.
  AffineExpr insertDims(unsigned At, unsigned Extra) const;

  /// Removes dimension \p Dim (its coefficient must be zero).
  AffineExpr removeDim(unsigned Dim) const;

  /// Substitutes dimension \p Dim with \p Replacement (which must have the
  /// same dimension count and a zero coefficient for \p Dim).
  AffineExpr substitute(unsigned Dim, const AffineExpr &Replacement) const;

  /// Renders the expression using \p DimNames, e.g. "x + 2*y - 3".
  std::string str(const std::vector<std::string> &DimNames) const;

  /// Renders with default names x0..xn-1.
  std::string str() const;

private:
  std::vector<int64_t> Coefficients;
  int64_t Constant = 0;
};

/// Greatest common divisor of non-negative integers (gcd(0, x) == x).
int64_t gcd64(int64_t A, int64_t B);

/// Integer ceiling division, correct for negative numerators.
int64_t ceilDiv(int64_t Numerator, int64_t Denominator);

/// Integer floor division, correct for negative numerators.
int64_t floorDiv(int64_t Numerator, int64_t Denominator);

} // namespace poly
} // namespace parrec

#endif // PARREC_POLY_AFFINEEXPR_H
