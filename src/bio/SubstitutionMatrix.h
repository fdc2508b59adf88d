//===- SubstitutionMatrix.h - Substitution matrices ---------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The substitution-matrix extension of Section 5.1: a table giving the
/// cost/score of substituting one alphabet character for another, indexed
/// as m[a, b] from the DSL. BLOSUM62 is built in for the Smith-Waterman
/// case study.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_BIO_SUBSTITUTIONMATRIX_H
#define PARREC_BIO_SUBSTITUTIONMATRIX_H

#include "bio/Alphabet.h"
#include "support/Diagnostics.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace parrec {
namespace bio {

/// A square score table over an alphabet.
class SubstitutionMatrix {
public:
  SubstitutionMatrix() = default;
  SubstitutionMatrix(std::string Name, Alphabet Alpha,
                     std::vector<int> Scores);

  const std::string &name() const { return Name; }
  const Alphabet &alphabet() const { return Alpha; }

  /// Score of substituting \p A for \p B. Characters outside the alphabet
  /// score the configured default (0).
  int score(char A, char B) const {
    int IA = Alpha.indexOf(A);
    int IB = Alpha.indexOf(B);
    if (IA < 0 || IB < 0)
      return DefaultScore;
    return Scores[static_cast<size_t>(IA) * Alpha.size() +
                  static_cast<size_t>(IB)];
  }

  int scoreByIndex(unsigned A, unsigned B) const {
    return Scores[static_cast<size_t>(A) * Alpha.size() + B];
  }

  int defaultScore() const { return DefaultScore; }

  /// The BLOSUM62 matrix over the 20 standard amino acids.
  static const SubstitutionMatrix &blosum62();

  /// A simple match/mismatch matrix (+Match on the diagonal, -Mismatch
  /// elsewhere) over \p Alpha.
  static SubstitutionMatrix matchMismatch(const Alphabet &Alpha, int Match,
                                          int Mismatch);

  /// Parses the textual form: first line is the column alphabet, each
  /// following line "X: s1 s2 ... sn". Returns nullopt on error.
  static std::optional<SubstitutionMatrix>
  parse(std::string_view Text, DiagnosticEngine &Diags);

  /// Renders in the format parse() accepts.
  std::string str() const;

private:
  std::string Name;
  Alphabet Alpha;
  std::vector<int> Scores;
  int DefaultScore = 0;
};

} // namespace bio
} // namespace parrec

#endif // PARREC_BIO_SUBSTITUTIONMATRIX_H
