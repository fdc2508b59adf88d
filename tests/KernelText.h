//===- KernelText.h - Reading a rendered JIT kernel's text ------*- C++ -*-===//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers for the tests that read the C text NativeJit renders.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_TESTS_KERNELTEXT_H
#define PARREC_TESTS_KERNELTEXT_H

#include <cctype>
#include <string>
#include <vector>

namespace parrec {

/// The libm functions that \p Text calls: each of exp, exp2, log, log1p,
/// llround and ldexp that appears outside a comment as a whole
/// identifier followed by '(', so pr_lse_log( is not log(.
inline std::vector<std::string> libmCalls(const std::string &Text) {
  std::string Code;
  for (size_t I = 0; I < Text.size();) {
    if (Text.compare(I, 2, "//") == 0) {
      I = Text.find('\n', I);
    } else if (Text.compare(I, 2, "/*") == 0) {
      I = Text.find("*/", I);
      if (I != std::string::npos)
        I += 2;
    } else {
      Code += Text[I++];
      continue;
    }
    if (I == std::string::npos)
      break;
    Code += ' ';
  }
  auto IsIdent = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  };
  std::vector<std::string> Calls;
  for (size_t I = 0; I < Code.size();) {
    if (!IsIdent(Code[I])) {
      ++I;
      continue;
    }
    size_t End = I;
    while (End < Code.size() && IsIdent(Code[End]))
      ++End;
    std::string Name = Code.substr(I, End - I);
    size_t Next = Code.find_first_not_of(" \t\n\\", End);
    if (Next != std::string::npos && Code[Next] == '(')
      for (const char *Libm :
           {"exp", "exp2", "log", "log1p", "llround", "ldexp"})
        if (Name == Libm)
          Calls.push_back(Name);
    I = End;
  }
  return Calls;
}

} // namespace parrec

#endif // PARREC_TESTS_KERNELTEXT_H
