//===- CudaEmitterTest.cpp - Tests for CUDA source synthesis -----------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "codegen/CudaEmitter.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <cctype>
#include <set>

using namespace parrec;
using namespace parrec::lang;

namespace {

struct Emitted {
  std::unique_ptr<FunctionDecl> Decl;
  FunctionInfo Info;
  std::string Source;
};

Emitted emit(const char *DslSource, solver::Schedule S) {
  DiagnosticEngine Diags;
  Parser P(DslSource, Diags);
  Emitted Result;
  Result.Decl = P.parseFunctionOnly();
  EXPECT_TRUE(Result.Decl != nullptr) << Diags.str();
  Sema Analysis(Diags, {"dna", "rna", "protein", "en"});
  auto Info = Analysis.analyze(*Result.Decl);
  EXPECT_TRUE(Info.has_value()) << Diags.str();
  Result.Info = std::move(*Info);
  Result.Source =
      codegen::emitCudaKernel(*Result.Decl, Result.Info, std::move(S));
  return Result;
}

const char *EditDistanceSource =
    "int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =\n"
    "  if i == 0 then j\n"
    "  else if j == 0 then i\n"
    "  else if s[i-1] == t[j-1] then d(i-1, j-1)\n"
    "  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1\n";

const char *ForwardSource =
    "prob forward(hmm h, state[h] s, seq[dna] x, index[x] i) =\n"
    "  if i == 0 then\n"
    "    if s.isstart then 1.0 else 0.0\n"
    "  else\n"
    "    (if s.isend then 1.0 else s.emission[x[i-1]]) *\n"
    "    sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))\n";

} // namespace

TEST(CudaEmitterTest, EditDistanceKernelStructure) {
  Emitted E = emit(EditDistanceSource, solver::Schedule{{1, 1}});
  const std::string &Src = E.Source;

  // Header comment documents the schedule.
  EXPECT_NE(Src.find("// Schedule: S_d(i, j) = i + j"),
            std::string::npos)
      << Src;
  // Cell function over an int table.
  EXPECT_NE(Src.find("__device__ int d_cell("), std::string::npos);
  // Figure 10's kernel structure: time loop, striped space loop with
  // thread stride, coordinate reconstruction, barrier.
  EXPECT_NE(Src.find("__global__ void d_kernel("), std::string::npos);
  EXPECT_NE(Src.find("for (int p = 0; p <= i_n + j_n - 2; p++)"),
            std::string::npos)
      << Src;
  EXPECT_NE(Src.find("parrec_tid + ("), std::string::npos);
  EXPECT_NE(Src.find("i += parrec_tn"), std::string::npos);
  EXPECT_NE(Src.find("const int j = p - i;"), std::string::npos)
      << "the eliminated dimension must be reconstructed";
  EXPECT_NE(Src.find("__syncthreads();"), std::string::npos);
  // The user's sequence parameter 't' must not collide with thread ids.
  EXPECT_EQ(Src.find("const int t = threadIdx"), std::string::npos);
}

TEST(CudaEmitterTest, EditDistanceCellLowering) {
  Emitted E = emit(EditDistanceSource, solver::Schedule{{1, 1}});
  const std::string &Src = E.Source;
  // Sequence accesses and min-chains appear; recursive calls become
  // row-major table reads with symbolic extents.
  EXPECT_NE(Src.find("s["), std::string::npos);
  EXPECT_NE(Src.find("farr["), std::string::npos);
  EXPECT_NE(Src.find("* j_n + ("), std::string::npos) << Src;
}

TEST(CudaEmitterTest, ForwardKernelLogSpace) {
  Emitted E = emit(ForwardSource, solver::Schedule{{0, 1}});
  const std::string &Src = E.Source;

  EXPECT_NE(Src.find("__device__ float forward_cell("),
            std::string::npos);
  // Probability multiplication lowers to log-space addition, the
  // pairwise helper is emitted for binary `+`, and the sum reduction
  // lowers to a CSR loop (ForwardSumFoldsOnline checks its fold).
  EXPECT_NE(Src.find("parrec_logaddexpf("), std::string::npos);
  EXPECT_NE(Src.find("h_in_off["), std::string::npos);
  EXPECT_NE(Src.find("h_tr_logprob["), std::string::npos);
  EXPECT_NE(Src.find("h_emis["), std::string::npos);
  // Float literals are valid C ("1.0f", never "1f").
  EXPECT_NE(Src.find("1.0f"), std::string::npos) << Src;
  EXPECT_EQ(Src.find(" 1f"), std::string::npos) << Src;
  // Accumulator starts at log(0).
  EXPECT_NE(Src.find("= -INFINITY;"), std::string::npos);
  // The schedule S = i makes the state loop the striped one.
  EXPECT_NE(Src.find("s += parrec_tn"), std::string::npos) << Src;
}

TEST(CudaEmitterTest, ForwardSumFoldsOnline) {
  // The sum folds into a running maximum and a scaled sum (CellMath.h's
  // pr_lse_add, in float) and never calls the pairwise helper.
  Emitted E = emit(ForwardSource, solver::Schedule{{0, 1}});
  const std::string &Src = E.Source;
  size_t Cell = Src.find("__device__ float forward_cell(");
  ASSERT_NE(Cell, std::string::npos) << Src;
  std::string Body = Src.substr(Cell);
  EXPECT_NE(Body.find("parrec_lse_addf(&"), std::string::npos) << Body;
  EXPECT_NE(Body.find("parrec_lse_resultf("), std::string::npos) << Body;
  EXPECT_EQ(Body.find("parrec_logaddexpf("), std::string::npos) << Body;
}

TEST(CudaEmitterTest, MatrixLoweringAndGuards) {
  const char *Source =
      "int sw(matrix[protein] m, seq[protein] a, index[a] i,\n"
      "       seq[protein] b, index[b] j) =\n"
      "  if i == 0 then 0\n"
      "  else if j == 0 then 0\n"
      "  else 0 max (sw(i-1, j-1) + m[a[i-1], b[j-1]])\n"
      "       max (sw(i-1, j) - 4) max (sw(i, j-1) - 4)\n";
  Emitted E = emit(Source, solver::Schedule{{1, 1}});
  EXPECT_NE(E.Source.find("m[parrec_chr("), std::string::npos)
      << E.Source;
  EXPECT_NE(E.Source.find("* m_dim + parrec_chr("), std::string::npos);
}

TEST(CudaEmitterTest, NonUnitScheduleEmitsDivisibilityGuard) {
  Emitted E = emit(EditDistanceSource, solver::Schedule{{2, 1}});
  // With S = 2i + j, reconstructing a coordinate from the time-step can
  // involve a division: either a fixed level with a divisor guard or
  // ceil/floor-divided bounds must appear.
  bool HasGuard = E.Source.find("% 2 != 0) continue;") !=
                  std::string::npos;
  bool HasDivBounds = E.Source.find("_div(") != std::string::npos;
  EXPECT_TRUE(HasGuard || HasDivBounds) << E.Source;
}

TEST(CudaEmitterTest, DivisionHelpersAreDefined) {
  // With S = 2i + j the space loop's bounds divide by 2. Every division
  // helper the kernel calls must be defined in the same text.
  Emitted E = emit(EditDistanceSource, solver::Schedule{{2, 1}});
  const std::string &Src = E.Source;
  size_t Kernel = Src.find("__global__ void d_kernel(");
  ASSERT_NE(Kernel, std::string::npos) << Src;
  std::set<std::string> Called;
  for (size_t At = Src.find("_div(", Kernel); At != std::string::npos;
       At = Src.find("_div(", At + 1)) {
    size_t Begin = At;
    while (Begin > 0 && (std::isalnum(static_cast<unsigned char>(
                             Src[Begin - 1])) ||
                         Src[Begin - 1] == '_'))
      --Begin;
    Called.insert(Src.substr(Begin, At + 4 - Begin));
  }
  EXPECT_FALSE(Called.empty()) << Src;
  for (const std::string &Name : Called)
    EXPECT_NE(Src.find("__device__ static inline int " + Name + "("),
              std::string::npos)
        << Name << " is called but not defined:\n"
        << Src;
}

TEST(CudaEmitterTest, IntDivisionCallsTheDslHelper) {
  // C's `/` is undefined for k == 0, where every evaluator gives 0, so
  // the cell divides ints with parrec_div, which the text defines.
  Emitted E = emit("int f(int n, int k) =\n"
                   "  if n == 0 then 7 / k else f(n-1, k) + 1\n",
                   solver::Schedule{{1, 0}});
  const std::string &Src = E.Source;
  size_t Cell = Src.find("__device__ int f_cell(");
  ASSERT_NE(Cell, std::string::npos) << Src;
  std::string Body = Src.substr(Cell, Src.find("\n}\n", Cell) - Cell);
  EXPECT_NE(Body.find("= parrec_div(7, k);"), std::string::npos) << Body;
  EXPECT_EQ(Body.find(" / "), std::string::npos) << Body;
  EXPECT_NE(Src.find("__device__ static inline int parrec_div(int a, int b)"),
            std::string::npos)
      << Src;
}

TEST(CudaEmitterTest, HostLaunchStub) {
  DiagnosticEngine Diags;
  Parser P(EditDistanceSource, Diags);
  auto Decl = P.parseFunctionOnly();
  ASSERT_TRUE(Decl != nullptr);
  Sema Analysis(Diags, {"en"});
  auto Info = Analysis.analyze(*Decl);
  ASSERT_TRUE(Info.has_value()) << Diags.str();

  std::string Stub = codegen::emitHostLaunchStub(*Decl, *Info);
  EXPECT_NE(Stub.find("int d_launch("), std::string::npos) << Stub;
  EXPECT_NE(Stub.find("cudaMalloc(&farr, cells * sizeof(int));"),
            std::string::npos)
      << Stub;
  EXPECT_NE(Stub.find("d_kernel<<<1, 32>>>("), std::string::npos)
      << Stub;
  EXPECT_NE(Stub.find("i_n * j_n"), std::string::npos) << Stub;
  // No per-cell coordinates leak into the host signature or call.
  EXPECT_EQ(Stub.find("x0,"), std::string::npos) << Stub;
}

TEST(CudaEmitterTest, DeterministicOutput) {
  Emitted A = emit(EditDistanceSource, solver::Schedule{{1, 1}});
  Emitted B = emit(EditDistanceSource, solver::Schedule{{1, 1}});
  EXPECT_EQ(A.Source, B.Source);
}
