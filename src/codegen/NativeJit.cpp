//===- NativeJit.cpp - Native host JIT for executable plans -----------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "codegen/NativeJit.h"

#include "exec/Plan.h"
#include "obs/Metrics.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace parrec;
using namespace parrec::codegen;

JitKernel::~JitKernel() {
  if (Handle)
    ::dlclose(Handle);
}

//===----------------------------------------------------------------------===//
// Binding: borrows what BytecodeVM::bind borrows.
//===----------------------------------------------------------------------===//

void JitBinding::bind(const BytecodeProgram &Prog, const Evaluator &Eval) {
  const std::vector<ArgValue> &Bound = Eval.boundArgs();
  const std::vector<HmmLogCache> &Caches = Eval.hmmCaches();
  assert(Bound.size() == Prog.ParamClasses.size() &&
         "binding does not match the compiled function");

  size_t N = Bound.size();
  Seqs.assign(N, JitSeq{nullptr, 0});
  Matrices.assign(N, JitMatrix{});
  Hmms.assign(N, JitHmm{});
  IntArgs.assign(N, 0);
  RealArgs.assign(N, 0.0);
  MatrixStore.clear();
  MatrixStore.resize(N);
  HmmStore.clear();
  HmmStore.resize(N);

  for (size_t P = 0; P != N; ++P) {
    switch (Prog.ParamClasses[P]) {
    case ParamClass::Seq:
      if (const bio::Sequence *S = Bound[P].Seq) {
        Seqs[P].Data = S->data().data();
        Seqs[P].Len = S->length();
      }
      break;
    case ParamClass::Matrix: {
      const bio::SubstitutionMatrix *M = Bound[P].Matrix;
      if (!M)
        break;
      MatrixData &MD = MatrixStore[P];
      unsigned Sz = M->alphabet().size();
      MD.Scores.resize(static_cast<size_t>(Sz) * Sz);
      for (unsigned A = 0; A != Sz; ++A)
        for (unsigned B = 0; B != Sz; ++B)
          MD.Scores[static_cast<size_t>(A) * Sz + B] = M->scoreByIndex(A, B);
      MD.CharIdx.resize(256);
      for (unsigned C = 0; C != 256; ++C)
        MD.CharIdx[C] = M->alphabet().indexOf(static_cast<char>(C));
      Matrices[P] = JitMatrix{MD.Scores.data(), MD.CharIdx.data(),
                              static_cast<int64_t>(Sz), M->defaultScore()};
      break;
    }
    case ParamClass::Hmm: {
      const bio::Hmm *H = Bound[P].Hmm;
      if (!H)
        break;
      HmmData &HD = HmmStore[P];
      const HmmLogCache &Cache = Caches[P];

      unsigned NumStates = H->numStates();
      unsigned NumTrans = H->numTransitions();
      HD.From.resize(NumTrans);
      HD.To.resize(NumTrans);
      for (unsigned T = 0; T != NumTrans; ++T) {
        HD.From[T] = H->transition(T).From;
        HD.To[T] = H->transition(T).To;
      }
      HD.IsStart.resize(NumStates);
      HD.IsEnd.resize(NumStates);
      for (unsigned S = 0; S != NumStates; ++S) {
        HD.IsStart[S] = H->state(S).IsStart ? 1 : 0;
        HD.IsEnd[S] = H->state(S).IsEnd ? 1 : 0;
      }
      // CSR adjacency in the model's own list order, so reductions walk
      // transitions in the VM's exact iteration order, each entry packed
      // with the operands a reduce body reads of its transition.
      auto Packed = [&](unsigned T) {
        return JitTrans{T, HD.From[T], HD.To[T],
                        Cache.LogTransitionProbs[T]};
      };
      HD.AdjInOff.resize(NumStates + 1);
      HD.AdjOutOff.resize(NumStates + 1);
      HD.AdjIn.reserve(NumTrans);
      HD.AdjOut.reserve(NumTrans);
      for (unsigned S = 0; S != NumStates; ++S) {
        HD.AdjInOff[S] = HD.AdjIn.size();
        for (unsigned T : H->transitionsTo(S))
          HD.AdjIn.push_back(Packed(T));
        HD.AdjOutOff[S] = HD.AdjOut.size();
        for (unsigned T : H->transitionsFrom(S))
          HD.AdjOut.push_back(Packed(T));
      }
      HD.AdjInOff[NumStates] = HD.AdjIn.size();
      HD.AdjOutOff[NumStates] = HD.AdjOut.size();

      JitHmm &JH = Hmms[P];
      JH.LogTrans = Cache.LogTransitionProbs.data();
      JH.Emissions = Cache.Emissions.data();
      JH.CharCol = Cache.CharCol.data();
      JH.TransFrom = HD.From.data();
      JH.TransTo = HD.To.data();
      JH.StateIsStart = HD.IsStart.data();
      JH.StateIsEnd = HD.IsEnd.data();
      JH.AdjInOff = HD.AdjInOff.data();
      JH.AdjIn = HD.AdjIn.data();
      JH.AdjOutOff = HD.AdjOutOff.data();
      JH.AdjOut = HD.AdjOut.data();
      JH.Stride = Cache.EmissionStride;
      break;
    }
    case ParamClass::Int:
      IntArgs[P] = Bound[P].Int;
      break;
    case ParamClass::Real:
      RealArgs[P] = Bound[P].Real;
      break;
    case ParamClass::Unused:
      break;
    }
  }

  Args = JitArgs{};
  Args.Seqs = Seqs.data();
  Args.Matrices = Matrices.data();
  Args.Hmms = Hmms.data();
  Args.IntArgs = IntArgs.data();
  Args.RealArgs = RealArgs.data();
}

//===----------------------------------------------------------------------===//
// C source emission.
//===----------------------------------------------------------------------===//

namespace {

/// CellMath.h's text, embedded by the build: every kernel's prelude
/// prints it, so the kernel's log-space helpers are the evaluators' own.
const char CellMathText[] =
#include "CellMathText.inc"
    ;

std::string intLit(int64_t V) {
  if (V == std::numeric_limits<int64_t>::min())
    return "(-9223372036854775807LL - 1LL)";
  return std::to_string(V) + "LL";
}

/// Renders one ExecutablePlan as a self-contained C translation unit,
/// the same text for every box of its recursion and schedule (the box
/// comes in pr_args). Every statement performs at most one
/// floating-point operation (so -ffp-contract=off keeps the op sequence
/// identical to the VM's), real immediates are hexfloat literals, and
/// the log-space helpers are CellMath.h's own text.
class CEmitter {
public:
  explicit CEmitter(const exec::ExecutablePlan &Plan)
      : Plan(Plan), Prog(Plan.Program.get()) {}

  std::string render() {
    unsigned N = Plan.Box.numDims();
    if (!Prog || Prog->NumRegs == 0 || N == 0 || Prog->NumDims != N ||
        Plan.Sched.Coefficients.size() != N ||
        Plan.Nest.Levels.size() != 1 + static_cast<size_t>(N))
      return std::string();
    emitPrelude();
    emitKernel();
    return Failed ? std::string() : Out;
  }

private:
  const exec::ExecutablePlan &Plan;
  const BytecodeProgram *Prog;
  /// The scan being emitted bakes these strides as 0 and 1 (-1: none),
  /// which spares a reduce's table reads a multiply per element.
  int DropDim = -1, UnitDim = -1;
  std::string Out;
  int Indent = 0;
  int NextRange = 0;
  bool Failed = false;
  /// The loop variable of the innermost reduce, whose body reads its own
  /// transition through `rt`, the packed entry; -1 outside any body.
  int PackedVar = -1;

  void fail() { Failed = true; }

  /// Appends one indented, formatted line. The line is sized from
  /// vsnprintf's own count, so no statement is ever cut short.
  void line(const char *Fmt, ...) {
    va_list Ap, Again;
    va_start(Ap, Fmt);
    va_copy(Again, Ap);
    int Len = vsnprintf(nullptr, 0, Fmt, Ap);
    va_end(Ap);
    if (Len < 0) {
      va_end(Again);
      fail();
      return;
    }
    Out.append(static_cast<size_t>(Indent) * 2, ' ');
    size_t At = Out.size();
    Out.resize(At + static_cast<size_t>(Len) + 1);
    vsnprintf(&Out[At], static_cast<size_t>(Len) + 1, Fmt, Again);
    va_end(Again);
    Out.back() = '\n'; // Overwrites vsnprintf's terminating NUL.
  }

  std::string realLit(double V) {
    if (std::isnan(V)) {
      fail(); // No portable bit-exact NaN literal; fall back to the VM.
      return "0.0";
    }
    if (std::isinf(V))
      return V > 0 ? "INFINITY" : "-INFINITY";
    char Buf[64];
    snprintf(Buf, sizeof(Buf), "%a", V);
    return Buf;
  }

  /// Affine expression over the nest dimensions, rendered over pn0.. for
  /// the parameters, v0 for the partition and v1..vN for the point. Only
  /// the parameters and the variables of levels outside \p Level appear.
  std::string nestAffine(const poly::AffineExpr &E, unsigned Level) {
    unsigned P = Plan.Nest.NumParams;
    std::string S = "(" + intLit(E.constantTerm());
    for (unsigned D = 0; D != E.numDims(); ++D) {
      int64_t C = E.coefficient(D);
      if (C == 0)
        continue;
      if (D >= P + Level)
        fail(); // Bound references a not-yet-defined loop variable.
      S += " + " + intLit(C) + " * " +
           (D < P ? "pn" + std::to_string(D) : "v" + std::to_string(D - P));
    }
    S += ")";
    return S;
  }

  /// Affine expression over the recursion point, rendered over v1..vN.
  std::string pointAffine(const int64_t *Coeffs, int64_t Bias) {
    std::string S = "(" + intLit(Bias);
    for (unsigned D = 0; D != Prog->NumDims; ++D) {
      if (Coeffs[D] == 0)
        continue;
      S += " + " + intLit(Coeffs[D]) + " * v" + std::to_string(1 + D);
    }
    S += ")";
    return S;
  }

  /// The table slot of point \p X: SlidingWindowTable::slot, or
  /// FullTable::flatten, over the layout the kernel read into its st,
  /// tbase, tplane and tmin locals. The schedule coefficients, the
  /// window's fastmod constants and the strides 0 and 1 are baked.
  std::string addr(const std::vector<std::string> &X) {
    std::string Index = "(0ULL";
    for (int D = 0; D != static_cast<int>(X.size()); ++D)
      if (D != DropDim)
        Index += (D == UnitDim ? " + " : " + st" + std::to_string(D) + " * ") +
                 "(uint64_t)" + X[D];
    Index += " - tbase)";
    if (!Plan.UseWindow)
      return Index;
    std::string Part = "(0LL";
    for (unsigned D = 0; D != X.size(); ++D)
      if (int64_t C = Plan.Sched.Coefficients[D])
        Part += " + " + intLit(C) + " * " + X[D];
    Part += ")";
    uint64_t NumPlanes = static_cast<uint64_t>(Plan.WindowDepth) + 1;
    uint64_t ModMagic = std::numeric_limits<uint64_t>::max() / NumPlanes + 1;
    return "(uint64_t)((unsigned __int128)(" + std::to_string(ModMagic) +
           "ULL * (uint64_t)(" + Part + " - tmin)) * " +
           std::to_string(NumPlanes) + "ULL >> 64) * tplane + " + Index;
  }

  void emitPrelude() {
    line("/* Generated by ParRec NativeJit: one recursion and schedule;");
    line(" * the box comes in pr_args. Bit-identical to the bytecode VM by");
    line(" * construction: one FP op per statement, -ffp-contract=off,");
    line(" * hexfloat immediates, the evaluators' own CellMath.h. */");
    // The libm entry points and fixed-width types the kernel and
    // CellMath.h use, declared here rather than through <math.h> and
    // <stdint.h>, whose preprocessing alone is a sizeable share of a
    // kernel's compile. exp and log1p serve only binary `+`
    // (pr_logaddexp), and log serves pr_tolog and the sum's result.
    line("typedef __INT32_TYPE__ int32_t;");
    line("typedef __INT64_TYPE__ int64_t;");
    line("typedef __UINT8_TYPE__ uint8_t;");
    line("typedef __UINT16_TYPE__ uint16_t;");
    line("typedef __UINT32_TYPE__ uint32_t;");
    line("typedef __UINT64_TYPE__ uint64_t;");
    line("#define INFINITY (__builtin_inf())");
    line("double exp(double);");
    line("double log(double);");
    line("double log1p(double);");
    line("");
    line("typedef struct { const char *data; int64_t len; } pr_seq;");
    line("typedef struct { const int64_t *scores; const int64_t *char_idx;");
    line("  int64_t size; int64_t default_score; } pr_matrix;");
    line("typedef struct { uint64_t index, from, to; double log_prob; } "
         "pr_trans;");
    line("typedef struct { const double *log_trans; const double *emissions;");
    line("  const uint16_t *char_col; const uint64_t *trans_from;");
    line("  const uint64_t *trans_to; const uint64_t *state_is_start;");
    line("  const uint64_t *state_is_end; const uint64_t *adj_in_off;");
    line("  const pr_trans *adj_in; const uint64_t *adj_out_off;");
    line("  const pr_trans *adj_out; uint64_t stride; } pr_hmm;");
    line("typedef struct { const pr_seq *seqs; const pr_matrix *matrices;");
    line("  const pr_hmm *hmms; const int64_t *int_args;");
    line("  const double *real_args; double *table;");
    line("  uint64_t cyc_op, cyc_trans, cyc_table, cyc_model;");
    line("  const int64_t *nest_params; const int64_t *root;");
    line("  const uint64_t *strides; uint64_t base_index, plane_size;");
    line("  int64_t min_partition, first_partition, last_partition; } "
         "pr_args;");
    line("typedef struct { uint64_t ops, table_reads, table_writes,");
    line("  model_reads, transcendentals, cells;");
    line("  double table_max, root_value; uint64_t has_root; } pr_slot_t;");
    line("typedef union { int64_t i; double d; } pr_reg;");
    line("const uint64_t parrec_kernel_abi = %" PRIu64 "ULL;", JitKernelAbi);
    line("");
    line("static inline int64_t pr_ceil_div(int64_t n, int64_t d) {");
    line("  int64_t q = n / d;");
    line("  if (n %% d != 0 && n > 0)");
    line("    ++q;");
    line("  return q;");
    line("}");
    line("static inline int64_t pr_floor_div(int64_t n, int64_t d) {");
    line("  int64_t q = n / d;");
    line("  if (n %% d != 0 && n < 0)");
    line("    --q;");
    line("  return q;");
    line("}");
    Out += CellMathText;
    line("");
  }

  void emitKernel() {
    line("void parrec_scan(const pr_args *a, int64_t p, uint32_t t_begin,");
    line("                 uint32_t t_end, uint32_t n_threads,");
    line("                 int32_t check_root, pr_slot_t *slot,");
    line("                 uint64_t *thread_cycles) {");
    ++Indent;
    line("pr_reg r[%u];", Prog->NumRegs);
    line("(void)n_threads;");
    line("if (p < a->first_partition || p > a->last_partition)");
    line("  return;");
    // What depends on the box, read once per call.
    for (unsigned D = 0; D != Plan.Nest.NumParams; ++D)
      line("const int64_t pn%u = a->nest_params[%u];", D, D);
    for (unsigned D = 0; D != Prog->NumDims; ++D)
      line("const uint64_t st%u = a->strides[%u];", D, D);
    line("const uint64_t tbase = a->base_index;");
    if (Plan.UseWindow) {
      line("const uint64_t tplane = a->plane_size;");
      line("const int64_t tmin = a->min_partition;");
    }
    line("const int64_t v0 = p;");
    // The slot's counters live in locals and are stored once per call,
    // so no table store has to be assumed to alias them. JitScanner
    // passes every call its own JitSlot.
    line("uint64_t s_ops = slot->ops, s_tr = slot->table_reads;");
    line("uint64_t s_tw = slot->table_writes, s_mr = slot->model_reads;");
    line("uint64_t s_tc = slot->transcendentals, s_cells = slot->cells;");
    line("double s_max = slot->table_max;");
    // The box picks a window's dropped dimension among those the
    // schedule lets it drop (exec::pickWindowDropDim). The kernel holds
    // one scan per candidate and runs the one whose stride is 0.
    int N = static_cast<int>(Prog->NumDims);
    std::vector<int> Drops;
    for (int D = 0; Plan.UseWindow && D != N; ++D)
      if (exec::windowMayDrop(Plan.Sched, D))
        Drops.push_back(D);
    if (Drops.empty())
      Drops.push_back(-1);
    for (size_t I = 0; I != Drops.size(); ++I) {
      DropDim = Drops[I];
      UnitDim = DropDim == N - 1 ? N - 2 : N - 1;
      if (I + 1 != Drops.size())
        line("%sif (st%d == 0) {", I ? "} else " : "", DropDim);
      else if (I)
        line("} else {");
      Indent += Drops.size() > 1;
      line("for (uint32_t t = t_begin; t != t_end; ++t) {");
      ++Indent;
      line("uint64_t cyc = 0;");
      bool Striped = Plan.Nest.threadedLevel().has_value();
      if (!Striped) {
        // No space loop to stripe: every point belongs to simulated
        // thread 0, exactly as forEachPointForThread assigns it.
        line("if (t == 0u) {");
        ++Indent;
      }
      emitNestLevel(1);
      if (!Striped) {
        --Indent;
        line("}");
      }
      line("thread_cycles[t] = cyc;");
      --Indent;
      line("}");
      Indent -= Drops.size() > 1;
    }
    if (Drops.size() > 1)
      line("}");
    line("slot->ops = s_ops;");
    line("slot->table_reads = s_tr;");
    line("slot->table_writes = s_tw;");
    line("slot->model_reads = s_mr;");
    line("slot->transcendentals = s_tc;");
    line("slot->cells = s_cells;");
    line("slot->table_max = s_max;");
    --Indent;
    line("}");
  }

  void emitNestLevel(unsigned L) {
    if (Failed)
      return;
    if (L == Plan.Nest.Levels.size()) {
      emitCell();
      return;
    }
    const poly::LoopLevel &Level = Plan.Nest.Levels[L];
    if (Level.isFixed()) {
      if (Level.FixedDivisor == 1) {
        line("{");
        ++Indent;
        line("const int64_t v%u = %s;", L,
             nestAffine(*Level.FixedNumerator, L).c_str());
        emitNestLevel(L + 1);
        --Indent;
        line("}");
      } else {
        line("{");
        ++Indent;
        line("int64_t n%u = %s;", L,
             nestAffine(*Level.FixedNumerator, L).c_str());
        line("if (n%u %% %s == 0) {", L, intLit(Level.FixedDivisor).c_str());
        ++Indent;
        line("const int64_t v%u = n%u / %s;", L, L,
             intLit(Level.FixedDivisor).c_str());
        emitNestLevel(L + 1);
        --Indent;
        line("}");
        --Indent;
        line("}");
      }
      return;
    }
    if (Level.Lower.empty() || Level.Upper.empty()) {
      fail(); // Generated loops must be bounded.
      return;
    }
    line("{");
    ++Indent;
    // Max of the ceil-divided lower bounds, min of the floor-divided
    // upper bounds, in LoopNest::evalLower/evalUpper order.
    line("int64_t lo%u = pr_ceil_div(%s, %s);", L,
         nestAffine(Level.Lower[0].Numerator, L).c_str(),
         intLit(Level.Lower[0].Divisor).c_str());
    for (size_t B = 1; B < Level.Lower.size(); ++B) {
      line("{");
      line("  int64_t b = pr_ceil_div(%s, %s);",
           nestAffine(Level.Lower[B].Numerator, L).c_str(),
           intLit(Level.Lower[B].Divisor).c_str());
      line("  if (b > lo%u)", L);
      line("    lo%u = b;", L);
      line("}");
    }
    line("int64_t hi%u = pr_floor_div(%s, %s);", L,
         nestAffine(Level.Upper[0].Numerator, L).c_str(),
         intLit(Level.Upper[0].Divisor).c_str());
    for (size_t B = 1; B < Level.Upper.size(); ++B) {
      line("{");
      line("  int64_t b = pr_floor_div(%s, %s);",
           nestAffine(Level.Upper[B].Numerator, L).c_str(),
           intLit(Level.Upper[B].Divisor).c_str());
      line("  if (b < hi%u)", L);
      line("    hi%u = b;", L);
      line("}");
    }
    bool ThisStriped = Plan.Nest.threadedLevel() &&
                       *Plan.Nest.threadedLevel() == L;
    // With one simulated thread the stripe start/step degenerate to
    // lo/1, so the striped form is exact for every thread count.
    if (ThisStriped)
      line("for (int64_t v%u = lo%u + (int64_t)t; v%u <= hi%u; "
           "v%u += (int64_t)n_threads) {",
           L, L, L, L, L);
    else
      line("for (int64_t v%u = lo%u; v%u <= hi%u; ++v%u) {", L, L, L, L, L);
    ++Indent;
    emitNestLevel(L + 1);
    --Indent;
    line("}");
    --Indent;
    line("}");
  }

  void emitCell() {
    line("{");
    ++Indent;
    line("uint64_t d_ops = 0, d_tr = 0, d_tw = 0, d_mr = 0, d_tc = 0;");
    emitRange(0, static_cast<uint32_t>(Prog->Code.size()));
    const char *Conv = nullptr;
    switch (Prog->Conv) {
    case ResultConv::RealSlot:
      Conv = "r[%d].d";
      break;
    case ResultConv::IntSlot:
      Conv = "(double)r[%d].i";
      break;
    case ResultConv::BoolSlot:
      Conv = "r[%d].i ? 1.0 : 0.0";
      break;
    case ResultConv::LogRealSlot:
      Conv = "pr_tolog(r[%d].d)";
      break;
    case ResultConv::LogIntSlot:
      Conv = "pr_tolog((double)r[%d].i)";
      break;
    }
    std::string ConvExpr;
    {
      char Buf[64];
      snprintf(Buf, sizeof(Buf), Conv, Prog->ResultReg);
      ConvExpr = Buf;
    }
    std::vector<std::string> Point;
    for (unsigned D = 0; D != Prog->NumDims; ++D)
      Point.push_back("v" + std::to_string(1 + D));
    line("double cv = %s;", ConvExpr.c_str());
    line("a->table[%s] = cv;", addr(Point).c_str());
    line("d_tw += 1ULL;"); // The cell's own store, as evalCell charges it.
    line("s_ops += d_ops;");
    line("s_tr += d_tr;");
    line("s_tw += d_tw;");
    line("s_mr += d_mr;");
    line("s_tc += d_tc;");
    line("cyc += d_ops * a->cyc_op + d_tc * a->cyc_trans");
    line("    + (d_tr + d_tw) * a->cyc_table + d_mr * a->cyc_model;");
    line("s_cells += 1ULL;");
    line("if (cv > s_max)");
    line("  s_max = cv;");
    std::string RootCond = "check_root";
    for (unsigned D = 0; D != Prog->NumDims; ++D)
      RootCond += " && " + Point[D] + " == a->root[" + std::to_string(D) + "]";
    line("if (%s) {", RootCond.c_str());
    line("  slot->root_value = cv;");
    line("  slot->has_root = 1ULL;");
    line("}");
    --Indent;
    line("}");
  }

  /// Emits the instruction range [Pc, End), the unit the VM's execRange
  /// runs: its own packed cost accumulator (flushed into the wide lanes
  /// on every exit path) and function-unique labels for the structured
  /// forward jumps inside it.
  void emitRange(uint32_t Pc, uint32_t End) {
    int Rid = NextRange++;
    // Jump targets; every jump must be a structured forward jump within
    // the range and every reduce body must end inside it.
    std::set<uint32_t> Targets;
    for (uint32_t Q = Pc; Q < End && !Failed;) {
      const Instr &In = Prog->Code[Q];
      if (In.Op == Opcode::JumpIfFalse || In.Op == Opcode::Jump) {
        uint32_t T = static_cast<uint32_t>(In.Op == Opcode::Jump ? In.A
                                                                 : In.B);
        if (T <= Q || T > End)
          fail(); // Only structured forward jumps within the range.
        Targets.insert(T);
      }
      if (In.Op == Opcode::Reduce) {
        uint32_t BodyEnd = Prog->Reduces[static_cast<size_t>(In.A)].BodyEnd;
        if (BodyEnd <= Q || BodyEnd > End) {
          fail();
          return;
        }
        Q = BodyEnd;
      } else {
        ++Q;
      }
    }
    line("uint64_t pk%d = 0;", Rid);
    for (uint32_t Q = Pc; Q < End && !Failed;) {
      if (Targets.count(Q))
        line("L%d_%u: ;", Rid, Q);
      const Instr &In = Prog->Code[Q];
      // The VM charges an instruction's packed cost at dispatch, before
      // executing it (jump targets included), so the charge precedes
      // the statement and follows the label.
      if (In.Cost)
        line("pk%d += 0x%" PRIx64 "ULL;", Rid, In.Cost);
      if (In.Op == Opcode::Reduce) {
        emitReduce(In, Q);
        Q = Prog->Reduces[static_cast<size_t>(In.A)].BodyEnd;
        continue;
      }
      emitInstr(In, Rid);
      ++Q;
    }
    if (Targets.count(End))
      line("L%d_%u: ;", Rid, End);
    line("d_ops += pk%d & 0xFFFFULL;", Rid);
    line("d_tr += (pk%d >> 16) & 0xFFFFULL;", Rid);
    line("d_mr += (pk%d >> 32) & 0xFFFFULL;", Rid);
    line("d_tc += pk%d >> 48;", Rid);
  }

  void emitReduce(const Instr &In, uint32_t Pc) {
    const ReduceDesc &Rd = Prog->Reduces[static_cast<size_t>(In.A)];
    const char *Off = Rd.OverIncoming ? "adj_in_off" : "adj_out_off";
    const char *Arr = Rd.OverIncoming ? "adj_in" : "adj_out";
    bool IntAcc = Rd.AccKind == ReduceDesc::Acc::Int;
    bool ProbSum = Rd.Kind == lang::ReductionKind::Sum &&
                   Rd.AccKind == ReduceDesc::Acc::Prob;
    line("{");
    ++Indent;
    // The transition set in the model's CSR order, the VM's iteration
    // order.
    line("const pr_hmm *h = &a->hmms[%u];", Rd.HmmParam);
    line("uint64_t rs = (uint64_t)(uint32_t)r[%d].i;", Rd.StateReg);
    line("const pr_trans *rset = h->%s + h->%s[rs];", Arr, Off);
    line("uint64_t rn = h->%s[rs + 1] - h->%s[rs];", Off, Off);
    // Accumulator identities, exactly as the VM initialises them.
    switch (Rd.Kind) {
    case lang::ReductionKind::Sum:
      if (IntAcc)
        line("int64_t acc = 0;");
      else if (ProbSum)
        line("double lm = -INFINITY, ls = 0.0;");
      else
        line("double acc = 0.0;");
      break;
    case lang::ReductionKind::Max:
      if (IntAcc)
        line("int64_t acc = %s;",
             intLit(std::numeric_limits<int64_t>::min()).c_str());
      else
        line("double acc = -INFINITY;");
      break;
    case lang::ReductionKind::Min:
      if (IntAcc)
        line("int64_t acc = %s;",
             intLit(std::numeric_limits<int64_t>::max()).c_str());
      else
        line("double acc = INFINITY;");
      break;
    }
    bool NeedFirst = Rd.Kind != lang::ReductionKind::Sum;
    if (NeedFirst)
      line("int rfirst = 1;");
    line("for (uint64_t re = 0; re != rn; ++re) {");
    ++Indent;
    line("const pr_trans *rt = &rset[re];");
    line("r[%d].i = (int64_t)rt->index;", Rd.VarReg);
    line("{");
    ++Indent;
    // The body reads its own transition's operands from `rt` (the body
    // never writes the loop variable); any other transition goes
    // through the generic per-transition arrays.
    int SavedVar = PackedVar;
    PackedVar = Rd.VarReg;
    emitRange(Pc + 1, Rd.BodyEnd);
    PackedVar = SavedVar;
    --Indent;
    line("}");
    // Acc.add(ElemCost): the wide per-element accumulation charge.
    if (Rd.ElemCost.Ops)
      line("d_ops += %uULL;", Rd.ElemCost.Ops);
    if (Rd.ElemCost.TableReads)
      line("d_tr += %uULL;", Rd.ElemCost.TableReads);
    if (Rd.ElemCost.TableWrites)
      line("d_tw += %uULL;", Rd.ElemCost.TableWrites);
    if (Rd.ElemCost.ModelReads)
      line("d_mr += %uULL;", Rd.ElemCost.ModelReads);
    if (Rd.ElemCost.Transcendentals)
      line("d_tc += %uULL;", Rd.ElemCost.Transcendentals);
    const char *Slot = IntAcc ? "i" : "d";
    switch (Rd.Kind) {
    case lang::ReductionKind::Sum:
      if (ProbSum)
        line("pr_lse_add(&lm, &ls, r[%d].d);", Rd.BodyReg);
      else
        line("acc += r[%d].%s;", Rd.BodyReg, Slot);
      break;
    case lang::ReductionKind::Min:
      // std::min(acc, body) selects body only on strict body < acc.
      line("acc = rfirst ? r[%d].%s : (r[%d].%s < acc ? r[%d].%s : acc);",
           Rd.BodyReg, Slot, Rd.BodyReg, Slot, Rd.BodyReg, Slot);
      break;
    case lang::ReductionKind::Max:
      // std::max(acc, body) selects body only on strict acc < body.
      line("acc = rfirst ? r[%d].%s : (acc < r[%d].%s ? r[%d].%s : acc);",
           Rd.BodyReg, Slot, Rd.BodyReg, Slot, Rd.BodyReg, Slot);
      break;
    }
    if (NeedFirst)
      line("rfirst = 0;");
    --Indent;
    line("}");
    if (ProbSum)
      line("r[%d].d = pr_lse_result(lm, ls);", Rd.DstReg);
    else
      line("r[%d].%s = acc;", Rd.DstReg, Slot);
    --Indent;
    line("}");
  }

  void emitTableRead(const Instr &In) {
    const CallDesc &Cd = Prog->Calls[static_cast<size_t>(In.B)];
    if (Cd.NumArgs != Prog->NumDims || Cd.NumArgs > 8) {
      fail();
      return;
    }
    line("{");
    ++Indent;
    std::vector<std::string> Args;
    for (unsigned A = 0; A != Cd.NumArgs; ++A) {
      const CallArg &Ca = Prog->CallArgsPool[Cd.FirstArg + A];
      if (Ca.Reg >= 0)
        line("int64_t tg%u = r[%d].i;", A, Ca.Reg);
      else
        line("int64_t tg%u = %s;", A,
             pointAffine(&Prog->AffinePool[Ca.CoeffOffset], Ca.Bias).c_str());
      Args.push_back("tg" + std::to_string(A));
    }
    line("double tv = a->table[%s];", addr(Args).c_str());
    switch (In.Op) {
    case Opcode::TableReadReal:
      line("r[%d].d = tv;", In.A);
      break;
    case Opcode::TableReadBool:
      line("r[%d].i = tv != 0.0;", In.A);
      break;
    case Opcode::TableReadInt:
      line("r[%d].i = (int64_t)tv;", In.A);
      break;
    case Opcode::TableReadRoundInt:
      line("r[%d].i = pr_round_i64(tv);", In.A);
      break;
    default:
      fail();
      break;
    }
    --Indent;
    line("}");
  }

  void emitInstr(const Instr &In, int Rid) {
    int A = In.A, B = In.B, C = In.C, D = In.D;
    switch (In.Op) {
    case Opcode::ConstInt:
      line("r[%d].i = %s;", A, intLit(In.Imm.I).c_str());
      break;
    case Opcode::ConstReal:
      line("r[%d].d = %s;", A, realLit(In.Imm.D).c_str());
      break;
    case Opcode::Move:
      line("r[%d] = r[%d];", A, B);
      break;
    case Opcode::LoadPoint:
      line("r[%d].i = v%d;", A, 1 + B);
      break;
    case Opcode::LoadArgInt:
      line("r[%d].i = a->int_args[%d];", A, B);
      break;
    case Opcode::LoadArgReal:
      line("r[%d].d = a->real_args[%d];", A, B);
      break;
    case Opcode::IntToReal:
      line("r[%d].d = (double)r[%d].i;", A, B);
      break;
    case Opcode::LogOf:
      line("r[%d].d = pr_tolog(r[%d].d);", A, B);
      break;
    case Opcode::AddInt:
      line("r[%d].i = r[%d].i + r[%d].i;", A, B, C);
      break;
    case Opcode::SubInt:
      line("r[%d].i = r[%d].i - r[%d].i;", A, B, C);
      break;
    case Opcode::MulInt:
      line("r[%d].i = r[%d].i * r[%d].i;", A, B, C);
      break;
    case Opcode::DivInt:
      line("r[%d].i = r[%d].i == 0 ? 0 : r[%d].i / r[%d].i;", A, C, B, C);
      break;
    case Opcode::MinInt:
      line("r[%d].i = r[%d].i < r[%d].i ? r[%d].i : r[%d].i;", A, B, C, B,
           C);
      break;
    case Opcode::MaxInt:
      line("r[%d].i = r[%d].i > r[%d].i ? r[%d].i : r[%d].i;", A, B, C, B,
           C);
      break;
    case Opcode::AddReal:
      line("r[%d].d = r[%d].d + r[%d].d;", A, B, C);
      break;
    case Opcode::SubReal:
      line("r[%d].d = r[%d].d - r[%d].d;", A, B, C);
      break;
    case Opcode::MulReal:
      line("r[%d].d = r[%d].d * r[%d].d;", A, B, C);
      break;
    case Opcode::DivReal:
      line("r[%d].d = r[%d].d / r[%d].d;", A, B, C);
      break;
    case Opcode::MinReal:
      line("r[%d].d = r[%d].d < r[%d].d ? r[%d].d : r[%d].d;", A, B, C, B,
           C);
      break;
    case Opcode::MaxReal:
      line("r[%d].d = r[%d].d > r[%d].d ? r[%d].d : r[%d].d;", A, B, C, B,
           C);
      break;
    case Opcode::LogMul:
      line("r[%d].d = r[%d].d + r[%d].d;", A, B, C);
      break;
    case Opcode::LogDiv:
      line("r[%d].d = r[%d].d - r[%d].d;", A, B, C);
      break;
    case Opcode::LogSum:
      line("r[%d].d = pr_logaddexp(r[%d].d, r[%d].d);", A, B, C);
      break;
    case Opcode::CmpLtReal:
      line("r[%d].i = r[%d].d < r[%d].d;", A, B, C);
      break;
    case Opcode::CmpLeReal:
      line("r[%d].i = r[%d].d <= r[%d].d;", A, B, C);
      break;
    case Opcode::CmpGtReal:
      line("r[%d].i = r[%d].d > r[%d].d;", A, B, C);
      break;
    case Opcode::CmpGeReal:
      line("r[%d].i = r[%d].d >= r[%d].d;", A, B, C);
      break;
    case Opcode::CmpEqReal:
      line("r[%d].i = r[%d].d == r[%d].d;", A, B, C);
      break;
    case Opcode::CmpNeReal:
      line("r[%d].i = r[%d].d != r[%d].d;", A, B, C);
      break;
    case Opcode::CmpEqInt:
      line("r[%d].i = r[%d].i == r[%d].i;", A, B, C);
      break;
    case Opcode::CmpNeInt:
      line("r[%d].i = r[%d].i != r[%d].i;", A, B, C);
      break;
    case Opcode::JumpIfFalse:
      line("if (!r[%d].i)", A);
      line("  goto L%d_%u;", Rid, static_cast<uint32_t>(B));
      break;
    case Opcode::Jump:
      line("goto L%d_%u;", Rid, static_cast<uint32_t>(A));
      break;
    case Opcode::TableReadReal:
    case Opcode::TableReadBool:
    case Opcode::TableReadInt:
    case Opcode::TableReadRoundInt:
      emitTableRead(In);
      break;
    case Opcode::SeqChar:
      line("r[%d].i = (int64_t)a->seqs[%d].data[r[%d].i];", A, B, C);
      break;
    case Opcode::MatrixScore:
      line("{");
      line("  const pr_matrix *m = &a->matrices[%d];", B);
      line("  int64_t ia = m->char_idx[(uint8_t)(char)r[%d].i];", C);
      line("  int64_t ib = m->char_idx[(uint8_t)(char)r[%d].i];", D);
      line("  r[%d].i = (ia < 0 || ib < 0)", A);
      line("      ? m->default_score : m->scores[ia * m->size + ib];");
      line("}");
      break;
    case Opcode::TransStart:
      if (C == PackedVar)
        line("r[%d].i = (int64_t)rt->from;", A);
      else
        line("r[%d].i = (int64_t)a->hmms[%d].trans_from[(uint32_t)r[%d].i];",
             A, B, C);
      break;
    case Opcode::TransEnd:
      if (C == PackedVar)
        line("r[%d].i = (int64_t)rt->to;", A);
      else
        line("r[%d].i = (int64_t)a->hmms[%d].trans_to[(uint32_t)r[%d].i];",
             A, B, C);
      break;
    case Opcode::TransLogProb:
      if (C == PackedVar)
        line("r[%d].d = rt->log_prob;", A);
      else
        line("r[%d].d = a->hmms[%d].log_trans[(uint64_t)r[%d].i];", A, B, C);
      break;
    case Opcode::StateIsStart:
      line("r[%d].i = "
           "(int64_t)a->hmms[%d].state_is_start[(uint32_t)r[%d].i];",
           A, B, C);
      break;
    case Opcode::StateIsEnd:
      line("r[%d].i = (int64_t)a->hmms[%d].state_is_end[(uint32_t)r[%d].i];",
           A, B, C);
      break;
    case Opcode::Emission:
      line("{");
      line("  const pr_hmm *h = &a->hmms[%d];", B);
      line("  r[%d].d = h->emissions[(uint64_t)r[%d].i * h->stride", A, C);
      line("      + h->char_col[(uint8_t)(char)r[%d].i]];", D);
      line("}");
      break;
    case Opcode::Reduce:
      fail(); // Handled by emitRange; reaching here is a logic error.
      break;
    default:
      fail(); // Unknown opcode: fall back to the VM.
      break;
    }
  }
};

uint64_t fnv1a(std::string_view S, uint64_t H = 0xcbf29ce484222325ULL) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// A rendered translation unit and the hash of its text without the
/// trailing `parrec_kernel_source_hash` definition (which holds that
/// same hash, so a loaded object can prove which source it came from).
struct RenderedKernel {
  std::string Source;
  uint64_t SourceHash = 0;
};

RenderedKernel renderKernel(const exec::ExecutablePlan &Plan) {
  RenderedKernel K;
  K.Source = CEmitter(Plan).render();
  if (K.Source.empty())
    return K;
  K.SourceHash = fnv1a(K.Source);
  char Def[96];
  snprintf(Def, sizeof(Def),
           "const uint64_t parrec_kernel_source_hash = 0x%016" PRIx64
           "ULL;\n",
           K.SourceHash);
  K.Source += Def;
  return K;
}

} // namespace

std::string codegen::renderKernelSource(const exec::ExecutablePlan &Plan) {
  return renderKernel(Plan).Source;
}

//===----------------------------------------------------------------------===//
// Compilation, disk cache and fallback.
//===----------------------------------------------------------------------===//

namespace {

std::atomic<uint64_t> WarningsPrinted{0};

void warnOnce(const char *Reason) {
  uint64_t Expected = 0;
  if (WarningsPrinted.compare_exchange_strong(Expected, 1))
    std::fprintf(stderr,
                 "parrec: warning: native jit unavailable (%s); "
                 "falling back to the bytecode VM\n",
                 Reason);
}

std::shared_ptr<const JitKernel> fallBack(const char *Reason) {
  warnOnce(Reason);
  obs::MetricsRegistry::global().add("jit.fallbacks");
  return nullptr;
}

std::string resolveCacheDir(const std::string &Override) {
  if (!Override.empty())
    return Override;
  if (const char *E = std::getenv("ParRec_JIT_CACHE"); E && *E)
    return E;
  if (const char *Home = std::getenv("HOME"); Home && *Home)
    return std::string(Home) + "/.cache/parrec-jit";
  return "/tmp/parrec-jit";
}

/// Loads the kernel at \p SoPath, or returns null when the object
/// cannot be loaded or was not built from the source hashing to
/// \p SourceHash under this JitKernelAbi. A stale or foreign object at
/// a cache path would otherwise run another recursion's or schedule's
/// nest and cell body.
std::shared_ptr<const JitKernel> tryLoad(const std::string &SoPath,
                                         uint64_t SourceHash) {
  void *Handle = ::dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle)
    return nullptr;
  void *Sym = ::dlsym(Handle, "parrec_scan");
  const auto *Abi =
      static_cast<const uint64_t *>(::dlsym(Handle, "parrec_kernel_abi"));
  const auto *Hash = static_cast<const uint64_t *>(
      ::dlsym(Handle, "parrec_kernel_source_hash"));
  if (!Sym || !Abi || !Hash || *Abi != JitKernelAbi ||
      *Hash != SourceHash) {
    ::dlclose(Handle);
    return nullptr;
  }
  return std::make_shared<JitKernel>(
      Handle, reinterpret_cast<JitKernelFn>(Sym));
}

/// Compiles \p CPath into the shared object \p OutPath with the host C
/// compiler, started directly rather than through a shell, so a path is
/// never parsed as shell text. $CC (default `cc`) is split on
/// whitespace, so a launcher such as `ccache cc` works. The compiler's
/// diagnostics go to /dev/null. Returns null on success, else the
/// fallback reason.
const char *runCompiler(const std::string &CPath, const std::string &OutPath) {
  std::vector<std::string> Argv;
  const char *Cc = std::getenv("CC");
  std::istringstream Words(Cc ? Cc : "");
  for (std::string Word; Words >> Word;)
    Argv.push_back(Word);
  if (Argv.empty())
    Argv.push_back("cc");
  for (const char *Flag :
       {"-O2", "-pipe", "-shared", "-fPIC", "-ffp-contract=off", "-o"})
    Argv.push_back(Flag);
  Argv.push_back(OutPath);
  Argv.push_back(CPath);
  Argv.push_back("-lm");
  std::vector<char *> Ptrs;
  for (std::string &Arg : Argv)
    Ptrs.push_back(Arg.data());
  Ptrs.push_back(nullptr);

  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_addopen(&Actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  pid_t Pid = 0;
  int Err = ::posix_spawnp(&Pid, Ptrs[0], &Actions, nullptr, Ptrs.data(),
                           environ);
  posix_spawn_file_actions_destroy(&Actions);
  if (Err != 0)
    return "host C compiler could not be started";
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0)
    if (errno != EINTR)
      return "host C compiler could not be waited for";
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    return "host C compiler exited non-zero";
  return nullptr;
}

} // namespace

uint64_t codegen::jitWarningsEmitted() { return WarningsPrinted.load(); }

std::shared_ptr<const JitKernel>
codegen::compileKernel(const exec::ExecutablePlan &Plan,
                       const JitCompileOptions &Opts) {
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();

  RenderedKernel Rendered = renderKernel(Plan);
  if (Rendered.Source.empty())
    return fallBack("unsupported plan or cell-body shape");

  std::string Dir = resolveCacheDir(Opts.CacheDir);
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec)
    return fallBack("cannot create the jit cache directory");

  // Cache key: schedule fingerprint mixed into a hash of the emitted
  // source (which bakes the nest, the window depth and the program but
  // no box), so every box of a recursion and schedule shares one entry.
  uint64_t Key = Rendered.SourceHash ^
                 (Plan.Sched.fingerprint() * 0x9e3779b97f4a7c15ULL);
  char Hex[24];
  snprintf(Hex, sizeof(Hex), "%016" PRIx64, Key);
  std::string SoPath = Dir + "/k" + Hex + ".so";

  if (std::filesystem::exists(SoPath, Ec) && !Ec) {
    if (auto Kernel = tryLoad(SoPath, Rendered.SourceHash)) {
      Metrics.add("jit.cache_hits");
      return Kernel;
    }
    // Corrupt, stale or foreign entry: drop it and recompile below.
    std::filesystem::remove(SoPath, Ec);
  }

  // Every compile writes and compiles its own copy of the source, so a
  // concurrent compile of the same kernel never reads a file that
  // another is rewriting (cc compiles a truncated, empty file without
  // complaint, into an object with no symbols). The copy keeps the `.c`
  // suffix, from which cc picks the language.
  static std::atomic<uint64_t> TmpCounter{0};
  std::string Tmp = SoPath + "." + std::to_string(::getpid()) + "." +
                    std::to_string(TmpCounter.fetch_add(1)) + ".tmp";
  std::string TmpSource = Tmp + ".c";
  {
    std::ofstream Os(TmpSource, std::ios::trunc);
    Os << Rendered.Source;
    if (!Os) {
      std::filesystem::remove(TmpSource, Ec);
      return fallBack("cannot write the generated source");
    }
  }

  auto T0 = std::chrono::steady_clock::now();
  const char *Failure = runCompiler(TmpSource, Tmp);
  auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - T0)
                .count();
  // Atomic publish so concurrent compiles of one plan race benignly.
  if (!Failure && std::rename(Tmp.c_str(), SoPath.c_str()) != 0)
    Failure = "cannot publish the compiled kernel";
  // The source stays beside its kernel (or its failed compile) for
  // reading.
  if (std::rename(TmpSource.c_str(), (Dir + "/k" + Hex + ".c").c_str()) != 0)
    std::filesystem::remove(TmpSource, Ec);
  if (Failure) {
    std::filesystem::remove(Tmp, Ec);
    return fallBack(Failure);
  }
  Metrics.add("jit.cache_misses");
  Metrics.record("jit.compile_ns", static_cast<double>(Ns));

  if (auto Kernel = tryLoad(SoPath, Rendered.SourceHash))
    return Kernel;
  return fallBack("dlopen of the compiled kernel failed");
}
