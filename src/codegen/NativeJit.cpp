//===- NativeJit.cpp - Native host JIT for executable plans -----------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "codegen/NativeJit.h"

#include "exec/Plan.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <atomic>
#include <bit>
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
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <optional>
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

std::vector<JitSeq> codegen::jitSeqs(const BytecodeProgram &Prog,
                                     const std::vector<ArgValue> &Args) {
  assert(Args.size() == Prog.ParamClasses.size() &&
         "arguments do not match the compiled function");
  std::vector<JitSeq> Seqs(Args.size(), JitSeq{nullptr, 0});
  for (size_t P = 0; P != Args.size(); ++P)
    if (const bio::Sequence *S = Args[P].Seq;
        S && Prog.ParamClasses[P] == ParamClass::Seq)
      Seqs[P] = JitSeq{S->data().data(), S->length()};
  return Seqs;
}

void JitBinding::bind(const BytecodeProgram &Prog, const Evaluator &Eval) {
  const std::vector<ArgValue> &Bound = Eval.boundArgs();
  const std::vector<HmmLogCache> &Caches = Eval.hmmCaches();
  assert(Bound.size() == Prog.ParamClasses.size() &&
         "binding does not match the compiled function");

  size_t N = Bound.size();
  Seqs = jitSeqs(Prog, Bound);
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

/// The expression forms of Opcodes.def.
enum class RegOpForm : uint8_t { Cast, Call, Infix, Compare, Select };

/// A register operation's row of Opcodes.def, as kernel text: its result
/// and operand slots ('i' or 'd', pr_reg's members), its form and the
/// type, helper or operator the form applies.
struct RegOp {
  bool Binary;
  char Res, Opnd;
  RegOpForm Form;
  const char *What;
};

/// The kernel's pr_reg member of the table's slot name "I" or "D".
constexpr char kernelSlot(const char *Slot) {
  return Slot[0] == 'I' ? 'i' : 'd';
}

/// \p Op's row, or nothing for an opcode that reads other state.
std::optional<RegOp> regOp(Opcode Op) {
  switch (Op) {
#define PARREC_UNARY(Name, Res, Opnd, Form, What)                             \
  case Opcode::Name:                                                          \
    return RegOp{false, kernelSlot(#Res), kernelSlot(#Opnd), RegOpForm::Form, \
                 #What};
#define PARREC_BINARY(Name, Res, Opnd, Form, What)                            \
  case Opcode::Name:                                                          \
    return RegOp{true, kernelSlot(#Res), kernelSlot(#Opnd), RegOpForm::Form,  \
                 #What};
#include "codegen/Opcodes.def"
  default:
    return std::nullopt;
  }
}

/// Register operation \p R over the operands \p X and \p Y (Y unused
/// by a unary one), as a C expression.
std::string regOpExpr(const RegOp &R, const std::string &X,
                      const std::string &Y) {
  std::string What = R.What;
  switch (R.Form) {
  case RegOpForm::Cast:
    return "(" + What + ")" + X;
  case RegOpForm::Call:
    return What + "(" + X + (R.Binary ? ", " + Y : "") + ")";
  case RegOpForm::Infix:
  case RegOpForm::Compare:
    return X + " " + What + " " + Y;
  case RegOpForm::Select:
    return X + " " + What + " " + Y + " ? " + X + " : " + Y;
  }
  return std::string();
}

/// Renders one ExecutablePlan as a self-contained C translation unit,
/// the same text for every box of its recursion and schedule (the box
/// comes in pr_args). Every statement performs at most one
/// floating-point operation (so -ffp-contract=off keeps the op sequence
/// identical to the VM's), real immediates are hexfloat literals, and
/// the log-space helpers are CellMath.h's own text. A body whose control
/// flow no lane-dependent value decides also gets parrec_scan_lanes,
/// the same scan over JitLanes problems at once.
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
    HasSum = std::any_of(Prog->Reduces.begin(), Prog->Reduces.end(),
                         [](const ReduceDesc &Rd) { return isProbSum(Rd); });
    emitPrelude();
    line("#if PR_PART(1)");
    emitKernel();
    line("#endif");
    HasLanes = markVarying();
    if (HasLanes)
      emitLanesKernel();
    if (HasSum)
      emitSumResults();
    return Failed ? std::string() : std::move(Out);
  }

  /// Whether the rendered unit has parrec_scan_lanes, and whether it has
  /// a log-space n-ary sum, whose results part 3 computes.
  bool HasLanes = false;
  bool HasSum = false;

private:
  const exec::ExecutablePlan &Plan;
  const BytecodeProgram *Prog;
  /// Set while parrec_scan_lanes is emitted. There a varying register
  /// lives in the vector q[r], one problem per lane, and a uniform one,
  /// the same in every lane, in the scalar r[r].
  bool Lanes = false;
  std::vector<char> Varying; // One per register.
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
    // No literal spells a NaN's sign and payload, so a NaN's bits are
    // read through a union, as CellMath.h's bit casts are.
    if (std::isnan(V)) {
      char Buf[80];
      snprintf(Buf, sizeof(Buf),
               "((union { uint64_t u; double d; }){0x%016" PRIx64 "ULL}).d",
               std::bit_cast<uint64_t>(V));
      return Buf;
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
    // PARREC_KERNEL_PART picks what one compile of this text builds: 1,
    // parrec_scan and the exported constants; 2, parrec_scan_lanes; 3,
    // the log-space sums' results that both scans call; undefined,
    // everything. The JIT compiles the parts at once.
    line("#ifdef PARREC_KERNEL_PART");
    line("#define PR_PART(n) (PARREC_KERNEL_PART == (n))");
    line("#else");
    line("#define PR_PART(n) 1");
    line("#endif");
    line("#if PR_PART(1)");
    line("const uint64_t parrec_kernel_abi = %" PRIu64 "ULL;", JitKernelAbi);
    line("#endif");
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
    // A matrix score (a character outside the matrix's alphabet scores
    // the default) and an emission, which both scans read through these.
    line("static inline int64_t pr_score(const pr_matrix *m, int64_t x,");
    line("                               int64_t y) {");
    line("  int64_t ia = m->char_idx[(uint8_t)(char)x];");
    line("  int64_t ib = m->char_idx[(uint8_t)(char)y];");
    line("  return (ia < 0 || ib < 0) ? m->default_score");
    line("                            : m->scores[ia * m->size + ib];");
    line("}");
    line("static inline double pr_emission(const pr_hmm *h, int64_t s,");
    line("                                 int64_t x) {");
    line("  return h->emissions[(uint64_t)s * h->stride");
    line("                      + h->char_col[(uint8_t)(char)x]];");
    line("}");
    Out += CellMathText;
    line("");
    if (HasSum) {
      line("%s", ResultAttrs);
      line("double pr_lse_result_out(double m, double s);");
    }
  }

  void emitKernel() {
    if (Lanes) {
      line("void parrec_scan_lanes(const pr_args *a, const pr_seq *const *lseq,");
      line("                       int64_t p, uint32_t t_begin,");
      line("                       uint32_t t_end, uint32_t n_threads,");
      line("                       int32_t check_root, pr_slot_t *slot,");
      line("                       uint64_t *thread_cycles) {");
    } else {
      line("void parrec_scan(const pr_args *a, int64_t p, uint32_t t_begin,");
      line("                 uint32_t t_end, uint32_t n_threads,");
      line("                 int32_t check_root, pr_slot_t *slot,");
      line("                 uint64_t *thread_cycles) {");
    }
    ++Indent;
    line("pr_reg r[%u];", Prog->NumRegs);
    if (Lanes)
      line("pr_lreg q[%u];", Prog->NumRegs);
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
    // The length of each sequence the body reads; a lanes scan reads up
    // to the shortest lane's, since its lanes share a plan and so the
    // lengths the box holds, but not those of a sequence no index spans.
    std::set<int> ReadSeqs;
    for (const Instr &In : Prog->Code)
      if (In.Op == Opcode::SeqChar)
        ReadSeqs.insert(In.B);
    for (int B : ReadSeqs) {
      if (!Lanes) {
        line("const int64_t sl%d = a->seqs[%d].len;", B, B);
        continue;
      }
      line("int64_t sl%d = lseq[0][%d].len;", B, B);
      line("for (int l = 1; l != %u; ++l)", JitLanes);
      line("  if (lseq[l][%d].len < sl%d)", B, B);
      line("    sl%d = lseq[l][%d].len;", B, B);
    }
    // The slot's counters live in locals and are stored once per call,
    // so no table store has to be assumed to alias them. JitScanner
    // passes every call its own JitSlot.
    line("uint64_t s_ops = slot->ops, s_tr = slot->table_reads;");
    line("uint64_t s_tw = slot->table_writes, s_mr = slot->model_reads;");
    line("uint64_t s_tc = slot->transcendentals, s_cells = slot->cells;");
    if (Lanes)
      line("pr_v4d s_max = {slot[0].table_max, slot[1].table_max, "
           "slot[2].table_max, slot[3].table_max};");
    else
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
    if (Lanes) {
      for (unsigned L = 0; L != JitLanes; ++L)
        line("slot[%u].table_max = s_max[%u];", L, L);
    } else {
      line("slot->table_max = s_max;");
    }
    --Indent;
    line("}");
  }

  /// parrec_scan_lanes (JitLanesFn): parrec_scan for JitLanes problems
  /// whose arguments differ only in their sequences. A varying register
  /// holds one problem per lane of a vector; lane l reads its sequences
  /// from lseq[l] and slot s of its table at a->table[s * 4 + l], so a
  /// table access is one vector access. The counters and cycles follow
  /// control flow alone, which every lane shares, so they are counted
  /// once, into slot[0]. The function is compiled for AVX2 on x86-64
  /// only, whatever the host, so the text, and with it the cache key, is
  /// the same on every host; the host calls it only on a CPU with AVX2.
  void emitLanesKernel() {
    line("");
    line("#if defined(__x86_64__) && PR_PART(2)");
    line("typedef double pr_v4du");
    line("    __attribute__((vector_size(32), aligned(8), may_alias));");
    line("typedef union { pr_v4i i; pr_v4d d; } pr_lreg;");
    line("#define pr_splat_i(x) ((pr_v4i){(x), (x), (x), (x)})");
    line("#define pr_splat_d(x) ((pr_v4d){(x), (x), (x), (x)})");
    if (HasSum) {
      line("%s", LanesResultAttrs);
      line("pr_v4d pr_lse_result_lanes_out(pr_v4d m, pr_v4d s);");
    }
    line("__attribute__((target(\"avx2\")))");
    Lanes = true;
    NextRange = 0;
    emitKernel();
    Lanes = false;
    line("#endif");
  }

  /// Part 3: the sums' results, pr_lse_result and its lane form, out of
  /// line, so that their log compiles in parallel with the scans and
  /// the kernel's compile takes no longer. Inlined, it lengthened both
  /// scans' compiles by 10-20%. Each scan makes one call per cell, where
  /// the lanes scan called libm's log once per lane. The lane form takes
  /// and returns its vectors by value, in registers, as both sides are
  /// compiled for AVX2: through pointers, each call stored them and
  /// cleared the registers' upper halves (vzeroupper), which cost the
  /// lanes scan about a tenth of its time.
  void emitSumResults() {
    line("");
    line("#if PR_PART(3)");
    line("%s", ResultAttrs);
    line("double pr_lse_result_out(double m, double s) {");
    line("  return pr_lse_result(m, s);");
    line("}");
    line("#endif");
    if (!HasLanes)
      return;
    line("#if defined(__x86_64__) && PR_PART(3)");
    line("%s", LanesResultAttrs);
    line("pr_v4d pr_lse_result_lanes_out(pr_v4d m, pr_v4d s) {");
    line("  pr_v4d out;");
    line("  pr_lse_result_lanes(&out, &m, &s);");
    line("  return out;");
    line("}");
    line("#endif");
  }

  /// Hidden, so that the scans' calls bind within the kernel's object;
  /// the lane form is compiled for AVX2, as parrec_scan_lanes is.
  static constexpr const char *ResultAttrs =
      "__attribute__((visibility(\"hidden\")))";
  static constexpr const char *LanesResultAttrs =
      "__attribute__((target(\"avx2\"), visibility(\"hidden\")))";

  static bool isProbSum(const ReduceDesc &Rd) {
    return Rd.Kind == lang::ReductionKind::Sum &&
           Rd.AccKind == ReduceDesc::Acc::Prob;
  }

  /// Marks each register varying (in a lanes scan it may hold another
  /// value in each lane) or uniform, and returns whether the body may
  /// run in lanes. A register is varying when some instruction writes it
  /// a sequence character, a table read, an emission, a matrix score or
  /// a value computed from a varying register; point coordinates,
  /// constants, scalar arguments and model reads at uniform indices are
  /// uniform. The body may run in lanes when every branch condition,
  /// reduce state, table-read index and sequence, state and emission
  /// index is uniform: then every lane takes the same path.
  bool markVarying() {
    Varying.assign(Prog->NumRegs, 0);
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (const Instr &In : Prog->Code) {
        int Dst = In.A;
        bool Varies = false;
        switch (In.Op) {
        case Opcode::Move:
          Varies = varies(In.B);
          break;
        case Opcode::TableReadReal:
        case Opcode::TableReadBool:
        case Opcode::TableReadInt:
        case Opcode::TableReadRoundInt:
        case Opcode::SeqChar:
        case Opcode::MatrixScore:
        case Opcode::Emission:
          Varies = true;
          break;
        case Opcode::Reduce: {
          const ReduceDesc &Rd = Prog->Reduces[static_cast<size_t>(In.A)];
          Dst = Rd.DstReg;
          Varies = varies(Rd.BodyReg);
          break;
        }
        default:
          if (std::optional<RegOp> R = regOp(In.Op))
            Varies = varies(In.B) || (R->Binary && varies(In.C));
          break;
        }
        if (Varies && !varies(Dst)) {
          Varying[static_cast<size_t>(Dst)] = 1;
          Changed = true;
        }
      }
    }
    for (const Instr &In : Prog->Code) {
      switch (In.Op) {
      case Opcode::JumpIfFalse:
        if (varies(In.A))
          return false;
        break;
      case Opcode::Reduce:
        if (varies(Prog->Reduces[static_cast<size_t>(In.A)].StateReg))
          return false;
        break;
      case Opcode::TableReadReal:
      case Opcode::TableReadBool:
      case Opcode::TableReadInt:
      case Opcode::TableReadRoundInt: {
        const CallDesc &Cd = Prog->Calls[static_cast<size_t>(In.B)];
        for (unsigned A = 0; A != Cd.NumArgs; ++A) {
          int32_t Reg = Prog->CallArgsPool[Cd.FirstArg + A].Reg;
          if (Reg >= 0 && varies(Reg))
            return false;
        }
        break;
      }
      case Opcode::SeqChar:
      case Opcode::TransStart:
      case Opcode::TransEnd:
      case Opcode::TransLogProb:
      case Opcode::StateIsStart:
      case Opcode::StateIsEnd:
      case Opcode::Emission:
        if (varies(In.C))
          return false;
        break;
      default:
        break;
      }
    }
    return true;
  }

  bool varies(int R) const { return Varying[static_cast<size_t>(R)] != 0; }

  static std::string scalarReg(int R, char Slot) {
    return "r[" + std::to_string(R) + "]." + Slot;
  }
  /// Lane L of register R's slot ('i' or 'd') in a lanes scan.
  std::string laneReg(int R, char Slot, unsigned L) const {
    if (!varies(R))
      return scalarReg(R, Slot);
    return "q[" + std::to_string(R) + "]." + Slot + "[" + std::to_string(L) +
           "]";
  }
  /// Register R's slot as a vector: a uniform register is splatted.
  std::string vecReg(int R, char Slot) const {
    if (varies(R))
      return "q[" + std::to_string(R) + "]." + Slot;
    return std::string("pr_splat_") + Slot + "(" + scalarReg(R, Slot) + ")";
  }
  /// A vector of slot \p Slot built lane by lane, for a statement that has
  /// no vector form: each lane evaluates the scalar statement.
  static std::string perLane(char Slot,
                             const std::function<std::string(unsigned)> &Lane) {
    std::string E = Slot == 'd' ? "(pr_v4d){" : "(pr_v4i){";
    for (unsigned L = 0; L != JitLanes; ++L)
      E += (L ? ", " : "") + Lane(L);
    return E + "}";
  }
  /// Lane-wise Cond ? Then : Else of vector operands of slot \p Slot.
  static std::string select(char Slot, const std::string &Cond,
                            const std::string &Then, const std::string &Else) {
    return std::string(Slot == 'd' ? "(pr_v4d)" : "(pr_v4i)") +
           "PR_LANE_SELECT((pr_v4u)(" + Cond + "), (pr_v4u)" + Then +
           ", (pr_v4u)" + Else + ")";
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
    int Res = Prog->ResultReg;
    std::vector<std::string> Point;
    for (unsigned D = 0; D != Prog->NumDims; ++D)
      Point.push_back("v" + std::to_string(1 + D));
    auto Scalar = [&](char Slot) { return scalarReg(Res, Slot); };
    if (!Lanes) {
      line("double cv = %s;", converted(Scalar).c_str());
      line("a->table[%s] = cv;", addr(Point).c_str());
    } else {
      if (!varies(Res)) {
        line("double cu = %s;", converted(Scalar).c_str());
        line("pr_v4d cv = pr_splat_d(cu);");
      } else if (Prog->Conv == ResultConv::RealSlot) {
        line("pr_v4d cv = q[%d].d;", Res);
      } else {
        line("pr_v4d cv = %s;", perLane('d', [&](unsigned L) {
               return converted(
                   [&](char Slot) { return laneReg(Res, Slot, L); });
             }).c_str());
      }
      line("((pr_v4du *)a->table)[%s] = cv;", addr(Point).c_str());
    }
    line("d_tw += 1ULL;"); // The cell's own store, as evalCell charges it.
    line("s_ops += d_ops;");
    line("s_tr += d_tr;");
    line("s_tw += d_tw;");
    line("s_mr += d_mr;");
    line("s_tc += d_tc;");
    line("cyc += d_ops * a->cyc_op + d_tc * a->cyc_trans");
    line("    + (d_tr + d_tw) * a->cyc_table + d_mr * a->cyc_model;");
    line("s_cells += 1ULL;");
    if (Lanes) {
      // Strict >, so the first of equal maxima stays, in every lane.
      line("s_max = %s;", select('d', "cv > s_max", "cv", "s_max").c_str());
    } else {
      line("if (cv > s_max)");
      line("  s_max = cv;");
    }
    std::string RootCond = "check_root";
    for (unsigned D = 0; D != Prog->NumDims; ++D)
      RootCond += " && " + Point[D] + " == a->root[" + std::to_string(D) + "]";
    line("if (%s) {", RootCond.c_str());
    if (Lanes) {
      for (unsigned L = 0; L != JitLanes; ++L) {
        line("  slot[%u].root_value = cv[%u];", L, L);
        line("  slot[%u].has_root = 1ULL;", L);
      }
    } else {
      line("  slot->root_value = cv;");
      line("  slot->has_root = 1ULL;");
    }
    line("}");
    --Indent;
    line("}");
  }

  /// The value a cell stores: register \p Reg's slot ('i' or 'd')
  /// converted by Prog->Conv.
  std::string converted(const std::function<std::string(char)> &Reg) {
    switch (Prog->Conv) {
    case ResultConv::RealSlot:
      return Reg('d');
    case ResultConv::IntSlot:
      return "(double)" + Reg('i');
    case ResultConv::BoolSlot:
      return Reg('i') + " ? 1.0 : 0.0";
    case ResultConv::LogRealSlot:
      return "pr_tolog(" + Reg('d') + ")";
    case ResultConv::LogIntSlot:
      return "pr_tolog((double)" + Reg('i') + ")";
    }
    fail();
    return std::string();
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
    bool ProbSum = isProbSum(Rd);
    // A varying body in a lanes scan folds one accumulator per lane.
    bool Vec = Lanes && varies(Rd.BodyReg);
    char Slot = IntAcc ? 'i' : 'd';
    auto Identity = [&](const std::string &Value) {
      if (Vec)
        return std::string(IntAcc ? "pr_v4i" : "pr_v4d") + " acc = pr_splat_" +
               Slot + "(" + Value + ");";
      return std::string(IntAcc ? "int64_t" : "double") + " acc = " + Value +
             ";";
    };
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
      if (ProbSum && Vec)
        line("pr_v4d lm = pr_splat_d(-INFINITY), ls = pr_splat_d(0.0);");
      else if (ProbSum)
        line("double lm = -INFINITY, ls = 0.0;");
      else
        line("%s", Identity(IntAcc ? "0" : "0.0").c_str());
      break;
    case lang::ReductionKind::Max:
      line("%s", Identity(IntAcc ? intLit(std::numeric_limits<int64_t>::min())
                                 : "-INFINITY")
                     .c_str());
      break;
    case lang::ReductionKind::Min:
      line("%s", Identity(IntAcc ? intLit(std::numeric_limits<int64_t>::max())
                                 : "INFINITY")
                     .c_str());
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
    int Body = Rd.BodyReg;
    std::string BodyVec = "q[" + std::to_string(Body) + "]." + Slot;
    switch (Rd.Kind) {
    case lang::ReductionKind::Sum:
      if (ProbSum && Vec)
        line("pr_lse_add_lanes(&lm, &ls, &%s);", BodyVec.c_str());
      else if (ProbSum)
        line("pr_lse_add(&lm, &ls, r[%d].d);", Body);
      else if (Vec)
        line("acc = acc + %s;", BodyVec.c_str());
      else
        line("acc += r[%d].%c;", Body, Slot);
      break;
    case lang::ReductionKind::Min:
      // std::min(acc, body) selects body only on strict body < acc.
      if (Vec)
        line("acc = rfirst ? %s : %s;", BodyVec.c_str(),
             select(Slot, BodyVec + " < acc", BodyVec, "acc").c_str());
      else
        line("acc = rfirst ? r[%d].%c : (r[%d].%c < acc ? r[%d].%c : acc);",
             Body, Slot, Body, Slot, Body, Slot);
      break;
    case lang::ReductionKind::Max:
      // std::max(acc, body) selects body only on strict acc < body.
      if (Vec)
        line("acc = rfirst ? %s : %s;", BodyVec.c_str(),
             select(Slot, "acc < " + BodyVec, BodyVec, "acc").c_str());
      else
        line("acc = rfirst ? r[%d].%c : (acc < r[%d].%c ? r[%d].%c : acc);",
             Body, Slot, Body, Slot, Body, Slot);
      break;
    }
    if (NeedFirst)
      line("rfirst = 0;");
    --Indent;
    line("}");
    if (ProbSum && Vec)
      line("q[%d].d = pr_lse_result_lanes_out(lm, ls);", Rd.DstReg);
    else if (ProbSum)
      line("r[%d].d = pr_lse_result_out(lm, ls);", Rd.DstReg);
    else
      line("%c[%d].%c = acc;", Vec ? 'q' : 'r', Rd.DstReg, Slot);
    if (Lanes && !Vec && varies(Rd.DstReg))
      line("q[%d].i = pr_splat_i(r[%d].i);", Rd.DstReg, Rd.DstReg);
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
    if (Lanes) {
      // One vector access reads the slot in every lane.
      line("pr_v4d tv = ((const pr_v4du *)a->table)[%s];", addr(Args).c_str());
      auto EachLane = [&](const char *Fn) {
        return perLane('i', [&](unsigned L) {
          return std::string(Fn) + "(tv[" + std::to_string(L) + "])";
        });
      };
      switch (In.Op) {
      case Opcode::TableReadReal:
        line("q[%d].d = tv;", In.A);
        break;
      case Opcode::TableReadBool:
        line("q[%d].i = -(pr_v4i)(tv != pr_splat_d(0.0));", In.A);
        break;
      case Opcode::TableReadInt:
        line("q[%d].i = %s;", In.A, EachLane("(int64_t)").c_str());
        break;
      case Opcode::TableReadRoundInt:
        line("q[%d].i = %s;", In.A, EachLane("pr_round_i64").c_str());
        break;
      default:
        fail();
        break;
      }
      --Indent;
      line("}");
      return;
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
    bool WritesA = In.Op != Opcode::JumpIfFalse && In.Op != Opcode::Jump;
    if (Lanes && WritesA && varies(In.A)) {
      if (emitLaneInstr(In))
        return;
      // The value is the same in every lane: computed once, then splatted
      // (bit for bit, whichever slot it is).
      emitScalarInstr(In, Rid);
      line("q[%d].i = pr_splat_i(r[%d].i);", In.A, In.A);
      return;
    }
    emitScalarInstr(In, Rid);
  }

  /// Emits \p In, which writes a varying register, in its lanes form, and
  /// returns true; returns false when every operand is uniform and the
  /// value is then the same in every lane. A register operation's Infix,
  /// Compare and Select forms are vector statements; every other
  /// statement evaluates its scalar form in each lane.
  bool emitLaneInstr(const Instr &In) {
    int A = In.A, B = In.B, C = In.C, D = In.D;
    auto EachLane = [&](char Slot,
                        const std::function<std::string(unsigned)> &Lane) {
      line("q[%d].%c = %s;", A, Slot, perLane(Slot, Lane).c_str());
    };
    if (std::optional<RegOp> R = regOp(In.Op)) {
      if (!varies(B) && !(R->Binary && varies(C)))
        return false;
      std::string X = vecReg(B, R->Opnd), Y = vecReg(C, R->Opnd);
      switch (R->Form) {
      case RegOpForm::Infix:
        line("q[%d].%c = %s %s %s;", A, R->Res, X.c_str(), R->What,
             Y.c_str());
        break;
      case RegOpForm::Compare:
        // Scalar compares give 1 or 0; vector compares give -1 or 0.
        line("q[%d].i = -(pr_v4i)(%s %s %s);", A, X.c_str(), R->What,
             Y.c_str());
        break;
      case RegOpForm::Select:
        line("q[%d].%c = %s;", A, R->Res,
             select(R->Res, X + " " + R->What + " " + Y, X, Y).c_str());
        break;
      case RegOpForm::Cast:
      case RegOpForm::Call:
        EachLane(R->Res, [&](unsigned L) {
          return regOpExpr(*R, laneReg(B, R->Opnd, L),
                           laneReg(C, R->Opnd, L));
        });
        break;
      }
      return true;
    }
    switch (In.Op) {
    case Opcode::Move:
      if (!varies(B))
        return false;
      line("q[%d] = q[%d];", A, B);
      return true;
    case Opcode::TableReadReal:
    case Opcode::TableReadBool:
    case Opcode::TableReadInt:
    case Opcode::TableReadRoundInt:
      emitTableRead(In);
      return true;
    case Opcode::SeqChar:
      emitSeqCheck(B, C);
      EachLane('i', [&](unsigned L) {
        return "(int64_t)lseq[" + std::to_string(L) + "][" + std::to_string(B) +
               "].data[r[" + std::to_string(C) + "].i]";
      });
      return true;
    case Opcode::MatrixScore:
      if (!varies(C) && !varies(D))
        return false;
      EachLane('i', [&](unsigned L) {
        return scoreOf(B, laneReg(C, 'i', L), laneReg(D, 'i', L));
      });
      return true;
    case Opcode::Emission:
      if (!varies(D))
        return false;
      EachLane('d', [&](unsigned L) {
        return emissionOf(B, scalarReg(C, 'i'), laneReg(D, 'i', L));
      });
      return true;
    default:
      return false;
    }
  }

  /// Stops the kernel when index register \p C is outside sequence \p B,
  /// where the AST walker and the VM stop on their assertions. In a
  /// lanes scan the index is uniform, so one check covers every lane.
  void emitSeqCheck(int B, int C) {
    line("if ((uint64_t)r[%d].i >= (uint64_t)sl%d)", C, B);
    line("  __builtin_trap();");
  }

  /// Matrix B's score of the characters X and Y, and HMM B's emission
  /// of the character X in the state S, as calls of the prelude's
  /// helpers, so both scans read them through one definition.
  static std::string scoreOf(int B, const std::string &X,
                             const std::string &Y) {
    return "pr_score(&a->matrices[" + std::to_string(B) + "], " + X + ", " +
           Y + ")";
  }
  static std::string emissionOf(int B, const std::string &S,
                                const std::string &X) {
    return "pr_emission(&a->hmms[" + std::to_string(B) + "], " + S + ", " +
           X + ")";
  }

  void emitScalarInstr(const Instr &In, int Rid) {
    int A = In.A, B = In.B, C = In.C, D = In.D;
    if (std::optional<RegOp> R = regOp(In.Op)) {
      line("r[%d].%c = %s;", A, R->Res,
           regOpExpr(*R, scalarReg(B, R->Opnd), scalarReg(C, R->Opnd))
               .c_str());
      return;
    }
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
      emitSeqCheck(B, C);
      line("r[%d].i = (int64_t)a->seqs[%d].data[r[%d].i];", A, B, C);
      break;
    case Opcode::MatrixScore:
      line("r[%d].i = %s;", A,
           scoreOf(B, scalarReg(C, 'i'), scalarReg(D, 'i')).c_str());
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
      line("r[%d].d = %s;", A,
           emissionOf(B, scalarReg(C, 'i'), scalarReg(D, 'i')).c_str());
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

/// A rendered kernel text, which ends with its
/// `parrec_kernel_source_hash` definition, and the hash of the text
/// without that definition (the value it defines).
struct RenderedKernel {
  std::string Source;
  uint64_t SourceHash = 0;
  /// The PARREC_KERNEL_PART values its compile is split into; 1 when it
  /// compiles whole.
  int Parts = 1;
};

/// Writes the translation unit compiled from \p Source: the text, then
/// the part-1 definition of `parrec_kernel_source`, a copy of it, so a
/// loaded object can prove which source it came from. Every byte of the
/// copy is an octal escape, so it holds nothing that a reader of the
/// translation unit searches its text for. Streamed a line at a time,
/// since the copy is four times the size of the text.
void writeTranslationUnit(std::ostream &Os, std::string_view Source) {
  Os << Source << "#if PR_PART(1)\nconst char parrec_kernel_source[] =\n";
  constexpr size_t BytesPerLine = 32;
  char Line[BytesPerLine * 4 + 3];
  for (size_t At = 0; At < Source.size(); At += BytesPerLine) {
    size_t N = std::min(BytesPerLine, Source.size() - At);
    char *Out = Line;
    *Out++ = '"';
    for (char Byte : Source.substr(At, N)) {
      auto C = static_cast<unsigned char>(Byte);
      *Out++ = '\\';
      *Out++ = static_cast<char>('0' + (C >> 6));
      *Out++ = static_cast<char>('0' + (C >> 3 & 7));
      *Out++ = static_cast<char>('0' + (C & 7));
    }
    *Out++ = '"';
    *Out++ = '\n';
    Os.write(Line, Out - Line);
  }
  Os << ";\n#endif\n";
}

RenderedKernel renderKernel(const exec::ExecutablePlan &Plan) {
  RenderedKernel K;
  CEmitter Emitter(Plan);
  K.Source = Emitter.render();
  if (K.Source.empty())
    return K;
  // The kernel text builds its lanes entry on x86-64 only. Whether this
  // CPU runs it is decided at load time, so the object is the same on
  // every host.
#if defined(__x86_64__)
  if (Emitter.HasLanes)
    K.Parts = Emitter.HasSum ? 3 : 2;
#endif
  K.SourceHash = fnv1a(K.Source);
  char Def[128];
  snprintf(Def, sizeof(Def),
           "#if PR_PART(1)\n"
           "const uint64_t parrec_kernel_source_hash = 0x%016" PRIx64
           "ULL;\n#endif\n",
           K.SourceHash);
  K.Source += Def;
  return K;
}

} // namespace

std::string codegen::renderKernelSource(const exec::ExecutablePlan &Plan) {
  RenderedKernel K = renderKernel(Plan);
  if (K.Source.empty())
    return K.Source;
  std::ostringstream Os;
  writeTranslationUnit(Os, K.Source);
  return Os.str();
}

//===----------------------------------------------------------------------===//
// Compilation, disk cache and fallback.
//===----------------------------------------------------------------------===//

namespace {

std::atomic<uint64_t> WarningsPrinted{0};

/// Threads of this process running the host compiler (compilerRunning).
std::atomic<unsigned> CompilesRunning{0};

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
/// cannot be loaded or was not built from \p Rendered under this
/// JitKernelAbi: it must export its hash and, since another text can
/// share a 64-bit hash, a copy of its text equal to \p Rendered's byte
/// for byte. A stale, foreign or colliding object at a cache path would
/// otherwise run another recursion's or schedule's nest and cell body.
std::shared_ptr<const JitKernel> tryLoad(const std::string &SoPath,
                                         const RenderedKernel &Rendered) {
  void *Handle = ::dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle)
    return nullptr;
  void *Sym = ::dlsym(Handle, "parrec_scan");
  void *LanesSym = hostRunsLanes() ? ::dlsym(Handle, "parrec_scan_lanes")
                                   : nullptr;
  const auto *Abi =
      static_cast<const uint64_t *>(::dlsym(Handle, "parrec_kernel_abi"));
  const auto *Hash = static_cast<const uint64_t *>(
      ::dlsym(Handle, "parrec_kernel_source_hash"));
  const auto *Text =
      static_cast<const char *>(::dlsym(Handle, "parrec_kernel_source"));
  if (!Sym || !Abi || !Hash || !Text || *Abi != JitKernelAbi ||
      *Hash != Rendered.SourceHash || Rendered.Source != Text) {
    ::dlclose(Handle);
    return nullptr;
  }
  return std::make_shared<JitKernel>(
      Handle, reinterpret_cast<JitKernelFn>(Sym),
      reinterpret_cast<JitLanesFn>(LanesSym));
}

/// Starts the host C compiler with \p Args after $CC (default `cc`),
/// directly rather than through a shell, so a path is never parsed as
/// shell text. $CC is split on whitespace, so a launcher such as
/// `ccache cc` works. The compiler's diagnostics go to /dev/null.
/// Returns the process id, or -1 when it could not be started.
pid_t startCompiler(const std::vector<std::string> &Args) {
  std::vector<std::string> Argv;
  const char *Cc = std::getenv("CC");
  std::istringstream Words(Cc ? Cc : "");
  for (std::string Word; Words >> Word;)
    Argv.push_back(Word);
  if (Argv.empty())
    Argv.push_back("cc");
  Argv.insert(Argv.end(), Args.begin(), Args.end());
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
  return Err == 0 ? Pid : -1;
}

/// Waits for a compiler startCompiler started; returns null when it
/// exited zero, else the fallback reason.
const char *finishCompiler(pid_t Pid) {
  if (Pid < 0)
    return "host C compiler could not be started";
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0)
    if (errno != EINTR)
      return "host C compiler could not be waited for";
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    return "host C compiler exited non-zero";
  return nullptr;
}

/// Compiles \p CPath into the shared object \p OutPath. A kernel with a
/// lanes entry compiles as its \p Parts parts at once, which take about
/// as long each as the whole would alone, and links them. Returns null
/// on success, else the fallback reason.
const char *runCompiler(const std::string &CPath, const std::string &OutPath,
                        int Parts) {
  const std::vector<std::string> Flags = {"-O2", "-pipe", "-fPIC",
                                          "-ffp-contract=off"};
  auto With = [&](std::vector<std::string> Args) {
    Args.insert(Args.begin(), Flags.begin(), Flags.end());
    return Args;
  };
  if (Parts == 1)
    return finishCompiler(
        startCompiler(With({"-shared", "-o", OutPath, CPath, "-lm"})));
  std::vector<std::string> Objects;
  std::vector<pid_t> Pids;
  for (int P = 1; P <= Parts; ++P) {
    Objects.push_back(OutPath + "." + std::to_string(P) + ".o");
    Pids.push_back(startCompiler(With({"-c", "-DPARREC_KERNEL_PART=" +
                                                 std::to_string(P),
                                       "-o", Objects.back(), CPath})));
  }
  const char *Failure = nullptr;
  for (pid_t Pid : Pids)
    if (const char *PartFailure = finishCompiler(Pid); !Failure)
      Failure = PartFailure;
  if (!Failure) {
    std::vector<std::string> Link = {"-shared", "-o", OutPath};
    Link.insert(Link.end(), Objects.begin(), Objects.end());
    Link.push_back("-lm");
    Failure = finishCompiler(startCompiler(Link));
  }
  std::error_code Ec;
  for (const std::string &Object : Objects)
    std::filesystem::remove(Object, Ec);
  return Failure;
}

} // namespace

uint64_t codegen::jitWarningsEmitted() { return WarningsPrinted.load(); }

bool codegen::compilerRunning() { return CompilesRunning.load() != 0; }

bool codegen::hostRunsLanes() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

namespace {

/// What one load or compile of a kernel came to: the kernel, or the
/// fallback reason.
struct KernelResult {
  std::shared_ptr<const JitKernel> Kernel;
  const char *Failure = nullptr;
  JitOutcome Outcome = JitOutcome::Failed;
};

KernelResult failed(const char *Reason) {
  KernelResult R;
  R.Failure = Reason;
  return R;
}

/// Loads the kernel at \p SoPath from the disk cache, or compiles it
/// there from \p Rendered.
KernelResult loadOrCompile(const RenderedKernel &Rendered,
                           const std::string &SoPath,
                           const std::string &SourcePath) {
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();
  std::error_code Ec;
  if (std::filesystem::exists(SoPath, Ec) && !Ec) {
    if (auto Kernel = tryLoad(SoPath, Rendered)) {
      Metrics.add("jit.cache_hits");
      return {std::move(Kernel), nullptr, JitOutcome::Loaded};
    }
    // Corrupt, stale or foreign entry: drop it and recompile below.
    std::filesystem::remove(SoPath, Ec);
  }

  // Every compile writes and compiles its own copy of the source, so a
  // compile of the same kernel by another process never reads a file
  // that this one is rewriting (cc compiles a truncated, empty file
  // without complaint, into an object with no symbols). The copy keeps
  // the `.c` suffix, from which cc picks the language.
  static std::atomic<uint64_t> TmpCounter{0};
  std::string Tmp = SoPath + "." + std::to_string(::getpid()) + "." +
                    std::to_string(TmpCounter.fetch_add(1)) + ".tmp";
  std::string TmpSource = Tmp + ".c";
  {
    std::ofstream Os(TmpSource, std::ios::trunc);
    writeTranslationUnit(Os, Rendered.Source);
    if (!Os) {
      std::filesystem::remove(TmpSource, Ec);
      return failed("cannot write the generated source");
    }
  }

  auto T0 = std::chrono::steady_clock::now();
  CompilesRunning.fetch_add(1);
  const char *Failure = runCompiler(TmpSource, Tmp, Rendered.Parts);
  CompilesRunning.fetch_sub(1);
  auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - T0)
                .count();
  // Load the object before publishing it: once it is renamed, another
  // process may put its own object in its place.
  std::shared_ptr<const JitKernel> Kernel;
  if (!Failure && !(Kernel = tryLoad(Tmp, Rendered)))
    Failure = "dlopen of the compiled kernel failed";
  // Atomic publish so concurrent compiles of one plan race benignly.
  if (!Failure && std::rename(Tmp.c_str(), SoPath.c_str()) != 0)
    Failure = "cannot publish the compiled kernel";
  // The source stays beside its kernel (or its failed compile) for
  // reading.
  if (std::rename(TmpSource.c_str(), SourcePath.c_str()) != 0)
    std::filesystem::remove(TmpSource, Ec);
  if (Failure) {
    std::filesystem::remove(Tmp, Ec);
    return failed(Failure);
  }
  Metrics.add("jit.cache_misses");
  Metrics.record("jit.compile_ns", static_cast<double>(Ns));
  return {std::move(Kernel), nullptr, JitOutcome::Compiled};
}

/// The kernels being loaded or compiled in this process, by object
/// path. A second request for one waits for the first and shares its
/// result, so a process compiles each kernel once, however many
/// planners or engines ask for it at the same time.
std::mutex InFlightMutex;
std::map<std::string, std::shared_future<KernelResult>> InFlight;

/// Renders \p Plan's kernel, then loads or compiles it once per process.
KernelResult findKernel(const exec::ExecutablePlan &Plan,
                        const JitCompileOptions &Opts) {
  RenderedKernel Rendered = renderKernel(Plan);
  if (Rendered.Source.empty())
    return failed("unsupported plan or cell-body shape");

  std::string Dir = resolveCacheDir(Opts.CacheDir);
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec)
    return failed("cannot create the jit cache directory");

  // Cache key: schedule fingerprint mixed into a hash of the emitted
  // source (which bakes the nest, the window depth and the program but
  // no box), so every box of a recursion and schedule shares one entry.
  uint64_t Key = Rendered.SourceHash ^
                 (Plan.Sched.fingerprint() * 0x9e3779b97f4a7c15ULL);
  char Hex[24];
  snprintf(Hex, sizeof(Hex), "%016" PRIx64, Key);
  std::string SoPath = Dir + "/k" + Hex + ".so";

  std::promise<KernelResult> Mine;
  {
    std::unique_lock<std::mutex> Lock(InFlightMutex);
    auto [It, First] = InFlight.try_emplace(SoPath);
    if (!First) {
      std::shared_future<KernelResult> Theirs = It->second;
      Lock.unlock();
      KernelResult R = Theirs.get();
      if (R.Kernel) {
        obs::MetricsRegistry::global().add("jit.cache_hits");
        R.Outcome = JitOutcome::Loaded;
      }
      return R;
    }
    It->second = Mine.get_future().share();
  }
  KernelResult R = loadOrCompile(Rendered, SoPath, Dir + "/k" + Hex + ".c");
  Mine.set_value(R);
  std::lock_guard<std::mutex> Lock(InFlightMutex);
  InFlight.erase(SoPath);
  return R;
}

} // namespace

std::shared_ptr<const JitKernel>
codegen::compileKernel(const exec::ExecutablePlan &Plan,
                       const JitCompileOptions &Opts, JitOutcome *Outcome) {
  KernelResult R = findKernel(Plan, Opts);
  if (Outcome)
    *Outcome = R.Outcome;
  return R.Kernel ? R.Kernel : fallBack(R.Failure);
}
