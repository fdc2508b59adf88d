//===- CellMath.h - The arithmetic that decides a cell's bits ------*- C -*-===//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// The one definition of the helpers whose bits every evaluator must
// share: the rounding of an int-typed table read, integer division, the
// log-space conversion and binary '+', and the online log-space sum with
// its own table-driven e^x. The text is C99 and C++20 at once. LogSpace.h
// includes it inside parrec::codegen, for the AST walker, the bytecode
// compiler's constant folding and the VM. The build embeds the same text
// and NativeJit prints it into every kernel, after the declarations it
// relies on: the fixed-width integer types, INFINITY and libm's exp, log
// and log1p. So it includes nothing and opens no namespace.
//
// One floating-point operation per statement, compiled with
// -ffp-contract=off on both sides, so the host compiler and the kernel's
// compiler emit the same operation sequence. Bit casts go through a
// union, which GCC and Clang define.
//
//===----------------------------------------------------------------------===//

#ifndef PARREC_CODEGEN_CELLMATH_H
#define PARREC_CODEGEN_CELLMATH_H

// The int-typed table read: round half away from zero, as C's lround
// does on x86-64 for every double. NaN, the infinities and values beyond
// the int64 range give INT64_MIN (-2^63 itself is exact). x - t is
// exact, so 0.49999999999999994 rounds to 0, not to 1 as floor(x + 0.5)
// would. The AST walker reads every int table through it. A function
// whose result is an int stores only double(int64) values, which convert
// back exactly, so the VM and the JIT need it only for an int function
// with a float body, which Sema admits.
static inline int64_t pr_round_i64(double x) {
  if (!(x > -0x1p63 && x < 0x1p63))
    return -0x7fffffffffffffffLL - 1;
  {
    int64_t t = (int64_t)x; // Truncates toward zero.
    double frac = x - (double)t;
    return t + (frac >= 0.5) - (frac <= -0.5);
  }
}

// The DSL's integer division: C's, which truncates toward zero, except
// that a divisor of 0 gives 0 and INT64_MIN / -1 gives INT64_MIN, the
// two's-complement wrap that Java and Go define. C leaves both undefined,
// and x86-64 traps on both. The negation runs in uint64_t, which wraps.
static inline int64_t pr_div_i64(int64_t a, int64_t b) {
  if (b == 0)
    return 0;
  if (b == -1)
    return (int64_t)(0 - (uint64_t)a);
  return a / b;
}

// Linear -> log conversion; log 0 is -inf.
static inline double pr_tolog(double linear) {
  return linear <= 0.0 ? -INFINITY : log(linear);
}

// log(exp(la) + exp(lb)) without overflow; the log-space binary '+'.
static inline double pr_logaddexp(double la, double lb) {
  if (la == -INFINITY)
    return lb;
  if (lb == -INFINITY)
    return la;
  {
    double hi = la > lb ? la : lb;
    double lo = la > lb ? lb : la;
    return hi + log1p(exp(lo - hi));
  }
}

// pr_lse_exp's table: for j = 0..127, two words, the bits of the
// relative tail (2^(j/128) - T_j) / T_j, and the bits of T_j = 2^(j/128)
// rounded to double, minus j << 45, so that adding k << 45 for
// k = 128 q + j yields the bits of 2^q * T_j.
enum { pr_lse_table_bits = 7, pr_lse_table_size = 1 << pr_lse_table_bits };
static const uint64_t pr_lse_exp_table[2 * pr_lse_table_size] = {
  0x0000000000000000ULL, 0x3ff0000000000000ULL, 0x3c9b3b4f1a88bf6eULL, 0x3feff63da9fb3335ULL,
  0xbc7160139cd8dc5dULL, 0x3fefec9a3e778061ULL, 0xbc905e7a108766d1ULL, 0x3fefe315e86e7f85ULL,
  0x3c8cd2523567f613ULL, 0x3fefd9b0d3158574ULL, 0xbc8bce8023f98efaULL, 0x3fefd06b29ddf6deULL,
  0x3c60f74e61e6c861ULL, 0x3fefc74518759bc8ULL, 0x3c90a3e45b33d399ULL, 0x3fefbe3ecac6f383ULL,
  0x3c979aa65d837b6dULL, 0x3fefb5586cf9890fULL, 0x3c8eb51a92fdeffcULL, 0x3fefac922b7247f7ULL,
  0x3c3ebe3d702f9cd1ULL, 0x3fefa3ec32d3d1a2ULL, 0xbc6a033489906e0bULL, 0x3fef9b66affed31bULL,
  0xbc9556522a2fbd0eULL, 0x3fef9301d0125b51ULL, 0xbc5080ef8c4eea55ULL, 0x3fef8abdc06c31ccULL,
  0xbc91c923b9d5f416ULL, 0x3fef829aaea92de0ULL, 0x3c80d3e3e95c55afULL, 0x3fef7a98c8a58e51ULL,
  0xbc801b15eaa59348ULL, 0x3fef72b83c7d517bULL, 0xbc8f1ff055de323dULL, 0x3fef6af9388c8deaULL,
  0x3c8b898c3f1353bfULL, 0x3fef635beb6fcb75ULL, 0xbc96d99c7611eb26ULL, 0x3fef5be084045cd4ULL,
  0x3c9aecf73e3a2f60ULL, 0x3fef54873168b9aaULL, 0xbc8fe782cb86389dULL, 0x3fef4d5022fcd91dULL,
  0x3c8a6f4144a6c38dULL, 0x3fef463b88628cd6ULL, 0x3c807a05b0e4047dULL, 0x3fef3f49917ddc96ULL,
  0x3c968efde3a8a894ULL, 0x3fef387a6e756238ULL, 0x3c875e18f274487dULL, 0x3fef31ce4fb2a63fULL,
  0x3c80472b981fe7f2ULL, 0x3fef2b4565e27cddULL, 0xbc96b87b3f71085eULL, 0x3fef24dfe1f56381ULL,
  0x3c82f7e16d09ab31ULL, 0x3fef1e9df51fdee1ULL, 0xbc3d219b1a6fbffaULL, 0x3fef187fd0dad990ULL,
  0x3c8b3782720c0ab4ULL, 0x3fef1285a6e4030bULL, 0x3c6e149289cecb8fULL, 0x3fef0cafa93e2f56ULL,
  0x3c834d754db0abb6ULL, 0x3fef06fe0a31b715ULL, 0x3c864201e2ac744cULL, 0x3fef0170fc4cd831ULL,
  0x3c8fdd395dd3f84aULL, 0x3feefc08b26416ffULL, 0xbc86a3803b8e5b04ULL, 0x3feef6c55f929ff1ULL,
  0xbc924aedcc4b5068ULL, 0x3feef1a7373aa9cbULL, 0xbc9907f81b512d8eULL, 0x3feeecae6d05d866ULL,
  0xbc71d1e83e9436d2ULL, 0x3feee7db34e59ff7ULL, 0xbc991919b3ce1b15ULL, 0x3feee32dc313a8e5ULL,
  0x3c859f48a72a4c6dULL, 0x3feedea64c123422ULL, 0xbc9312607a28698aULL, 0x3feeda4504ac801cULL,
  0xbc58a78f4817895bULL, 0x3feed60a21f72e2aULL, 0xbc7c2c9b67499a1bULL, 0x3feed1f5d950a897ULL,
  0x3c4363ed60c2ac11ULL, 0x3feece086061892dULL, 0x3c9666093b0664efULL, 0x3feeca41ed1d0057ULL,
  0x3c6ecce1daa10379ULL, 0x3feec6a2b5c13cd0ULL, 0x3c93ff8e3f0f1230ULL, 0x3feec32af0d7d3deULL,
  0x3c7690cebb7aafb0ULL, 0x3feebfdad5362a27ULL, 0x3c931dbdeb54e077ULL, 0x3feebcb299fddd0dULL,
  0xbc8f94340071a38eULL, 0x3feeb9b2769d2ca7ULL, 0xbc87deccdc93a349ULL, 0x3feeb6daa2cf6642ULL,
  0xbc78dec6bd0f385fULL, 0x3feeb42b569d4f82ULL, 0xbc861246ec7b5cf6ULL, 0x3feeb1a4ca5d920fULL,
  0x3c93350518fdd78eULL, 0x3feeaf4736b527daULL, 0x3c7b98b72f8a9b05ULL, 0x3feead12d497c7fdULL,
  0x3c9063e1e21c5409ULL, 0x3feeab07dd485429ULL, 0x3c34c7855019c6eaULL, 0x3feea9268a5946b7ULL,
  0x3c9432e62b64c035ULL, 0x3feea76f15ad2148ULL, 0xbc8ce44a6199769fULL, 0x3feea5e1b976dc09ULL,
  0xbc8c33c53bef4da8ULL, 0x3feea47eb03a5585ULL, 0xbc845378892be9aeULL, 0x3feea34634ccc320ULL,
  0xbc93cedd78565858ULL, 0x3feea23882552225ULL, 0x3c5710aa807e1964ULL, 0x3feea155d44ca973ULL,
  0xbc93b3efbf5e2228ULL, 0x3feea09e667f3bcdULL, 0xbc6a12ad8734b982ULL, 0x3feea012750bdabfULL,
  0xbc6367efb86da9eeULL, 0x3fee9fb23c651a2fULL, 0xbc80dc3d54e08851ULL, 0x3fee9f7df9519484ULL,
  0xbc781f647e5a3ecfULL, 0x3fee9f75e8ec5f74ULL, 0xbc86ee4ac08b7db0ULL, 0x3fee9f9a48a58174ULL,
  0xbc8619321e55e68aULL, 0x3fee9feb564267c9ULL, 0x3c909ccb5e09d4d3ULL, 0x3feea0694fde5d3fULL,
  0xbc7b32dcb94da51dULL, 0x3feea11473eb0187ULL, 0x3c94ecfd5467c06bULL, 0x3feea1ed0130c132ULL,
  0x3c65ebe1abd66c55ULL, 0x3feea2f336cf4e62ULL, 0xbc88a1c52fb3cf42ULL, 0x3feea427543e1a12ULL,
  0xbc9369b6f13b3734ULL, 0x3feea589994cce13ULL, 0xbc805e843a19ff1eULL, 0x3feea71a4623c7adULL,
  0xbc94d450d872576eULL, 0x3feea8d99b4492edULL, 0x3c90ad675b0e8a00ULL, 0x3feeaac7d98a6699ULL,
  0x3c8db72fc1f0eab4ULL, 0x3feeace5422aa0dbULL, 0xbc65b6609cc5e7ffULL, 0x3feeaf3216b5448cULL,
  0x3c7bf68359f35f44ULL, 0x3feeb1ae99157736ULL, 0xbc93091fa71e3d83ULL, 0x3feeb45b0b91ffc6ULL,
  0xbc5da9b88b6c1e29ULL, 0x3feeb737b0cdc5e5ULL, 0xbc6c23f97c90b959ULL, 0x3feeba44cbc8520fULL,
  0xbc92434322f4f9aaULL, 0x3feebd829fde4e50ULL, 0xbc85ca6cd7668e4bULL, 0x3feec0f170ca07baULL,
  0x3c71affc2b91ce27ULL, 0x3feec49182a3f090ULL, 0x3c6dd235e10a73bbULL, 0x3feec86319e32323ULL,
  0xbc87c50422622263ULL, 0x3feecc667b5de565ULL, 0x3c8b1c86e3e231d5ULL, 0x3feed09bec4a2d33ULL,
  0xbc91bbd1d3bcbb15ULL, 0x3feed503b23e255dULL, 0x3c90cc319cee31d2ULL, 0x3feed99e1330b358ULL,
  0x3c8469846e735ab3ULL, 0x3feede6b5579fdbfULL, 0xbc82dfcd978e9db4ULL, 0x3feee36bbfd3f37aULL,
  0x3c8c1a7792cb3387ULL, 0x3feee89f995ad3adULL, 0xbc907b8f4ad1d9faULL, 0x3feeee07298db666ULL,
  0xbc55c3d956dcaebaULL, 0x3feef3a2b84f15fbULL, 0xbc90a40e3da6f640ULL, 0x3feef9728de5593aULL,
  0xbc68d6f438ad9334ULL, 0x3feeff76f2fb5e47ULL, 0xbc91eee26b588a35ULL, 0x3fef05b030a1064aULL,
  0x3c74ffd70a5fddcdULL, 0x3fef0c1e904bc1d2ULL, 0xbc91bdfbfa9298acULL, 0x3fef12c25bd71e09ULL,
  0x3c736eae30af0cb3ULL, 0x3fef199bdd85529cULL, 0x3c8ee3325c9ffd94ULL, 0x3fef20ab5fffd07aULL,
  0x3c84e08fd10959acULL, 0x3fef27f12e57d14bULL, 0x3c63cdaf384e1a67ULL, 0x3fef2f6d9406e7b5ULL,
  0x3c676b2c6c921968ULL, 0x3fef3720dcef9069ULL, 0xbc808a1883ccb5d2ULL, 0x3fef3f0b555dc3faULL,
  0xbc8fad5d3ffffa6fULL, 0x3fef472d4a07897cULL, 0xbc900dae3875a949ULL, 0x3fef4f87080d89f2ULL,
  0x3c74a385a63d07a7ULL, 0x3fef5818dcfba487ULL, 0xbc82919e2040220fULL, 0x3fef60e316c98398ULL,
  0x3c8e5a50d5c192acULL, 0x3fef69e603db3285ULL, 0x3c843a59ac016b4bULL, 0x3fef7321f301b460ULL,
  0xbc82d52107b43e1fULL, 0x3fef7c97337b9b5fULL, 0xbc892ab93b470dc9ULL, 0x3fef864614f5a129ULL,
  0x3c74b604603a88d3ULL, 0x3fef902ee78b3ff6ULL, 0x3c83c5ec519d7271ULL, 0x3fef9a51fbc74c83ULL,
  0xbc8ff7128fd391f0ULL, 0x3fefa4afa2a490daULL, 0xbc8dae98e223747dULL, 0x3fefaf482d8e67f1ULL,
  0x3c8ec3bc41aa2008ULL, 0x3fefba1bee615a27ULL, 0x3c842b94c3a9eb32ULL, 0x3fefc52b376bba97ULL,
  0x3c8a64a931d185eeULL, 0x3fefd0765b6e4540ULL, 0xbc8e37bae43be3edULL, 0x3fefdbfdad9cbe14ULL,
  0x3c77893b4d91cd9dULL, 0x3fefe7c1819e90d8ULL, 0x3c5305c14160cc89ULL, 0x3feff3c22b8f71f1ULL,
};
// Below this, e^x < 2^-1021 is returned as 0. Added to an online sum's
// s >= 1 (or to s * e^x + 1), such a term cannot change a bit.
static const double pr_lse_min_arg = -0x1.62p+9; // -708

// The steps of pr_lse_exp between its guard and its table read, and
// between its table read and its result, written once for the scalar
// form (D double, U uint64_t) and the lane form below (D pr_v4d, U
// pr_v4u). The caller declares the unions kb and sb, and reads the table
// words of idx into tail and scale. Table-driven: x = k ln2/128 + r with
// integer k and |r| <= ln2/256, so e^x = 2^(k/128) e^r, where
// 2^(k/128) = scale * (1 + tail) comes from the table and e^r from a
// degree-5 polynomial; the result is scale + scaled.
#define PR_LSE_EXP_REDUCE(D, U, x)                                       \
  /* 128 / ln 2; then 1.5 * 2^52, whose addition rounds z to an       \
     integer, kept in the low bits of kd. */                            \
  D z = 0x1.71547652b82fep+7 * (x);                                      \
  D kd = z + 0x1.8p52;                                                   \
  kb.d = kd;                                                             \
  U ki = kb.u;                                                           \
  kd = kd - 0x1.8p52;                                                    \
  /* -ln 2 / 128 split in two, so that kd times the high part is      \
     exact for |k| < 2^17 (its low 17 bits are zero). */                \
  D r_hi = kd * -0x1.62e42fefa0000p-8;                                   \
  D r = (x) + r_hi;                                                      \
  D r_lo = kd * -0x1.cf79abc9e3b3ap-47;                                  \
  r = r + r_lo;                                                          \
  U idx = 2 * (ki % (uint64_t)pr_lse_table_size);                        \
  U top = ki << (52 - pr_lse_table_bits);
#define PR_LSE_EXP_POLY(D)                                               \
  /* (e^r - 1 - r) / r^2 ~ c2 + c3 r + c4 r^2 + c5 r^3, a Chebyshev    \
     fit on |r| <= ln2/256; 1 + r + r^2 (...) is then within 2^-63 of   \
     e^r. */                                                            \
  D r2 = r * r;                                                          \
  D p3 = r * 0x1.5555555555525p-3;                                       \
  D p23 = 0x1.fffffffffff57p-2 + p3;                                     \
  D lo = r2 * p23;                                                       \
  D p5 = r * 0x1.111114324c640p-7;                                       \
  D p45 = 0x1.55555acf7d28ep-5 + p5;                                     \
  D r4 = r2 * r2;                                                        \
  D hi = r4 * p45;                                                       \
  D tmp = tail + r;                                                      \
  tmp = tmp + lo;                                                        \
  tmp = tmp + hi;                                                        \
  D scaled = scale * tmp;

// e^x for the terms of the online sum, within 1 ulp of the correctly
// rounded value on [pr_lse_min_arg, 0], where the sum's arguments lie.
// NaN passes through; -inf and anything below pr_lse_min_arg give 0.
static inline double pr_lse_exp(double x) {
  union { double d; uint64_t u; } kb, sb;
  if (!(x >= pr_lse_min_arg))
    return x != x ? x : 0.0;
  PR_LSE_EXP_REDUCE(double, uint64_t, x)
  kb.u = pr_lse_exp_table[idx];
  double tail = kb.d;
  sb.u = pr_lse_exp_table[idx + 1] + top;
  double scale = sb.d;
  PR_LSE_EXP_POLY(double)
  return scale + scaled;
}

// The log-space n-ary sum, an online log-sum-exp (Milakov & Gimelshein,
// "Online normalizer calculation for softmax"). It keeps the running
// maximum m and the sum s of e^(x - m) over the elements added so far,
// so each element costs one pr_lse_exp that does not wait on the
// previous element's, and the whole sum one log. Start from
// m = -inf, s = 0. -inf elements are skipped, as pr_logaddexp skips
// them; the empty sum is -inf.
static inline void pr_lse_add(double *m, double *s, double x) {
  if (x == -INFINITY)
    return;
  if (x <= *m) {
    double e = pr_lse_exp(x - *m);
    *s = *s + e;
  } else {
    double e = pr_lse_exp(*m - x);
    double scaled = *s * e;
    *s = scaled + 1.0;
    *m = x;
  }
}
// The sum's value: m + log(s), or -inf for the empty sum.
static inline double pr_lse_result(double m, double s) {
  if (m == -INFINITY)
    return -INFINITY;
  {
    double l = log(s);
    return m + l;
  }
}

// The lane forms: four problems' values side by side in one vector, as
// GCC and Clang define vector types. Each lane performs the scalar
// form's floating-point operations in the same order, so each lane's
// bits are the scalar form's. A branch of the scalar form becomes a mask
// that selects, per lane, the result of the path that lane would take.
// Lane values pass by pointer and the helpers are always inlined, so no
// vector crosses a call by value (which would change the ABI without
// AVX, -Wpsabi), and the caller's target picks the instructions.
typedef double pr_v4d __attribute__((vector_size(32)));
typedef int64_t pr_v4i __attribute__((vector_size(32)));
typedef uint64_t pr_v4u __attribute__((vector_size(32)));

// Lane-wise m ? a : b on pr_v4u values, for a mask m whose lanes are all
// ones or all zeros, as a vector comparison yields.
#define PR_LANE_SELECT(m, a, b) (((m) & (a)) | (~(m) & (b)))

// pr_lse_exp of each lane of *x.
static inline __attribute__((always_inline)) void
pr_lse_exp_lanes(pr_v4d *out, const pr_v4d *xp) {
  union { pr_v4d d; pr_v4u u; } kb, sb;
  pr_v4d x = *xp;
  PR_LSE_EXP_REDUCE(pr_v4d, pr_v4u, x)
  {
    pr_v4u tail_bits = {pr_lse_exp_table[idx[0]], pr_lse_exp_table[idx[1]],
                        pr_lse_exp_table[idx[2]], pr_lse_exp_table[idx[3]]};
    pr_v4u scale_bits = {
        pr_lse_exp_table[idx[0] + 1], pr_lse_exp_table[idx[1] + 1],
        pr_lse_exp_table[idx[2] + 1], pr_lse_exp_table[idx[3] + 1]};
    kb.u = tail_bits;
    sb.u = scale_bits + top;
  }
  {
    pr_v4d tail = kb.d;
    pr_v4d scale = sb.d;
    PR_LSE_EXP_POLY(pr_v4d)
    pr_v4d e = scale + scaled;
    // The scalar form's guard: a lane below pr_lse_min_arg gives 0, or
    // itself when it is NaN.
    pr_v4u in_range = (pr_v4u)(x >= pr_lse_min_arg);
    pr_v4u is_nan = (pr_v4u)(x != x);
    *out = (pr_v4d)PR_LANE_SELECT(in_range, (pr_v4u)e, is_nan & (pr_v4u)x);
  }
}

// pr_lse_add of lane l of *x to lane l of (*m, *s), for every lane.
static inline __attribute__((always_inline)) void
pr_lse_add_lanes(pr_v4d *m, pr_v4d *s, const pr_v4d *xp) {
  pr_v4d x = *xp;
  pr_v4u skip = (pr_v4u)(x == -(double)INFINITY);
  pr_v4u below = (pr_v4u)(x <= *m);
  pr_v4d up = x - *m;
  pr_v4d down = *m - x;
  pr_v4d arg = (pr_v4d)PR_LANE_SELECT(below, (pr_v4u)up, (pr_v4u)down);
  pr_v4d e;
  pr_lse_exp_lanes(&e, &arg);
  {
    pr_v4d added = *s + e;
    pr_v4d scaled = *s * e;
    pr_v4d rescaled = scaled + 1.0;
    pr_v4u next = PR_LANE_SELECT(below, (pr_v4u)added, (pr_v4u)rescaled);
    *s = (pr_v4d)PR_LANE_SELECT(skip, (pr_v4u)*s, next);
    *m = (pr_v4d)PR_LANE_SELECT(skip | below, (pr_v4u)*m, (pr_v4u)x);
  }
}

#endif // PARREC_CODEGEN_CELLMATH_H
