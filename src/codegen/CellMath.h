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
// its own table-driven e^x and log. The text is C99 and C++20 at once.
// LogSpace.h includes it inside parrec::codegen, for the AST walker, the
// bytecode compiler's constant folding and the VM. The build embeds the
// same text and NativeJit prints it into every kernel, after the
// declarations it relies on: the fixed-width integer types, INFINITY and
// libm's exp, log and log1p. So it includes nothing and opens no
// namespace.
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

// pr_lse_log's table: for i = 0..127, three doubles: 1/c_i with 10
// significant bits, and log c_i split in two, the high part a multiple of
// 2^-42 and the rest. 1/c_i is rounded from the centre of subinterval i
// of 128 that split [0.6875 + 2^-9, 1.375 + 2^-8) evenly in the bits of
// a double. The centre of subinterval 79 is 1, so c_79 = 1, log c_79 = 0.
static const double pr_lse_log_table[3 * pr_lse_table_size] = {
   0x1.7280000000000p+0, -0x1.7a8c586cdf000p-2, -0x1.5107d6a24fe80p-44,
   0x1.7000000000000p+0, -0x1.739d7f6bbd000p-2, -0x1.a7389314feb50p-52,
   0x1.6e00000000000p+0, -0x1.6e08eaa2ba000p-2, -0x1.e38c139318d71p-46,
   0x1.6c00000000000p+0, -0x1.686c81e9b1000p-2, -0x1.2bb110af84054p-44,
   0x1.6a00000000000p+0, -0x1.62c82f2b9c000p-2, -0x1.e54bdbd7c8a98p-44,
   0x1.6800000000000p+0, -0x1.5d1bdbf581000p-2,  0x1.8d6bdc9c7c238p-44,
   0x1.6600000000000p+0, -0x1.5767717456000p-2,  0x1.64ead9524d7cap-44,
   0x1.6400000000000p+0, -0x1.51aad872e0000p-2,  0x1.f4bd8db0a7cc1p-44,
   0x1.6200000000000p+0, -0x1.4be5f95778000p-2,  0x1.d7c92cd9ad824p-44,
   0x1.6080000000000p+0, -0x1.478cd5959b000p-2, -0x1.ec89bf0c8d098p-45,
   0x1.5e80000000000p+0, -0x1.41b941cce1000p-2,  0x1.0469013e43fc9p-44,
   0x1.5c80000000000p+0, -0x1.3bdd24eb15000p-2,  0x1.257b4970e6ed9p-44,
   0x1.5b00000000000p+0, -0x1.3772662bfe000p-2,  0x1.e9436ac53b023p-44,
   0x1.5900000000000p+0, -0x1.31871c9544000p-2, -0x1.84fab94cecfd9p-46,
   0x1.5700000000000p+0, -0x1.2b9303ab8a000p-2,  0x1.6db12d6bfb0a5p-45,
   0x1.5580000000000p+0, -0x1.27161913f8000p-2, -0x1.4f4f1f61564b4p-44,
   0x1.5380000000000p+0, -0x1.2112559861000p-2, -0x1.82e78ba2950c4p-44,
   0x1.5200000000000p+0, -0x1.1c898c169a000p-2,  0x1.81410e5c62affp-44,
   0x1.5000000000000p+0, -0x1.1675cababa000p-2, -0x1.8380e731f55c4p-44,
   0x1.4e80000000000p+0, -0x1.11e0e2dada000p-2,  0x1.a47f88fcce5bap-45,
   0x1.4c80000000000p+0, -0x1.0bbccdb0d2000p-2, -0x1.2f32ccc5dcdfbp-44,
   0x1.4b00000000000p+0, -0x1.071b85fcd6000p-2,  0x1.bcb8ba3e01a11p-44,
   0x1.4980000000000p+0, -0x1.0274dc16c2000p-2, -0x1.979e89cf835c2p-45,
   0x1.4780000000000p+0, -0x1.f871b28956000p-3,  0x1.f75fd6a526efep-44,
   0x1.4600000000000p+0, -0x1.ef0adcbdc6000p-3,  0x1.b26b79c86af24p-45,
   0x1.4480000000000p+0, -0x1.e598ed5a88000p-3,  0x1.d134bcf1e98a1p-47,
   0x1.4300000000000p+0, -0x1.dc1bca0abe000p-3, -0x1.8fac1a628ccc6p-44,
   0x1.4180000000000p+0, -0x1.d293581b6c000p-3,  0x1.83270128aaa5fp-44,
   0x1.3f80000000000p+0, -0x1.c5cba543ae000p-3, -0x1.0929decb454fcp-45,
   0x1.3e00000000000p+0, -0x1.bc286742d8000p-3, -0x1.9ac53f39d121cp-44,
   0x1.3c80000000000p+0, -0x1.b2797ee464000p-3,  0x1.be88a906d00a9p-44,
   0x1.3b00000000000p+0, -0x1.a8becfc882000p-3, -0x1.e3185cf21b9cfp-44,
   0x1.3980000000000p+0, -0x1.9ef83d276a000p-3,  0x1.730b7b3f9ce00p-45,
   0x1.3800000000000p+0, -0x1.9525a9cf46000p-3,  0x1.297137d9f158fp-44,
   0x1.3680000000000p+0, -0x1.8b46f82236000p-3, -0x1.2d9f2102dd7c9p-46,
   0x1.3500000000000p+0, -0x1.815c0a1436000p-3,  0x1.02a52f9201ce8p-44,
   0x1.3380000000000p+0, -0x1.7764c128f2000p-3, -0x1.274903479e3d1p-47,
   0x1.3200000000000p+0, -0x1.6d60fe719e000p-3,  0x1.bc6e557134767p-44,
   0x1.3100000000000p+0, -0x1.66acd4272a000p-3, -0x1.aa1bdbfc6c785p-44,
   0x1.2f80000000000p+0, -0x1.5c94007598000p-3,  0x1.a8d948cd23322p-44,
   0x1.2e00000000000p+0, -0x1.526e5e3a1c000p-3,  0x1.790ba37fc5238p-44,
   0x1.2c80000000000p+0, -0x1.483bccce6e000p-3, -0x1.eea52723f6369p-46,
   0x1.2b80000000000p+0, -0x1.41682bf728000p-3,  0x1.10047081f849dp-45,
   0x1.2a00000000000p+0, -0x1.371fc201e8000p-3, -0x1.ee8779b2d8abcp-44,
   0x1.2880000000000p+0, -0x1.2cca0f5f60000p-3,  0x1.b5ef191aff120p-44,
   0x1.2700000000000p+0, -0x1.2266f190a6000p-3,  0x1.4d20ab840e7f6p-45,
   0x1.2600000000000p+0, -0x1.1b72ad52f6000p-3, -0x1.e80a41811a396p-45,
   0x1.2480000000000p+0, -0x1.10f8e42254000p-3,  0x1.93b3843396307p-45,
   0x1.2380000000000p+0, -0x1.09f561ee72000p-3,  0x1.8f3057157d1a8p-45,
   0x1.2200000000000p+0, -0x1.fec9131dc0000p-4,  0x1.54555d1ae6607p-44,
   0x1.2080000000000p+0, -0x1.e98b549670000p-4, -0x1.4677489c50e97p-44,
   0x1.1f80000000000p+0, -0x1.db5270187c000p-4, -0x1.9277856ae181fp-44,
   0x1.1e00000000000p+0, -0x1.c5e548f5bc000p-4, -0x1.d0c57585fbe06p-46,
   0x1.1d00000000000p+0, -0x1.b78c82bb10000p-4,  0x1.25ef7bc3987e7p-44,
   0x1.1b80000000000p+0, -0x1.a1ef1d8060000p-4, -0x1.cd4176df97bcbp-44,
   0x1.1a80000000000p+0, -0x1.9375e55594000p-4, -0x1.eddc37380c364p-44,
   0x1.1980000000000p+0, -0x1.84ef898e84000p-4,  0x1.7d5cd246977c9p-44,
   0x1.1800000000000p+0, -0x1.6f0d28ae58000p-4,  0x1.4b4641b664613p-44,
   0x1.1700000000000p+0, -0x1.60658a9374000p-4, -0x1.0c3b1dee9c4f8p-44,
   0x1.1580000000000p+0, -0x1.4a50d3aa1c000p-4,  0x1.f7fe1308973e2p-45,
   0x1.1480000000000p+0, -0x1.3b87598b1c000p-4,  0x1.2241594aca313p-45,
   0x1.1380000000000p+0, -0x1.2cb0283f5c000p-4, -0x1.e1ee2ca657021p-44,
   0x1.1200000000000p+0, -0x1.16536eea38000p-4,  0x1.47c5e768fa309p-46,
   0x1.1100000000000p+0, -0x1.0759835990000p-4,  0x1.b8ecfe4b59987p-44,
   0x1.1000000000000p+0, -0x1.f0a30c0118000p-5,  0x1.d599e83368e91p-45,
   0x1.0f00000000000p+0, -0x1.d276b8adb0000p-5, -0x1.6a423c78a64b0p-46,
   0x1.0d80000000000p+0, -0x1.a4fe9ffa40000p-5,  0x1.6e584a0402925p-44,
   0x1.0c80000000000p+0, -0x1.868a830840000p-5,  0x1.2623a134ac693p-46,
   0x1.0b80000000000p+0, -0x1.67f94f0948000p-5, -0x1.ecc1f3e7e4ed7p-44,
   0x1.0a80000000000p+0, -0x1.494acc34d8000p-5, -0x1.11c78a56fd247p-45,
   0x1.0980000000000p+0, -0x1.2a7ec22150000p-5,  0x1.78ce77a9163fep-45,
   0x1.0880000000000p+0, -0x1.0b94f7c198000p-5,  0x1.e89896f022783p-45,
   0x1.0700000000000p+0, -0x1.b9fc027b00000p-6,  0x1.b9a010ae6922ap-44,
   0x1.0600000000000p+0, -0x1.7b91b07d60000p-6,  0x1.3b955b602ace4p-44,
   0x1.0500000000000p+0, -0x1.3cea443470000p-6,  0x1.6a2c432d6a40bp-44,
   0x1.0400000000000p+0, -0x1.fc0a8b0fc0000p-7, -0x1.f1e7cf6d3a69cp-50,
   0x1.0300000000000p+0, -0x1.7dc475f820000p-7,  0x1.eb1245b5da1f5p-44,
   0x1.0200000000000p+0, -0x1.fe02a6b100000p-8, -0x1.9e23f0dda40e4p-46,
   0x1.0100000000000p+0, -0x1.ff00aa2b00000p-9, -0x1.0bc04a086b56ap-45,
   0x1.0000000000000p+0,  0x0.0000000000000p+0,  0x0.0000000000000p+0,
   0x1.fc00000000000p-1,  0x1.0101575880000p-7,  0x1.bce251998b506p-44,
   0x1.f800000000000p-1,  0x1.0205658930000p-6,  0x1.611d27c8e8417p-44,
   0x1.f480000000000p-1,  0x1.74321d3d00000p-6,  0x1.b4a690fe94778p-48,
   0x1.f080000000000p-1,  0x1.f7a9b16780000p-6,  0x1.42ad9271be7d7p-45,
   0x1.ed00000000000p-1,  0x1.35c8bfaa10000p-5,  0x1.8357d5ef9eb35p-44,
   0x1.e900000000000p-1,  0x1.788595a358000p-5, -0x1.08b0d083b3a4cp-46,
   0x1.e580000000000p-1,  0x1.b35dd9b588000p-5,  0x1.d5674d6cf558ep-44,
   0x1.e200000000000p-1,  0x1.eea31c0068000p-5,  0x1.c3dd83606d891p-44,
   0x1.de80000000000p-1,  0x1.152b799bb4000p-4, -0x1.9bb2907030829p-47,
   0x1.db00000000000p-1,  0x1.333d7f8184000p-4, -0x1.692b6a81b8848p-49,
   0x1.d780000000000p-1,  0x1.5188742260000p-4,  0x1.30a1d96258b3ep-44,
   0x1.d400000000000p-1,  0x1.700d30aeac000p-4,  0x1.c1e8da99ded32p-49,
   0x1.d100000000000p-1,  0x1.8a6477a91c000p-4,  0x1.c28c0af9bd6dfp-44,
   0x1.cd80000000000p-1,  0x1.a956d3ecac000p-4,  0x1.e63794c02c4afp-44,
   0x1.ca80000000000p-1,  0x1.c40d6425a4000p-4,  0x1.cb1121d1930ddp-44,
   0x1.c700000000000p-1,  0x1.e3707ee304000p-4,  0x1.0f684e6766abdp-45,
   0x1.c400000000000p-1,  0x1.fe89139dbc000p-4,  0x1.56594d82f7a82p-44,
   0x1.c100000000000p-1,  0x1.0ce7ecdccc000p-3,  0x1.4652dabff5447p-46,
   0x1.be00000000000p-1,  0x1.1aa2b7e240000p-3, -0x1.1ac38dde3b366p-44,
   0x1.bb00000000000p-1,  0x1.28753bc11a000p-3,  0x1.7494e359302e6p-44,
   0x1.b800000000000p-1,  0x1.365fcb015a000p-3, -0x1.fd3a0afb9691bp-44,
   0x1.b500000000000p-1,  0x1.4462b9dc9c000p-3, -0x1.84858a711b062p-44,
   0x1.b200000000000p-1,  0x1.527e5e4a1c000p-3, -0x1.4e60b8d4b411dp-44,
   0x1.af00000000000p-1,  0x1.60b3100b0a000p-3, -0x1.71456c988f814p-44,
   0x1.ac80000000000p-1,  0x1.6c9d07d204000p-3, -0x1.c73fafd9b2dcap-50,
   0x1.a980000000000p-1,  0x1.7b00916516000p-3, -0x1.ae75fcb067e57p-44,
   0x1.a700000000000p-1,  0x1.871213750e000p-3,  0x1.328eb42f9af75p-44,
   0x1.a400000000000p-1,  0x1.95a5adcf70000p-3,  0x1.7f22858a0ff6fp-47,
   0x1.a180000000000p-1,  0x1.a1dfc40f1c000p-3, -0x1.01e0f004f3781p-44,
   0x1.9f00000000000p-1,  0x1.ae2ca6f672000p-3,  0x1.7a8d5ae54f550p-44,
   0x1.9c00000000000p-1,  0x1.bd087383be000p-3, -0x1.d4bc4595412b6p-45,
   0x1.9980000000000p-1,  0x1.c97f8079d4000p-3,  0x1.3b161a8c6e6c5p-45,
   0x1.9700000000000p-1,  0x1.d60a17f904000p-3, -0x1.5d6e06fc20d39p-44,
   0x1.9480000000000p-1,  0x1.e2a877a6b2000p-3,  0x1.823817787081ap-44,
   0x1.9200000000000p-1,  0x1.ef5ade4dd0000p-3, -0x1.a211565bb8e11p-51,
   0x1.8f80000000000p-1,  0x1.fc218be620000p-3,  0x1.4bba46f1cf6a0p-44,
   0x1.8d00000000000p-1,  0x1.047e60cde8000p-2,  0x1.dbdf10d397f3cp-45,
   0x1.8b00000000000p-1,  0x1.09aa572e6c000p-2,  0x1.b50a1e1734342p-44,
   0x1.8880000000000p-1,  0x1.102ac0a35d000p-2, -0x1.f1fbddfdfd686p-45,
   0x1.8600000000000p-1,  0x1.16b5ccbad0000p-2, -0x1.23299042d74bfp-44,
   0x1.8400000000000p-1,  0x1.1bf99635a7000p-2, -0x1.1ac89575c2125p-44,
   0x1.8180000000000p-1,  0x1.22981fbef8000p-2, -0x1.a1421609580dap-44,
   0x1.7f80000000000p-1,  0x1.27ebaf58d9000p-2, -0x1.b198800b4bda7p-45,
   0x1.7d00000000000p-1,  0x1.2e9e2bce12000p-2,  0x1.4300c128d1dc2p-45,
   0x1.7b00000000000p-1,  0x1.3401e12aed000p-2, -0x1.17c73556e291dp-44,
   0x1.7880000000000p-1,  0x1.3ac8ca38e6000p-2, -0x1.d0befbc02be4ap-45,
   0x1.7680000000000p-1,  0x1.403d086cea000p-2,  0x1.e6ef574487308p-44,
   0x1.7480000000000p-1,  0x1.45b8c0a17e000p-2, -0x1.d9120e7d0a853p-47,
};

// The steps of pr_lse_log from the bits xu of a positive normal double
// to its table read, and from its table read to the terms of its result,
// written once for the scalar and the lane form as PR_LSE_EXP_* are.
// x = 2^(k - bias) z with z in [0.6875 + 2^-9, 1.375 + 2^-8), and
// log x = (k - bias) ln 2 + log c + log1p(r) with r = z / c - 1 for the
// c of z's subinterval. The caller declares the unions kb, zb and hb,
// and reads the table words at idx into invc, chi and clo; the result is
// hi + tail.
#define PR_LSE_LOG_REDUCE(D, U, xu, bias)                                \
  /* Subtracting the bits of 0.6875 + 2^-9 leaves i in bits 45-51 and \
     k in the top 12 bits, sign-extended by the xor below. */           \
  U tmp = (xu) - 0x3fe6100000000000ULL;                                  \
  U idx = 3 * ((tmp >> 45) % (uint64_t)pr_lse_table_size);               \
  /* k - bias + 2048, added to the bits of 2^52: the low integer bits \
     of that double. */                                                 \
  kb.u = ((tmp >> 52) ^ 0x800) - (bias);                                 \
  kb.u = kb.u + 0x4330000000000000ULL;                                   \
  zb.u = (xu) - (tmp & 0xfff0000000000000ULL);                           \
  /* z's top 43 bits, which times a 10-bit 1/c is exact. */             \
  hb.u = zb.u & 0xfffffffffffffc00ULL;
#define PR_LSE_LOG_POLY(D)                                               \
  D kd = kb.d - 0x1.00000000008p52;                                      \
  /* z / c - 1 = rh + rl exactly: zh / c is within a factor 2 of 1,   \
     so rh is exact (Sterbenz), and so are z - zh and its product rl.  \
     r is their sum rounded, and rerr its rounding error. */            \
  D zl = zb.d - hb.d;                                                    \
  D rh = hb.d * invc;                                                    \
  rh = rh - 1.0;                                                         \
  D rl = zl * invc;                                                      \
  D r = rh + rl;                                                         \
  D rerr = rh - r;                                                       \
  rerr = rerr + rl;                                                      \
  /* ln 2 split so that kd times its high part, and that plus chi, are \
     exact; hi + lo is then w + r exactly, as |w| > |r| or w = 0. */    \
  D w = kd * 0x1.62e42fefa3800p-1;                                       \
  w = w + chi;                                                           \
  D hi = w + r;                                                          \
  D lo = w - hi;                                                         \
  lo = lo + r;                                                           \
  D lo2 = kd * 0x1.ef35793c76730p-45;                                    \
  lo2 = lo2 + clo;                                                       \
  /* log1p(r) - r ~ r^2 (a0 + a1 r + ... + a5 r^5), a Chebyshev fit on  \
     r in [-0.0041, 0.0043], r's range, whose relative error in        \
     log1p(r) is below 2^-62. */                                        \
  D q1 = r * 0x1.5555555555507p-2;                                       \
  D q01 = -0x1p-1 + q1;                                                  \
  D q3 = r * 0x1.999999c6496f1p-3;                                       \
  D q23 = -0x1.ffffffff415b6p-3 + q3;                                    \
  D q5 = r * 0x1.246c84444b965p-3;                                       \
  D q45 = -0x1.55570eabc77b9p-3 + q5;                                    \
  D r2 = r * r;                                                          \
  D q25 = r2 * q45;                                                      \
  q25 = q23 + q25;                                                       \
  D q05 = r2 * q25;                                                      \
  q05 = q01 + q05;                                                       \
  D tail = r2 * q05;                                                     \
  tail = lo + tail;                                                      \
  tail = rerr + tail;                                                    \
  tail = lo2 + tail;

// The natural log. Its error against logl stays below 0.51 ulp: at most
// 0.5054 ulp over 3 * 10^7 arguments, from subnormals to 2^32 and every
// power of two, and LogSumExpTest.LogWithinOneUlpOfLogl checks 0.51 on
// 10^6 more. NaN and
// +inf pass through, +-0 gives -inf, and a negative number the NaN that
// x86-64 makes of 0 / 0. A subnormal is scaled by 2^52 first.
static inline double pr_lse_log(double x) {
  union { double d; uint64_t u; } xb, kb, zb, hb;
  uint64_t bias = 0;
  if (!(x >= 0x1p-1022 && x < INFINITY)) {
    if (x != x || x == INFINITY)
      return x;
    if (x == 0.0)
      return -INFINITY;
    if (x < 0.0) {
      xb.u = 0xfff8000000000000ULL;
      return xb.d;
    }
    x = x * 0x1p52;
    bias = 52;
  }
  xb.d = x;
  {
    PR_LSE_LOG_REDUCE(double, uint64_t, xb.u, bias)
    double invc = pr_lse_log_table[idx];
    double chi = pr_lse_log_table[idx + 1];
    double clo = pr_lse_log_table[idx + 2];
    PR_LSE_LOG_POLY(double)
    return hi + tail;
  }
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
    double l = pr_lse_log(s);
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

// pr_lse_log of each lane of *x.
static inline __attribute__((always_inline)) void
pr_lse_log_lanes(pr_v4d *out, const pr_v4d *xp) {
  union { pr_v4d d; pr_v4u u; } xb, kb, zb, hb;
  pr_v4d x = *xp;
  // The scalar form's scaling of a subnormal, in every lane below
  // 2^-1022; the lanes that are not positive and finite are replaced
  // below.
  pr_v4u sub = (pr_v4u)(x < 0x1p-1022);
  pr_v4d scaled = x * 0x1p52;
  pr_v4u bias = sub & 52;
  xb.d = (pr_v4d)PR_LANE_SELECT(sub, (pr_v4u)scaled, (pr_v4u)x);
  {
    PR_LSE_LOG_REDUCE(pr_v4d, pr_v4u, xb.u, bias)
    pr_v4d invc = {pr_lse_log_table[idx[0]], pr_lse_log_table[idx[1]],
                   pr_lse_log_table[idx[2]], pr_lse_log_table[idx[3]]};
    pr_v4d chi = {
        pr_lse_log_table[idx[0] + 1], pr_lse_log_table[idx[1] + 1],
        pr_lse_log_table[idx[2] + 1], pr_lse_log_table[idx[3] + 1]};
    pr_v4d clo = {
        pr_lse_log_table[idx[0] + 2], pr_lse_log_table[idx[1] + 2],
        pr_lse_log_table[idx[2] + 2], pr_lse_log_table[idx[3] + 2]};
    PR_LSE_LOG_POLY(pr_v4d)
    {
      pr_v4d y = hi + tail;
      // The scalar form's guard: NaN and +inf pass, +-0 gives -inf and
      // a negative lane the NaN of 0 / 0.
      pr_v4u finite = (pr_v4u)(x > 0.0) & (pr_v4u)(x < (double)INFINITY);
      pr_v4u pass = (pr_v4u)(x != x) | (pr_v4u)(x == (double)INFINITY);
      pr_v4u zero = (pr_v4u)(x == 0.0);
      pr_v4u neg = (pr_v4u)(x < 0.0);
      pr_v4d ninf = {-INFINITY, -INFINITY, -INFINITY, -INFINITY};
      pr_v4u special = (pass & (pr_v4u)x) | (zero & (pr_v4u)ninf) |
                       (neg & 0xfff8000000000000ULL);
      *out = (pr_v4d)PR_LANE_SELECT(finite, (pr_v4u)y, special);
    }
  }
}

// pr_lse_result of lane l of (*m, *s), for every lane.
static inline __attribute__((always_inline)) void
pr_lse_result_lanes(pr_v4d *out, const pr_v4d *m, const pr_v4d *s) {
  pr_v4d l;
  pr_lse_log_lanes(&l, s);
  {
    pr_v4d sum = *m + l;
    pr_v4u empty = (pr_v4u)(*m == -(double)INFINITY);
    *out = (pr_v4d)PR_LANE_SELECT(empty, (pr_v4u)*m, (pr_v4u)sum);
  }
}

#endif // PARREC_CODEGEN_CELLMATH_H
