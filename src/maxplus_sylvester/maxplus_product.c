/* The compiled max-plus product: out = p ⊗ q for row-major float64 arrays,
 * out[i, j] = max_l (p[i, l] + q[l, j]), or in accumulate mode
 * out = out ⊕ (p ⊗ q); the max-plus Kronecker product the oracle builds its
 * system from, under the same rules; and maxplus_terms, the p terms of a
 * Sylvester sum in one call on small integer data.  ckernel.py builds and
 * binds all three.
 *
 * Each cell starts at -inf, or at its own value in accumulate mode, and
 * takes a sum s only when s > cell.  A NaN sum, which only -inf + +inf
 * gives, loses every comparison, so the max-plus zero absorbs
 * (-inf ⊗ +inf = -inf) with no patch pass, and no cell is ever NaN.  The
 * max of the same sums is the same in any order (no -0.0 reaches a
 * product), so the blocking below changes no bit.  Every sum is formed,
 * and a finite one that overflows raises FE_OVERFLOW.
 * -ffast-math would break both rules; build without it.
 *
 * The register tile comes in three element types, from one source,
 * maxplus_tile.h: 6×32 doubles padded with -inf, 6×64 int32 padded with
 * INT_NEG and 6×128 int16 padded with I16_NEG.  Each way its 24 accumulator
 * vectors (8 doubles, 16 int32 or 32 int16 each) keep enough add-max
 * chains in flight and fit AVX-512's 32
 * vector registers (BENCH_10.json; built for AVX2, gcc keeps them in L1).
 * Each block of out takes the tile over passes of KB inner indices.
 * Blocks past the last multiple of 6 rows or of WJ columns run the tile on
 * stack copies padded with the bottom element, about 78 KiB: the pass's
 * slice of the last rows of p and of the last columns of q, and the block
 * of out, whose real cells alone are copied back.  A padded double sum is
 * -inf or NaN, which never raises FE_OVERFLOW, and each real cell still
 * takes exactly its own sums.  Products of 2 to 5 rows cost up to 6 times
 * the work; the solvers form such products only when C has fewer than 6
 * rows.  A single row or a single column never reaches the tile: m == 1
 * and n == 1 take the loops below.
 *
 * The int32 tile does a multiply-add in 16 lanes where the double one has
 * 8.  It serves a product whose every entry of p, q and, in accumulate
 * mode, out is -inf, +inf or an integer of magnitude below 2^27, and only
 * when int_tile_pays says the lanes save more than the encoding costs.
 * Entries are encoded into 64-byte aligned scratch of the call's own as
 * finite ↦ itself, -inf ↦ INT_NEG = -2^30, +inf ↦ INT_POS = 2^29, and the
 * result is decoded as ≤ -2^28 ↦ -inf, ≥ 2^28 ↦ +inf, else itself.  That
 * gives the double tile's bits:
 *   - every sum fits int32: -2^30 + -2^30 = -2^31;
 *   - a finite sum has magnitude below 2^28, so it decodes to the same
 *     double sum, which is exact too;
 *   - -inf + +inf is -2^29, which decodes to -inf, as a NaN sum loses;
 *   - -inf + a finite entry is at most -2^30 + 2^27 and decodes to -inf;
 *   - +inf + a finite entry is at least 3·2^27 and decodes to +inf;
 *   - no finite double sum can overflow, so no FE_OVERFLOW is lost, and
 *     encoding refuses -0.0, so none reaches the tile.
 * Any other entry sends the product to the double tile, as does a failed
 * allocation.  Encoding and decoding are branch-free vectorised passes
 * built on the 0x1.8p52 magic add: a cast between double and int32 may
 * trap, so without -ffast-math gcc 12 does not vectorise a loop that
 * selects around one.  Encoding stops at the first CHUNK that holds an
 * entry that does not qualify.
 *
 * maxplus_terms runs ⊕_k A_k ⊗ X ⊗ B_k, or the residual
 * −(⊕_k A_kᵀ ⊗ (−X) ⊗ B_kᵀ) that is the principal solution at C = X, on the
 * int16 tile, 32 lanes to a register.  It serves a call only when every
 * finite entry of the factors is an integer of magnitude up to 2^9 and
 * every finite entry of X one up to 3·2^9, and when terms_pay says the
 * lanes and the caller's calls saved repay the encoding; it declines any
 * other call, and the caller composes the sum from maxplus_product calls.
 * Each operand is encoded once into 64-byte aligned scratch of the call's
 * own, as finite ↦ itself, -inf ↦ I16_NEG = -2^14, +inf ↦ I16_POS = 2^13;
 * for the residual each factor is transposed as it is encoded and X is
 * negated after it.  Each term's first product T = A_k ⊗ X is clamped,
 * ≤ -2^12 ↦ -2^14 and ≥ 2^12 ↦ 2^13, before T ⊗ B_k is maxed into the
 * running sum, which is decoded once at the end (≤ -2^12 ↦ -inf,
 * ≥ 2^12 ↦ +inf, else itself), after a negation for the residual.
 * Negation swaps the two codes and changes the sign of any other entry.
 * That gives the per-product composition's bits:
 *   - every operand of a product is a code or finite, and a finite one has
 *     magnitude at most 2^9 (a factor), 3·2^9 (X) or 4·2^9 (a clamped T,
 *     whose finite cells are sums of a factor entry and an X entry);
 *   - so a finite sum has magnitude at most 5·2^9 = 2560, below the decode
 *     edge 2^12, and it is exact in int16 as in double;
 *   - -inf plus a finite entry is at most -2^14 + 2^11 and stays at or
 *     below -2^12; +inf plus one is at least 2^13 - 2^11 and stays at or
 *     above 2^12;
 *   - -inf + -inf = -2^15 fits in int16, +inf + +inf = 2^14 fits, and
 *     -inf + +inf = -2^13 decodes to -inf, as a NaN sum loses in double;
 *   - a cell starts at -2^14 and only grows, so T and the running sum lie
 *     in [-2^14, 2^14], and there negation takes every entry that decodes
 *     to one infinity to one that decodes to the other: the last negation
 *     needs no clamp before it;
 *   - without its clamp T could hold +inf as 2^14, and 2^14 + -2^14 = 0
 *     would read finite, so T is clamped: the running sum is only maxed,
 *     never added to, so the bounds hold for any p;
 *   - no double sum of such entries can overflow, so no FE_OVERFLOW is
 *     lost, and encoding refuses -0.0.
 * With these bounds the principal of data up to 2^9 has finite entries of
 * magnitude at most 3·2^9, so it qualifies for its own substitution.
 */
#include <fenv.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define WR 6     /* rows of p per register tile */
#define KB 256   /* inner indices per pass, so a pass's rows of q stay in cache */
#define LANES 16 /* independent maxima per row when n == 1 */

#define INT_NEG (-(1 << 30))   /* -inf in the int32 tile */
#define INT_POS (1 << 29)      /* +inf in the int32 tile */
#define INT_EDGE (1 << 28)     /* a result this far from 0 decodes to an infinity */
#define INT_BOUND 0x1p27       /* finite entries below this in magnitude are encoded */
#define INT_ENTRY_COST 12      /* int32 multiply-adds that encoding or decoding one entry costs */
#define WJ_F64 32              /* columns of q per double tile: 4 vectors of 8 */
#define WJ_I32 64              /* columns of q per int32 tile: 4 vectors of 16 */
#define WJ_I16 128             /* columns of q per int16 tile: 4 vectors of 32 */

#define I16_NEG (-(1 << 14))   /* -inf in the int16 tile */
#define I16_POS (1 << 13)      /* +inf in the int16 tile */
#define I16_EDGE (1 << 12)     /* a value this far from 0 is an infinity */
#define I16_FACTOR 0x1p9       /* finite factor entries up to this magnitude are encoded */
#define I16_X 0x1.8p10         /* finite entries of X up to this magnitude, 3·2^9, are encoded */
#define TERMS_ENTRY_COST 11    /* double multiply-adds that encoding or decoding one int16 entry costs */
#ifndef TERMS_CALL_COST        /* the tests build one that serves every shape */
#define TERMS_CALL_COST 90000  /* double multiply-adds one product's call from Python costs, about 4.5 µs */
#endif
#define TR 16                  /* rows of x a transposing encode takes at a time */
#define TC 256                 /* and columns */

#define T double
#define WJ WJ_F64
#define BOTTOM (-INFINITY)
#define NAME(f) f##_f64
#include "maxplus_tile.h"

#define T int32_t
#define WJ WJ_I32
#define BOTTOM INT_NEG
#define NAME(f) f##_i32
#include "maxplus_tile.h"

#define T int16_t
#define WJ WJ_I16
#define BOTTOM I16_NEG
#define NAME(f) f##_i16
#include "maxplus_tile.h"

#define MAGIC 0x1.8p52 /* v + MAGIC holds an integer v, |v| < 2^51, in its low mantissa bits */
#define CHUNK 128      /* entries encoded between checks for one that does not qualify */

static inline double mp_max(double s, double o) { return s > o ? s : o; }

/* n == 1: one chain of maxima per row would wait on each comparison, so
 * LANES chains run side by side and meet at the end. */
static void matvec(const double *p, const double *q, double *out, ptrdiff_t m, ptrdiff_t k,
                   int accumulate)
{
    for (ptrdiff_t i = 0; i < m; i++) {
        const double *row = p + i * k;
        double acc[LANES];
        for (int t = 0; t < LANES; t++) acc[t] = -INFINITY;
        ptrdiff_t l = 0;
        for (; l + LANES <= k; l += LANES)
            for (int t = 0; t < LANES; t++) acc[t] = mp_max(row[l + t] + q[l + t], acc[t]);
        double o = accumulate ? out[i] : -INFINITY;
        for (; l < k; l++) o = mp_max(row[l] + q[l], o);
        for (int t = 0; t < LANES; t++) o = mp_max(acc[t], o);
        out[i] = o;
    }
}

/* m == 1: out's one row takes p[l] + q[l, :] for each l in turn, so q is
 * read by rows, and its n chains of maxima, one per column, run side by
 * side.  out is a fresh array or the caller's running one, never q, and
 * restrict lets gcc vectorise without a runtime overlap check. */
static void vecmat(const double *p, const double *restrict q, double *restrict out, ptrdiff_t k,
                   ptrdiff_t n, int accumulate)
{
    if (!accumulate)
        for (ptrdiff_t j = 0; j < n; j++) out[j] = -INFINITY;
    for (ptrdiff_t l = 0; l < k; l++) {
        const double a = p[l], *row = q + l * n;
        for (ptrdiff_t j = 0; j < n; j++) out[j] = mp_max(a + row[j], out[j]);
    }
}

static inline uint64_t bits(double x)
{
    uint64_t u;
    memcpy(&u, &x, sizeof u);
    return u;
}

/* Writes x's count entries to z as the int32 tile reads them: a finite
 * integer of magnitude below INT_BOUND as itself, -inf as INT_NEG and +inf
 * as INT_POS.  Returns 0, with z partly written, when an entry is none of
 * these (-0.0, a fraction, a larger number or NaN), else 1. */
static int encode(const double *restrict x, int32_t *restrict z, ptrdiff_t count)
{
    for (ptrdiff_t c0 = 0; c0 < count; c0 += CHUNK) {
        ptrdiff_t c1 = count - c0 < CHUNK ? count : c0 + CHUNK;
        uint64_t bad = 0; /* 64 bits wide, and no && or ||, so gcc vectorises the loop */
        for (ptrdiff_t c = c0; c < c1; c++) {
            double v = x[c], a = fabs(v);
            v = v < INT_NEG ? INT_NEG : v > INT_POS ? INT_POS : v; /* the infinities' codes */
            double y = v + MAGIC;
            /* y - MAGIC keeps v's bits only when v is an integer other than -0.0 */
            bad |= (bits(y - MAGIC) ^ bits(v)) | !((a < INT_BOUND) | (a == INFINITY));
            z[c] = (int32_t)bits(y);
        }
        if (bad) return 0;
    }
    return 1;
}

/* Writes z's count entries to x: at or below -INT_EDGE as -inf, at or
 * above INT_EDGE as +inf, and any other as itself. */
static void decode(const int32_t *restrict z, double *restrict x, ptrdiff_t count)
{
    for (ptrdiff_t c = 0; c < count; c++) {
        int32_t v = z[c];
        double d;
        uint64_t u = bits(MAGIC) + (uint64_t)(int64_t)v;
        memcpy(&d, &u, sizeof d);
        d -= MAGIC;
        x[c] = v <= -INT_EDGE ? -INFINITY : v >= INT_EDGE ? INFINITY : d;
    }
}

/* The int32 tile on encoded copies of p, q and, in accumulate mode, out:
 * 0 when an entry does not qualify or no scratch could be had, with out
 * untouched; else 1, with out holding the result. */
static int product_i32(const double *p, const double *q, double *out, ptrdiff_t m, ptrdiff_t k,
                       ptrdiff_t n, int accumulate)
{
    /* each array starts on a 64-byte line: sizes rounded up to 16 int32 */
    ptrdiff_t sp = (m * k + 15) & ~(ptrdiff_t)15, sq = (k * n + 15) & ~(ptrdiff_t)15;
    ptrdiff_t so = (m * n + 15) & ~(ptrdiff_t)15;
    int32_t *zp = aligned_alloc(64, (size_t)(sp + sq + so) * sizeof(int32_t));
    if (!zp) return 0;
    int32_t *zq = zp + sp, *zo = zq + sq;
    int ok = encode(p, zp, m * k) && encode(q, zq, k * n) && (!accumulate || encode(out, zo, m * n));
    if (ok) {
        blocked_i32(zp, zq, zo, m, k, n, accumulate);
        decode(zo, out, m * n);
    }
    free(zp);
    return ok;
}

/* Whether the int32 tile beats the double one on an m×k by k×n product:
 * it does a multiply-add in about half the time, each tile pads n to a
 * multiple of its width, and each entry of p, q and out is encoded or
 * decoded once.  Up to 32 columns both tiles do the same padded work, so
 * the int32 tile never pays there. */
static int int_tile_pays(ptrdiff_t m, ptrdiff_t k, ptrdiff_t n)
{
    ptrdiff_t f64 = (n + WJ_F64 - 1) / WJ_F64 * WJ_F64, i32 = (n + WJ_I32 - 1) / WJ_I32 * WJ_I32;
    return m * k * (2 * f64 - i32) >= INT_ENTRY_COST * (m * k + k * n + m * n);
}

/* p is m×k, q is k×n, out is m×n, all C-contiguous.  With accumulate set,
 * out's own values are the start instead of -inf.  Returns 1 when a finite
 * sum overflowed, else 0; out is then partly updated. */
int maxplus_product(const double *p, const double *q, double *out, ptrdiff_t m, ptrdiff_t k,
                    ptrdiff_t n, int accumulate)
{
    feclearexcept(FE_OVERFLOW);
    if (n == 1)
        matvec(p, q, out, m, k, accumulate);
    else if (m == 1)
        vecmat(p, q, out, k, n, accumulate);
    else if (!int_tile_pays(m, k, n) || !product_i32(p, q, out, m, k, n, accumulate))
        blocked_f64(p, q, out, m, k, n, accumulate);
    return fetestexcept(FE_OVERFLOW) != 0;
}

/* kron = mm ⊗ nn, the max-plus Kronecker product of the a×b mm and the
 * c×d nn: kron[i·c + r, j·d + s] = mm[i, j] + nn[r, s], an (a·c)×(b·d)
 * row-major array.  With accumulate set, each sum is maxed into kron's own
 * value instead of -inf.  A cell takes its sum as the product's cells do:
 * only when the sum is greater, so a NaN sum leaves -inf.  Returns 1 when
 * a finite sum overflowed, else 0; kron is then partly updated. */
int maxplus_kron(const double *mm, const double *nn, double *kron, ptrdiff_t a, ptrdiff_t b,
                 ptrdiff_t c, ptrdiff_t d, int accumulate)
{
    feclearexcept(FE_OVERFLOW);
    for (ptrdiff_t i = 0; i < a; i++)
        for (ptrdiff_t r = 0; r < c; r++)
            for (ptrdiff_t j = 0; j < b; j++) {
                const double x = mm[i * b + j], *row = nn + r * d;
                double *cell = kron + ((i * c + r) * b + j) * d;
                for (ptrdiff_t s = 0; s < d; s++)
                    cell[s] = mp_max(x + row[s], accumulate ? cell[s] : -INFINITY);
            }
    return fetestexcept(FE_OVERFLOW) != 0;
}

/* The int16 form of encode: x's finite entries up to bound in magnitude
 * as themselves, -inf as I16_NEG and +inf as I16_POS, written to z, which
 * has row stride zs, from the rows×cols x with row stride xs.  Returns the
 * bits that are nonzero when an entry is none of these. */
static uint64_t encode_rows_i16(const double *restrict x, ptrdiff_t xs, int16_t *restrict z, ptrdiff_t zs,
                                ptrdiff_t rows, ptrdiff_t cols, double bound)
{
    uint64_t bad = 0;
    for (ptrdiff_t r = 0; r < rows; r++)
        for (ptrdiff_t c = 0; c < cols; c++) {
            double v = x[r * xs + c], a = fabs(v);
            v = v < I16_NEG ? I16_NEG : v > I16_POS ? I16_POS : v;
            double y = v + MAGIC;
            bad |= (bits(y - MAGIC) ^ bits(v)) | !((a <= bound) | (a == INFINITY));
            z[r * zs + c] = (int16_t)bits(y);
        }
    return bad;
}

/* Writes the rows×cols x to z as the int16 tile reads it, or, with flip
 * set, its transpose, a cols×rows z.  Returns 0, with z partly written,
 * when an entry is not ±inf or an integer other than -0.0 of magnitude up
 * to bound, else 1.  A transposing encode takes TR rows at a time, TC
 * columns at a time: it encodes their rows into a buffer on the stack,
 * then writes the buffer to z by columns, TR entries to a run, so x is
 * read by rows and z written within a few cache lines. */
static int encode_i16(const double *restrict x, int16_t *restrict z, ptrdiff_t rows, ptrdiff_t cols,
                      double bound, int flip)
{
    if (!flip) {
        for (ptrdiff_t c0 = 0; c0 < rows * cols; c0 += CHUNK) {
            ptrdiff_t c1 = rows * cols - c0 < CHUNK ? rows * cols : c0 + CHUNK;
            if (encode_rows_i16(x + c0, 0, z + c0, 0, 1, c1 - c0, bound)) return 0;
        }
        return 1;
    }
    int16_t buf[TR * TC];
    for (ptrdiff_t i0 = 0; i0 < rows; i0 += TR) {
        ptrdiff_t h = rows - i0 < TR ? rows - i0 : TR;
        for (ptrdiff_t j0 = 0; j0 < cols; j0 += TC) {
            ptrdiff_t w = cols - j0 < TC ? cols - j0 : TC;
            if (encode_rows_i16(x + i0 * cols + j0, cols, buf, TC, h, w, bound)) return 0;
            for (ptrdiff_t c = 0; c < w; c++)
                for (ptrdiff_t r = 0; r < h; r++) z[(j0 + c) * rows + i0 + r] = buf[r * TC + c];
        }
    }
    return 1;
}

/* Sets z's count entries, each the max of int16 sums of entries at most
 * 4·2^9 from 0 or a code, to clamp form: at or below -I16_EDGE to I16_NEG,
 * at or above I16_EDGE to I16_POS. */
static void clamp_i16(int16_t *z, ptrdiff_t count)
{
    for (ptrdiff_t c = 0; c < count; c++) {
        int16_t v = z[c];
        z[c] = v <= -I16_EDGE ? I16_NEG : v >= I16_EDGE ? I16_POS : v;
    }
}

/* Negates z's count entries, each in [I16_NEG, 2^14]: the two codes swap,
 * and any other entry changes sign, which keeps it on its side of the
 * decode edges. */
static void negate_i16(int16_t *z, ptrdiff_t count)
{
    for (ptrdiff_t c = 0; c < count; c++) {
        int16_t v = z[c];
        z[c] = v == I16_NEG ? I16_POS : v == I16_POS ? I16_NEG : -v;
    }
}

/* Writes z's count entries to x: at or below -I16_EDGE as -inf, at or
 * above I16_EDGE as +inf, and any other as itself. */
static void decode_i16(const int16_t *restrict z, double *restrict x, ptrdiff_t count)
{
    for (ptrdiff_t c = 0; c < count; c++) {
        int16_t v = z[c];
        double d;
        uint64_t u = bits(MAGIC) + (uint64_t)(int64_t)v;
        memcpy(&d, &u, sizeof d);
        d -= MAGIC;
        x[c] = v <= -I16_EDGE ? -INFINITY : v >= I16_EDGE ? INFINITY : d;
    }
}

/* Double multiply-adds an rows×k by k×cols product costs on the per-product
 * path: matvec and vecmat pad nothing, the double tile pads cols to WJ_F64. */
static ptrdiff_t f64_work(ptrdiff_t rows, ptrdiff_t k, ptrdiff_t cols)
{
    if (rows == 1 || cols == 1) return rows * k * cols;
    return (rows + WR - 1) / WR * WR * k * ((cols + WJ_F64 - 1) / WJ_F64 * WJ_F64);
}

/* The same in double multiply-adds on the int16 tile, which pads every
 * product to whole tiles and does 4 multiply-adds where the double one
 * does 1. */
static ptrdiff_t i16_work(ptrdiff_t rows, ptrdiff_t k, ptrdiff_t cols)
{
    return (rows + WR - 1) / WR * WR * k * ((cols + WJ_I16 - 1) / WJ_I16 * WJ_I16) / 4;
}

/* Whether one maxplus_terms call beats the 2p products the caller would
 * make instead for p terms at C of m×n: the int16 tile has 4 lanes for
 * the double tile's 1, but each entry of the factors, of x and of out is
 * encoded or decoded once, and each of the caller's products is a call
 * from Python with its checks.  For n up to 32 both tiles do the same
 * padded work, so the encoding pays only against the calls, which are
 * what weighs at small m. */
static int terms_pay(ptrdiff_t p, ptrdiff_t m, ptrdiff_t n)
{
    ptrdiff_t f64 = p * (f64_work(m, m, n) + f64_work(m, n, n) + 2 * TERMS_CALL_COST);
    ptrdiff_t i16 = p * (i16_work(m, m, n) + i16_work(m, n, n) + TERMS_ENTRY_COST * (m * m + n * n));
    return i16 + TERMS_ENTRY_COST * 2 * m * n < f64;
}

/* out = ⊕_k a[k] ⊗ x ⊗ b[k] over the p terms, for C-contiguous m×m a[k],
 * n×n b[k] and m×n x and out; with residual set,
 * out = −(⊕_k a[k]ᵀ ⊗ (−x) ⊗ b[k]ᵀ), the principal solution at C = x.
 * Runs the int16 tile on encoded copies in one scratch block of the
 * call's own, each factor encoded once, transposed as it is encoded, and x
 * once; a clamp follows the first product of each term (see the header).
 * Returns 1 with out written, or 0 with out untouched
 * when an entry does not qualify (see the header), the shape does not
 * repay the tile or no scratch could be had.  With a NULL a it is a
 * query: whether the shape repays the tile and, unless x is NULL too,
 * whether x's first CHUNK entries qualify, which is where most data that
 * does not qualify shows it, so a caller can decline before it gathers
 * the factors. */
int maxplus_terms(const double *const *a, const double *const *b, const double *x, double *out,
                  ptrdiff_t p, ptrdiff_t m, ptrdiff_t n, int residual)
{
    if (!terms_pay(p, m, n)) return 0;
    if (!a) {
        int16_t head[CHUNK];
        return !x || !encode_rows_i16(x, 0, head, 0, 1, m * n < CHUNK ? m * n : CHUNK, I16_X);
    }
    /* each array starts on a 64-byte line: sizes rounded up to 32 int16 */
    ptrdiff_t sa = (m * m + 31) & ~(ptrdiff_t)31, sb = (n * n + 31) & ~(ptrdiff_t)31;
    ptrdiff_t sx = (m * n + 31) & ~(ptrdiff_t)31;
    int16_t *za = aligned_alloc(64, (size_t)(sa + sb + 3 * sx) * sizeof(int16_t));
    if (!za) return 0;
    int16_t *zb = za + sa, *zx = zb + sb, *zt = zx + sx, *zo = zt + sx;
    int ok = encode_i16(x, zx, m, n, I16_X, 0);
    if (ok && residual) negate_i16(zx, m * n);
    for (ptrdiff_t k = 0; ok && k < p; k++) {
        ok = encode_i16(a[k], za, m, m, I16_FACTOR, residual) && encode_i16(b[k], zb, n, n, I16_FACTOR, residual);
        if (ok) {
            blocked_i16(za, zx, zt, m, m, n, 0);
            clamp_i16(zt, m * n);
            blocked_i16(zt, zb, zo, m, n, n, k > 0);
        }
    }
    if (ok && residual) negate_i16(zo, m * n);
    if (ok) decode_i16(zo, out, m * n);
    free(za);
    return ok;
}
