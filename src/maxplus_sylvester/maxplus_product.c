/* The compiled max-plus product: out = p ⊗ q for row-major float64 arrays,
 * out[i, j] = max_l (p[i, l] + q[l, j]), or in accumulate mode
 * out = out ⊕ (p ⊗ q); and the max-plus Kronecker product the oracle
 * builds its system from, under the same rules.  ckernel.py builds and
 * binds both.
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
 * The register tile comes in two element types, from one source,
 * maxplus_tile.h: 6×32 doubles padded with -inf, and 6×64 int32 padded
 * with INT_NEG.  Either way its 24 accumulator vectors (8 doubles or 16
 * int32 each) keep enough add-max chains in flight and fit AVX-512's 32
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
