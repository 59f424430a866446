/* The compiled max-plus product: out = p ⊗ q for row-major float64 arrays,
 * out[i, j] = max_l (p[i, l] + q[l, j]), or in accumulate mode
 * out = out ⊕ (p ⊗ q); maxplus_kron_solve, the oracle's whole solve in one
 * call that never holds its Kronecker system; and, on small integer data,
 * maxplus_solve, a whole Sylvester solve in one call.  ckernel.py builds
 * and binds all three.
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
 * maxplus_tile.h: 6×32 doubles padded with -inf and 6×128 int16 padded
 * with I16_NEG.  Each way its 24 accumulator vectors (8 doubles or 32
 * int16 each) keep enough add-max chains in flight and fit AVX-512's 32
 * vector registers (BENCH_10.json; built for AVX2, gcc keeps them in L1).
 * The pragma below makes gcc vectorise this file at 512 bits where the
 * target has AVX-512: gcc's tuning for recent AVX-512 cores, the one
 * -march=native picks on them, prefers 256-bit vectors, and at that width
 * the 24 accumulators would need 48 of 32 registers and spill to the
 * stack, which halves every product and solve (BENCH_31.json).  Without
 * AVX-512 the pragma changes nothing, and it is x86-64's alone, so other
 * targets build this file as they would without it.
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
 * The int16 tile does a multiply-add in 32 lanes where the double one has
 * 8, on data whose every entry is ±inf or an integer.  encode_i16 writes
 * an operand into the thread's scratch (see scratch below) as the tile's
 * codes, -inf as -2^14 and +inf as 2^13, and decode_i16 reads a result
 * back, at or below -2^12 as -inf and at or above 2^12 as +inf.  Finite
 * entries are encoded up to a bound in magnitude: 2^11 - 1 for a single
 * product's operands, 2^9 for a solve's factors and 3·2^9 for its C.
 * Encoding stops at the first CHUNK that holds an entry past the bound, a
 * fraction, -0.0 or NaN.  Such an entry, or a failed allocation, sends a
 * product to the double tile, and makes maxplus_solve decline, so the
 * caller composes its solve from maxplus_product calls.  Each call serves
 * only where its rule says the lanes repay the encoding: int_tile_pays
 * for a product, solve_pays for a whole solve, in double multiply-adds.
 * A product's codes give the double tile's bits:
 *   - every operand, out in accumulate mode among them, is a code or
 *     finite with magnitude at most 2^11 - 1, so a finite sum has
 *     magnitude at most 2^12 - 2, below the decode edge 2^12, and it is
 *     exact in int16 as in double;
 *   - -inf + a finite entry is at most -2^14 + 2^11 ≤ -2^12 and decodes
 *     to -inf; +inf + one is at least 2^13 - 2^11 + 1 ≥ 2^12 and decodes
 *     to +inf;
 *   - -inf + +inf is -2^13, which decodes to -inf, as a NaN sum loses;
 *   - -inf + -inf = -2^15 and +inf + +inf = 2^14 fit in int16;
 *   - out in accumulate mode is only maxed with sums, never added to;
 *   - no finite double sum of such entries can overflow, so no
 *     FE_OVERFLOW is lost, and encoding refuses -0.0, so none reaches the
 *     tile.
 *
 * maxplus_solve runs a whole Sylvester solve ⊕_k A_k ⊗ X ⊗ B_k = C on the
 * int16 tile: the principal solution X̂ = −(⊕_k A_kᵀ ⊗ (−C) ⊗ B_kᵀ), its
 * substitution ⊕_k A_k ⊗ X̂ ⊗ B_k and the exact scan against C.  Each
 * operand is encoded once, plain.  Each term's first product T is clamped,
 * ≤ -2^12 ↦ -2^14 and ≥ 2^12 ↦ 2^13, before the second is maxed into the
 * running sum.  Negation clamps too: it takes ≤ -2^12 to 2^13, ≥ 2^12 to
 * -2^14 and changes the sign of any other entry.  X̂ is decoded once, for
 * the report.  A NULL factor is the unit and skips its product, as
 * E ⊗ Y = Y bit for bit, so A ⊗ X ⊕ X ⊗ B = C runs as the terms (A, NULL)
 * and (NULL, B).  Each product formed still pairs a factor with C, a
 * clamped T or X̂, and the running sum is still only maxed, so the bounds
 * below hold unchanged.
 *
 * No factor is transposed.  The principal runs through its transpose,
 *   X̂ᵀ = −(⊕_k (B_k ⊗ (−Cᵀ)) ⊗ A_k):
 * −Cᵀ is formed from C as encoded, and X̂ from the running sum, each in one
 * pass that transposes and negates in int16.  Its first products are the
 * transposes of (−C) ⊗ B_kᵀ, so they are formed from operands of the same
 * bounds as the per-product path's first products A_kᵀ ⊗ (−C), and the
 * bounds below hold for them unchanged.
 * The values are the per-product composition's: every sum below is exact,
 * and with -inf absorbing, as -inf + +inf = -inf makes it, the max-plus
 * product is associative and (P ⊗ Q)ᵀ = Qᵀ ⊗ Pᵀ, so each cell is the same
 * integer or infinity whatever the association, and that value has one
 * double.  The bits hold:
 *   - every operand of a product is a code or finite, and a finite one has
 *     magnitude at most 2^9 (a factor), 3·2^9 (C), 4·2^9 (a clamped T of
 *     the principal), 5·2^9 (the principal X̂, a sum of one entry of C and
 *     two factor entries) or 6·2^9 (a clamped T of X̂'s substitution);
 *   - so a finite sum has magnitude at most 7·2^9 = 3584, below the decode
 *     edge 2^12, and it is exact in int16 as in double;
 *   - -inf plus a finite entry is at most -2^14 + 6·2^9 and stays at or
 *     below -2^12; +inf plus one is at least 2^13 - 6·2^9 and stays at or
 *     above 2^12;
 *   - -inf + -inf = -2^15 fits in int16, +inf + +inf = 2^14 fits, and
 *     -inf + +inf = -2^13 decodes to -inf, as a NaN sum loses in double;
 *   - without its clamp T could hold +inf as 2^14, and 2^14 + -2^14 = 0
 *     would read finite, so T is clamped, and so is X̂, which the
 *     substitution reads as an operand: the running sum is only maxed,
 *     never added to, so the bounds hold for any p;
 *   - no double sum of such entries can overflow, so no FE_OVERFLOW is
 *     lost, and encoding refuses -0.0.
 * The scan compares the substitution's running sum, clamped, with C as
 * encoded: both are then codes or exact finite integers, so they are equal
 * exactly when their doubles are.  The tolerance the solver would compare
 * with is 0.0 on this data: every entry is an integer, far below the
 * 2^53 / 5 up to which five-entry double sums are exact.  So a cell misses
 * when the two int16 entries differ, its residual is +inf when either is
 * an infinity, as their infinity states then differ, and else their exact
 * |difference|.
 */
#include <fenv.h>
#include <math.h>
#include <pthread.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__x86_64__)
#pragma GCC target("prefer-vector-width=512")
#endif

#define WR 6     /* rows of p per register tile */
#define KB 256   /* inner indices per pass, so a pass's rows of q stay in cache */
#define LANES 16 /* independent maxima per row when n == 1 */

#define WJ_F64 32              /* columns of q per double tile: 4 vectors of 8 */
#define WJ_I16 128             /* columns of q per int16 tile: 4 vectors of 32 */

#define I16_NEG (-(1 << 14))   /* -inf in the int16 tile */
#define I16_POS (1 << 13)      /* +inf in the int16 tile */
#define I16_EDGE (1 << 12)     /* a value this far from 0 is an infinity */
#define I16_PRODUCT (0x1p11 - 1) /* finite entries of a product's operands up to this magnitude are encoded */
#define I16_FACTOR 0x1p9       /* finite factor entries up to this magnitude are encoded */
#define I16_C 0x1.8p10         /* finite entries of C up to this magnitude, 3·2^9, are encoded */
#define I16_ENTRY_COST 11      /* double multiply-adds that encoding or decoding one int16 entry costs */
#define SOLVE_CALL_COST 90000  /* double multiply-adds one product's call from Python costs, about 4.5 µs */

#define MAGIC 0x1.8p52 /* v + MAGIC holds an integer v, |v| < 2^51, in its low mantissa bits */
#define CHUNK 128      /* entries encoded between checks for one that does not qualify */

static inline uint64_t bits(double x)
{
    uint64_t u;
    memcpy(&u, &x, sizeof u);
    return u;
}

#define T double
#define WJ WJ_F64
#define BOTTOM (-INFINITY)
#define NAME(f) f##_f64
#include "maxplus_tile.h"

#define T int16_t
#define WJ WJ_I16
#define BOTTOM I16_NEG
#define NAME(f) f##_i16
#include "maxplus_tile.h"

/* Writes x's count entries to z as the int16 tile reads them: -inf as
 * I16_NEG, +inf as I16_POS and an integer other than -0.0 of magnitude up
 * to bound as itself.  Returns 0, with z partly written, at the first
 * CHUNK that holds an entry that is none of these (-0.0, a fraction, a
 * larger number or NaN), else 1.  Branch-free, on the MAGIC add: a cast
 * between double and an integer may trap, so without -ffast-math gcc 12
 * does not vectorise a loop that selects around one. */
static int encode_i16(const double *restrict x, int16_t *restrict z, ptrdiff_t count, double bound)
{
    for (ptrdiff_t c0 = 0; c0 < count; c0 += CHUNK) {
        ptrdiff_t c1 = count - c0 < CHUNK ? count : c0 + CHUNK;
        uint64_t bad = 0; /* 64 bits wide, and no && or ||, so gcc vectorises the loop */
        for (ptrdiff_t c = c0; c < c1; c++) {
            double v = x[c], a = fabs(v);
            v = v < I16_NEG ? I16_NEG : v > I16_POS ? I16_POS : v; /* the infinities' codes */
            double y = v + MAGIC;
            /* y - MAGIC keeps v's bits only when v is an integer other than -0.0 */
            bad |= (bits(y - MAGIC) ^ bits(v)) | !((a <= bound) | (a == INFINITY));
            z[c] = (int16_t)bits(y);
        }
        if (bad) return 0;
    }
    return 1;
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

static pthread_key_t scratch_key;
static pthread_once_t scratch_once = PTHREAD_ONCE_INIT;
static int scratch_keyed;

static void scratch_key_create(void) { scratch_keyed = !pthread_key_create(&scratch_key, free); }

/* A 64-byte aligned block of size bytes, a multiple of 64, that the
 * calling thread keeps from call to call, or NULL when none could be had;
 * the int16 product and solve both take theirs here.  A block
 * the size of a call's operands, allocated and freed on every call, let
 * glibc trim the top of the heap, and the caller's next fresh array of
 * about that size page-faulted in again: 256 faults a 256×256 solve beside
 * numpy's own arrays.  Freeing a block glibc had served by mmap also raised
 * its mmap threshold, so numpy's larger arrays stayed resident.  The block
 * grows to the thread's largest call and is freed when the thread exits.
 * Its first 64 bytes hold its size. */
static void *scratch(size_t size)
{
    pthread_once(&scratch_once, scratch_key_create);
    if (!scratch_keyed) return NULL;
    size_t *block = pthread_getspecific(scratch_key);
    if (!block || *block < size) {
        free(block);
        block = aligned_alloc(64, 64 + size);
        if (block) *block = size;
        pthread_setspecific(scratch_key, block);
    }
    return block ? (char *)block + 64 : NULL;
}

/* n rounded up to a multiple of w */
static inline ptrdiff_t pad(ptrdiff_t n, ptrdiff_t w) { return (n + w - 1) / w * w; }

#define LINE(count, type) pad(count, 64 / sizeof(type)) /* entries of type rounded up to 64-byte lines */

/* The int16 tile on encoded copies of p, q and, in accumulate mode, out,
 * each starting on a 64-byte line: 0 when an entry does not qualify or no
 * scratch could be had, with out untouched; else 1, with out holding the
 * result. */
static int product_i16(const double *p, const double *q, double *out, ptrdiff_t m, ptrdiff_t k,
                       ptrdiff_t n, int accumulate)
{
    ptrdiff_t sp = LINE(m * k, int16_t), sq = LINE(k * n, int16_t), so = LINE(m * n, int16_t);
    int16_t *zp = scratch((size_t)(sp + sq + so) * sizeof(int16_t));
    if (!zp) return 0;
    int16_t *zq = zp + sp, *zo = zq + sq;
    int ok = encode_i16(p, zp, m * k, I16_PRODUCT) && encode_i16(q, zq, k * n, I16_PRODUCT) &&
             (!accumulate || encode_i16(out, zo, m * n, I16_PRODUCT));
    if (ok) {
        blocked_i16(zp, zq, zo, m, k, n, accumulate);
        decode_i16(zo, out, m * n);
    }
    return ok;
}

/* Double multiply-adds a rows×k by k×cols product costs on the tile wj
 * columns wide: it pads cols to a multiple of wj, and its wj / WJ_F64
 * times as many lanes do that many multiply-adds where the double tile
 * does one. */
static ptrdiff_t work(ptrdiff_t rows, ptrdiff_t k, ptrdiff_t cols, ptrdiff_t wj)
{
    return rows * k * pad(cols, wj) / (wj / WJ_F64);
}

/* Whether the int16 tile beats the double one on an m×k by k×n product,
 * where each entry of p, q and out is encoded or decoded once.  Both tiles
 * pad m alike.  Up to 32 columns both do the same padded work, so the
 * int16 tile never pays there. */
static int int_tile_pays(ptrdiff_t m, ptrdiff_t k, ptrdiff_t n)
{
    return work(m, k, n, WJ_F64) - work(m, k, n, WJ_I16) >= I16_ENTRY_COST * (m * k + k * n + m * n);
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
    else if (!int_tile_pays(m, k, n) || !product_i16(p, q, out, m, k, n, accumulate))
        blocked_f64(p, q, out, m, k, n, accumulate);
    return fetestexcept(FE_OVERFLOW) != 0;
}

#define KR 4 /* rows of K formed at a time by maxplus_kron_solve */

/* Rows r0 .. r0 + KR - 1 of the oracle's N×N K = ⊕_k kron(b[k]ᵀ, a[k]),
 * N = m·n, to buf, KR rows of N entries, as oracle.kron_max forms and
 * maxes them: K[i·m + r, j·m + s] = max_k (b[k][j, i] + a[k][r, s]), -inf
 * where every sum is NaN.  Rows past N are all -inf. */
static void kron_rows(const double *const *a, const double *const *b, ptrdiff_t p, ptrdiff_t m, ptrdiff_t n,
                      ptrdiff_t r0, double *restrict buf)
{
    ptrdiff_t N = m * n;
    for (ptrdiff_t t = 0; t < KR; t++) {
        double *row = buf + t * N;
        if (r0 + t >= N) {
            for (ptrdiff_t s = 0; s < N; s++) row[s] = -INFINITY;
            continue;
        }
        ptrdiff_t i = (r0 + t) / m, r = (r0 + t) % m;
        for (ptrdiff_t k = 0; k < p; k++) {
            const double *restrict ar = a[k] + r * m, *bi = b[k] + i;
            for (ptrdiff_t j = 0; j < n; j++) {
                const double x = bi[j * n];
                double *restrict cell = row + j * m;
                if (k == 0)
                    for (ptrdiff_t s = 0; s < m; s++) cell[s] = mp_max(x + ar[s], -INFINITY);
                else
                    for (ptrdiff_t s = 0; s < m; s++) cell[s] = mp_max(x + ar[s], cell[s]);
            }
        }
    }
}

/* The oracle's solve of K ⊗ vec(X) = vec(c) for the K of kron_rows, in
 * one call that never holds K: for C-contiguous m×m a[k], n×n b[k] and m×n
 * c, writes the principal solution x̂ = −((−vec(c))ᵀ ⊗ K)ᵀ, unvec'd, to
 * the m×n principal and its substitution K ⊗ x̂, unvec'd, to the m×n
 * achieved, and returns 0.  Returns -1 when a finite sum overflowed or no
 * scratch could be had, with principal and achieved partly written, so
 * the caller composes the solve from its own Kronecker product and
 * maxplus_product calls and raises their errors.
 *
 * It forms K twice, KR rows at a time in the thread's scratch: first to
 * max −vec(c)[R] + K[R, ·] into the principal's running row, as vecmat
 * does, and after negating that row to reduce K[R, ·] + x̂ for each row R,
 * as matvec does.  The bits are the composition's.  Each entry of K is the
 * max of the same sums b[k][j, i] + a[k][r, s], each term's NaN sum
 * losing to -inf, and every sum of the principal and of the substitution
 * is the composition's own sum of an entry of K and one of −vec(c) or
 * x̂.  A max of such sums is order-free, as no -0.0 reaches it (the
 * matrices fold -0.0 into 0.0, and 0.0 - v, as negation is formed, is
 * never -0.0), so forming rows in blocks and reducing them in lanes
 * changes no bit.  Every sum of the composition is formed, so a finite
 * one overflows here exactly when one overflows there. */
int maxplus_kron_solve(const double *const *a, const double *const *b, const double *c, double *principal,
                       double *achieved, ptrdiff_t p, ptrdiff_t m, ptrdiff_t n)
{
    ptrdiff_t N = m * n;
    double *buf = scratch((size_t)LINE((KR + 1) * N, double) * sizeof(double));
    if (!buf) return -1;
    double *x = buf + KR * N; /* the principal's running row, then x̂, in vec order */
    feclearexcept(FE_OVERFLOW);
    for (ptrdiff_t s = 0; s < N; s++) x[s] = -INFINITY;
    for (ptrdiff_t r0 = 0; r0 < N; r0 += KR) {
        kron_rows(a, b, p, m, n, r0, buf);
        double nc[KR]; /* −vec(c) at the block's rows, -inf past N */
        for (ptrdiff_t t = 0; t < KR; t++)
            nc[t] = r0 + t < N ? 0.0 - c[(r0 + t) % m * n + (r0 + t) / m] : -INFINITY;
        for (ptrdiff_t s = 0; s < N; s++) {
            double o = x[s];
            for (ptrdiff_t t = 0; t < KR; t++) o = mp_max(nc[t] + buf[t * N + s], o);
            x[s] = o;
        }
    }
    if (fetestexcept(FE_OVERFLOW)) return -1;
    for (ptrdiff_t s = 0; s < N; s++) {
        x[s] = 0.0 - x[s];
        principal[s % m * n + s / m] = x[s];
    }
    for (ptrdiff_t r0 = 0; r0 < N; r0 += KR) {
        kron_rows(a, b, p, m, n, r0, buf);
        double acc[KR][LANES];
        for (ptrdiff_t t = 0; t < KR; t++)
            for (int l = 0; l < LANES; l++) acc[t][l] = -INFINITY;
        ptrdiff_t s = 0;
        for (; s + LANES <= N; s += LANES)
            for (ptrdiff_t t = 0; t < KR; t++)
                for (int l = 0; l < LANES; l++) acc[t][l] = mp_max(buf[t * N + s + l] + x[s + l], acc[t][l]);
        for (ptrdiff_t t = 0; t < KR && r0 + t < N; t++) {
            double o = -INFINITY;
            for (ptrdiff_t u = s; u < N; u++) o = mp_max(buf[t * N + u] + x[u], o);
            for (int l = 0; l < LANES; l++) o = mp_max(acc[t][l], o);
            achieved[(r0 + t) % m * n + (r0 + t) / m] = o;
        }
    }
    return fetestexcept(FE_OVERFLOW) ? -1 : 0;
}

/* Sets z's count entries, each the max of int16 sums of the operands the
 * header bounds, to clamp form: at or below -I16_EDGE to I16_NEG, at or
 * above I16_EDGE to I16_POS. */
static void clamp_i16(int16_t *z, ptrdiff_t count)
{
    for (ptrdiff_t c = 0; c < count; c++) {
        int16_t v = z[c];
        z[c] = v <= -I16_EDGE ? I16_NEG : v >= I16_EDGE ? I16_POS : v;
    }
}

/* v, at least -2^14, negated in clamp form (see the header) */
static inline int16_t negated_i16(int16_t v) { return v <= -I16_EDGE ? I16_POS : v >= I16_EDGE ? I16_NEG : -v; }

/* z = −xᵀ for the rows×cols x, in clamp form.  Whole 8×8 blocks go through
 * b, so gcc loads x by rows and transposes in registers, about 3 times as
 * fast as storing straight to z and faster than 16×16 blocks; rows and
 * columns past the last multiple of 8 go one by one. */
static void transpose_negate_i16(const int16_t *restrict x, int16_t *restrict z, ptrdiff_t rows, ptrdiff_t cols)
{
    ptrdiff_t rw = rows - rows % 8, cw = cols - cols % 8;
    for (ptrdiff_t j0 = 0; j0 < cw; j0 += 8)
        for (ptrdiff_t i0 = 0; i0 < rw; i0 += 8) {
            int16_t b[8][8]; /* rows j0 .. j0 + 7 of z, at columns i0 .. i0 + 7 */
            for (int j = 0; j < 8; j++)
                for (int i = 0; i < 8; i++) b[j][i] = negated_i16(x[(i0 + i) * cols + j0 + j]);
            for (int j = 0; j < 8; j++) memcpy(z + (j0 + j) * rows + i0, b[j], sizeof b[j]);
        }
    for (ptrdiff_t i = 0; i < rows; i++)
        for (ptrdiff_t j = i < rw ? cw : 0; j < cols; j++) z[j * rows + i] = negated_i16(x[i * cols + j]);
}

/* Whether a maxplus_solve call beats the products the caller would make
 * instead for p terms at C of m×n.  It weighs one step of the solve, the
 * products of m rows it forms, A_k ⊗ X over m inner indices for each
 * non-NULL a[k] and T ⊗ B_k over n for each non-NULL b[k], against the
 * same products on the int16 tile:
 * each entry of the factors and of two m×n arrays is encoded or decoded
 * once, and each of the caller's products is a call from Python with its
 * checks.  On the caller's path matvec and vecmat pad nothing, and both
 * tiles pad m alike.  The other step has the same shapes.  For n up to 32
 * both tiles do the same padded work, so the encoding pays only against
 * the calls, which are what weighs at small m. */
static int solve_pays(const double *const *a, const double *const *b, ptrdiff_t p, ptrdiff_t m, ptrdiff_t n)
{
    ptrdiff_t rows = pad(m, WR), gain = -I16_ENTRY_COST * 2 * m * n;
    for (ptrdiff_t t = 0; t < 2 * p; t++) {
        ptrdiff_t k = t < p ? m : n, f64 = m == 1 || n == 1 ? m * k * n : work(rows, k, n, WJ_F64);
        if (t < p ? a[t] : b[t - p])
            gain += f64 + SOLVE_CALL_COST - work(rows, k, n, WJ_I16) - I16_ENTRY_COST * k * k;
    }
    return gain > 0;
}

/* zo = ⊕_k (zl[k] ⊗ zx) ⊗ zr[k] on the int16 tile, for p r×r zl[k], sl
 * entries apart, p c×c zr[k], sr apart, and r×c zx, zt and zo; each term's
 * first product goes to zt and is clamped before the second is maxed into
 * zo (see the header).  A term whose left[k] or right[k] is NULL maxes its
 * one product straight into zo. */
static void sum_i16(const double *const *left, const int16_t *zl, ptrdiff_t sl, const double *const *right,
                    const int16_t *zr, ptrdiff_t sr, const int16_t *zx, int16_t *zt, int16_t *zo, ptrdiff_t p,
                    ptrdiff_t r, ptrdiff_t c)
{
    for (ptrdiff_t k = 0; k < p; k++)
        if (!right[k]) {
            blocked_i16(zl + k * sl, zx, zo, r, r, c, k > 0);
        } else if (!left[k]) {
            blocked_i16(zx, zr + k * sr, zo, r, c, c, k > 0);
        } else {
            blocked_i16(zl + k * sl, zx, zt, r, r, c, 0);
            clamp_i16(zt, r * c);
            blocked_i16(zt, zr + k * sr, zo, r, c, c, k > 0);
        }
}

/* The mismatch scan at eps = 0 on the encoded m×n zo, the substitution's
 * running sum in clamp form, and zc, C: writes the (row, col) pair of each
 * cell where they differ, in row-major order, to cells, which holds 2·m·n
 * entries, and the largest residual of those cells (0.0 when there is
 * none) to *residual: +inf where either entry is an infinity, else the
 * |difference| (see the header).  Returns the number of pairs.  A first
 * pass over each row, in 32 lanes, finds its largest finite difference
 * and whether it misses at all; only a row that misses is listed, each of
 * its cells writing its pair at the next free slot and moving on only
 * when it misses, as mismatches does. */
static ptrdiff_t scan_i16(const int16_t *zo, const int16_t *zc, ptrdiff_t m, ptrdiff_t n, ptrdiff_t *cells,
                          double *residual)
{
    ptrdiff_t count = 0;
    int16_t worst = 0, infinite = 0;
    for (ptrdiff_t i = 0; i < m; i++) {
        const int16_t *o = zo + i * n, *e = zc + i * n;
        int16_t misses = 0;
        for (ptrdiff_t j = 0; j < n; j++) {
            int16_t v = o[j], w = e[j], d = v > w ? v - w : w - v; /* fits: v, w in [-2^14, 2^13] */
            int16_t finite = (v > I16_NEG) & (v < I16_POS) & (w > I16_NEG) & (w < I16_POS);
            misses |= d;
            infinite |= d & (finite - 1); /* a miss beside an infinity */
            d &= -finite;
            worst = d > worst ? d : worst;
        }
        if (misses)
            for (ptrdiff_t j = 0; j < n; j++) {
                cells[2 * count] = i;
                cells[2 * count + 1] = j;
                count += o[j] != e[j];
            }
    }
    *residual = infinite ? INFINITY : worst;
    return count;
}

/* The Sylvester solve ⊕_k a[k] ⊗ X ⊗ b[k] = c in one call, for
 * C-contiguous m×m a[k], n×n b[k] and m×n c: writes the principal solution
 * X̂ = −(⊕_k a[k]ᵀ ⊗ (−c) ⊗ b[k]ᵀ) to the m×n principal and the scan of its
 * substitution against c at eps = 0 to cells and *residual, as mismatches
 * writes them, and returns the number of cells.  A NULL a[k] or b[k] is
 * the unit, whose product is skipped.  Returns -1, with nothing written,
 * when an entry does not qualify (see the header), a term has neither
 * factor, the shape does not repay the tile or no scratch could be had.
 * With a NULL principal it is a query, which asks of a[k] and b[k] only
 * whether they are NULL: whether the terms and the shape pass and c's
 * first CHUNK entries qualify, which is where most data that does not
 * qualify shows it, so a caller can decline before it gathers the
 * factors; it returns 0 for yes and -1 for no.  Query and call weigh the
 * same products, so on data that qualifies they give one verdict. */
ptrdiff_t maxplus_solve(const double *const *a, const double *const *b, const double *c, double *principal,
                        ptrdiff_t *cells, double *residual, ptrdiff_t p, ptrdiff_t m, ptrdiff_t n)
{
    if (!solve_pays(a, b, p, m, n)) return -1;
    for (ptrdiff_t k = 0; k < p; k++)
        if (!a[k] && !b[k]) return -1;
    if (!principal) {
        int16_t head[CHUNK];
        return encode_i16(c, head, m * n < CHUNK ? m * n : CHUNK, I16_C) ? 0 : -1;
    }
    /* the thread's scratch: the p a[k], then the p b[k], each encoded on its
     * own 64-byte line, a NULL one's left unwritten, then five m×n arrays */
    ptrdiff_t sa = LINE(m * m, int16_t), sb = LINE(n * n, int16_t), sx = LINE(m * n, int16_t);
    int16_t *za = scratch((size_t)(p * (sa + sb) + 5 * sx) * sizeof(int16_t));
    if (!za) return -1;
    int16_t *zb = za + p * sa, *zc = zb + p * sb, *zx = zc + sx, *w = zx + sx;
    for (ptrdiff_t k = 0; k < p; k++)
        if ((a[k] && !encode_i16(a[k], za + k * sa, m * m, I16_FACTOR)) ||
            (b[k] && !encode_i16(b[k], zb + k * sb, n * n, I16_FACTOR)))
            return -1;
    if (!encode_i16(c, zc, m * n, I16_C)) return -1;
    /* X̂ᵀ = −(⊕_k (zb[k] ⊗ (−zcᵀ)) ⊗ za[k]) in three n×m arrays at w, then
     * X̂ in clamp form at zx */
    transpose_negate_i16(zc, w, m, n);
    sum_i16(b, zb, sb, a, za, sa, w, w + sx, w + 2 * sx, p, n, m);
    transpose_negate_i16(w + 2 * sx, zx, n, m);
    decode_i16(zx, principal, m * n);
    sum_i16(a, za, sa, b, zb, sb, zx, w, w + sx, p, m, n);
    clamp_i16(w + sx, m * n);
    return scan_i16(w + sx, zc, m, n, cells, residual);
}
