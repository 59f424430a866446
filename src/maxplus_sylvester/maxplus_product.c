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
 * One 6×32 register tile serves every block of out, over passes of KB inner
 * indices: its 24 accumulator vectors of 8 doubles keep enough add-max
 * chains in flight and fit AVX-512's 32 vector registers (BENCH_10.json;
 * built for AVX2, gcc keeps them in L1).  Blocks past the last multiple of
 * 6 rows or of 32 columns run the tile on stack copies padded with -inf,
 * about 78 KiB: the pass's slice of the last rows of p and of the last
 * columns of q, and the block of out, whose real cells alone are copied
 * back.  A padded sum is -inf or NaN, which never raises FE_OVERFLOW, and
 * each real cell still takes exactly its own sums.  Products of 2 to 5
 * rows cost up to 6 times the work; the solvers form such products only
 * when C has fewer than 6 rows.  A single row or a single column never
 * reaches the tile: m == 1 and n == 1 take the loops below.
 */
#include <fenv.h>
#include <math.h>
#include <stddef.h>

#define WR 6     /* rows of p per register tile */
#define WJ 32    /* columns of q per register tile */
#define KB 256   /* inner indices per pass, so a pass's rows of q stay in cache */
#define LANES 16 /* independent maxima per row when n == 1 */

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

/* One WR×WJ block of out, held in registers over kl inner indices; p, q
 * and out have row strides ps, qs and os.  Not inlined: inside the block
 * loops gcc 12 spills accumulators to the stack. */
__attribute__((noinline)) static void tile(const double *p, ptrdiff_t ps, const double *q,
                                           ptrdiff_t qs, double *out, ptrdiff_t os, ptrdiff_t kl)
{
    double acc[WR][WJ];
    for (int r = 0; r < WR; r++)
        for (int j = 0; j < WJ; j++) acc[r][j] = out[r * os + j];
    for (ptrdiff_t l = 0; l < kl; l++) {
        const double *b = q + l * qs;
        for (int r = 0; r < WR; r++) {
            double a = p[r * ps + l];
            for (int j = 0; j < WJ; j++) acc[r][j] = mp_max(a + b[j], acc[r][j]);
        }
    }
    for (int r = 0; r < WR; r++)
        for (int j = 0; j < WJ; j++) out[r * os + j] = acc[r][j];
}

/* Writes rows × cols cells of dst (row stride ds): src's cells (row stride
 * ss) where r < sr and c < sc, -inf elsewhere. */
static void pad(double *dst, ptrdiff_t ds, ptrdiff_t rows, ptrdiff_t cols, const double *src,
                ptrdiff_t ss, ptrdiff_t sr, ptrdiff_t sc)
{
    for (ptrdiff_t r = 0; r < rows; r++)
        for (ptrdiff_t c = 0; c < cols; c++)
            dst[r * ds + c] = r < sr && c < sc ? src[r * ss + c] : -INFINITY;
}

/* p is m×k, q is k×n, out is m×n, all C-contiguous.  With accumulate set,
 * out's own values are the start instead of -inf.  Returns 1 when a finite
 * sum overflowed, else 0; out is then partly updated. */
int maxplus_product(const double *p, const double *q, double *out, ptrdiff_t m, ptrdiff_t k,
                    ptrdiff_t n, int accumulate)
{
    feclearexcept(FE_OVERFLOW);
    if (n == 1) {
        matvec(p, q, out, m, k, accumulate);
        return fetestexcept(FE_OVERFLOW) != 0;
    }
    if (m == 1) {
        vecmat(p, q, out, k, n, accumulate);
        return fetestexcept(FE_OVERFLOW) != 0;
    }
    double pp[WR * KB], qq[KB * WJ], oo[WR * WJ]; /* padded edges of p, q and out */
    if (!accumulate)
        for (ptrdiff_t c = 0; c < m * n; c++) out[c] = -INFINITY;
    ptrdiff_t mw = m - m % WR, nw = n - n % WJ;
    for (ptrdiff_t l0 = 0; l0 < k; l0 += KB) {
        ptrdiff_t kl = k - l0 < KB ? k - l0 : KB;
        if (mw < m) pad(pp, KB, WR, kl, p + mw * k + l0, k, m - mw, kl);
        if (nw < n) pad(qq, WJ, kl, WJ, q + l0 * n + nw, n, kl, n - nw);
        for (ptrdiff_t i = 0; i < m; i += WR)
            for (ptrdiff_t j = 0; j < n; j += WJ) {
                int wr = i < mw, wc = j < nw; /* whole rows, whole columns */
                const double *a = wr ? p + i * k + l0 : pp, *b = wc ? q + l0 * n + j : qq;
                double *o = out + i * n + j;
                if (wr && wc) {
                    tile(a, k, b, n, o, n, kl);
                } else {
                    ptrdiff_t rows = wr ? WR : m - mw, cols = wc ? WJ : n - nw;
                    pad(oo, WJ, WR, WJ, o, n, rows, cols);
                    tile(a, wr ? k : KB, b, wc ? n : WJ, oo, WJ, kl);
                    pad(o, n, rows, cols, oo, WJ, rows, cols);
                }
            }
    }
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
