/* The compiled max-plus product: out = p ⊗ q for row-major float64 arrays,
 * out[i, j] = max_l (p[i, l] + q[l, j]).  ckernel.py builds and loads it.
 *
 * Each cell starts at -inf and takes a sum s only when s > cell.  A NaN
 * sum, which only -inf + +inf gives, loses every comparison, so the
 * max-plus zero absorbs (-inf ⊗ +inf = -inf) with no patch pass, and no
 * cell is ever NaN.  The max of the same sums is the same in any order
 * (no -0.0 reaches a product), so the blocking below changes no bit.  Every
 * sum is formed, and a finite one that overflows raises FE_OVERFLOW.
 * -ffast-math would break both rules; build without it.
 *
 * The columns of out fall into two bands, each held in register tiles
 * over passes of KB inner indices.  The wide band, the widest multiple of
 * 32 columns, takes 6×32 tiles: 24 accumulator vectors of 8 doubles, which
 * keep enough add-max chains in flight and still fit the 32 vector
 * registers of AVX-512.  The narrow band, the columns left, takes 8×8
 * tiles as far as whole ones fit, and a strip does the rest cell by cell.
 * Two bands because neither tile serves every width: 8×8 tiles keep only 8
 * chains in flight and run a 256³ product at a third of the speed, while
 * 6×32 tiles alone would leave outputs 8 to 31 wide to the strip, which
 * runs 128×128·8 at half the speed of 8×8 tiles.  The shapes were chosen
 * by measurement with gcc 12 (BENCH_10.json): 6×16 and 8×16 tiles ran
 * slower than 8×8.
 * Built for AVX2 (16 vector registers), gcc keeps the 6×32 accumulators
 * in L1 instead, and they still run 4 to 5 times faster than 8×8 tiles.
 */
#include <fenv.h>
#include <math.h>
#include <stddef.h>

#define WR 6     /* rows of p per wide-band register tile */
#define WJ 32    /* columns of q per wide-band register tile */
#define RB 8     /* rows of p per narrow-band register tile */
#define JB 8     /* columns of q per narrow-band register tile */
#define KB 256   /* inner indices per pass, so a pass's rows of q stay in cache */
#define LANES 16 /* independent maxima per row when n == 1 */

static inline double mp_max(double s, double o) { return s > o ? s : o; }

/* n == 1: one chain of maxima per row would wait on each comparison, so
 * LANES chains run side by side and meet at the end. */
static void matvec(const double *p, const double *q, double *out, ptrdiff_t m, ptrdiff_t k)
{
    for (ptrdiff_t i = 0; i < m; i++) {
        const double *row = p + i * k;
        double acc[LANES];
        for (int t = 0; t < LANES; t++) acc[t] = -INFINITY;
        ptrdiff_t l = 0;
        for (; l + LANES <= k; l += LANES)
            for (int t = 0; t < LANES; t++) acc[t] = mp_max(row[l + t] + q[l + t], acc[t]);
        double o = -INFINITY;
        for (; l < k; l++) o = mp_max(row[l] + q[l], o);
        for (int t = 0; t < LANES; t++) o = mp_max(acc[t], o);
        out[i] = o;
    }
}

/* One WR×WJ block of out, held in registers over inner indices [l0, l1). */
static void tile_wide(const double *p, const double *q, double *out, ptrdiff_t k, ptrdiff_t n,
                      ptrdiff_t l0, ptrdiff_t l1)
{
    double acc[WR][WJ];
    for (int r = 0; r < WR; r++)
        for (int j = 0; j < WJ; j++) acc[r][j] = out[r * n + j];
    for (ptrdiff_t l = l0; l < l1; l++) {
        const double *b = q + l * n;
        for (int r = 0; r < WR; r++) {
            double a = p[r * k + l];
            for (int j = 0; j < WJ; j++) acc[r][j] = mp_max(a + b[j], acc[r][j]);
        }
    }
    for (int r = 0; r < WR; r++)
        for (int j = 0; j < WJ; j++) out[r * n + j] = acc[r][j];
}

/* One RB×JB block of out, held in registers over inner indices [l0, l1). */
static void tile(const double *p, const double *q, double *out, ptrdiff_t k, ptrdiff_t n,
                 ptrdiff_t l0, ptrdiff_t l1)
{
    double acc[RB][JB];
    for (int r = 0; r < RB; r++)
        for (int j = 0; j < JB; j++) acc[r][j] = out[r * n + j];
    for (ptrdiff_t l = l0; l < l1; l++) {
        const double *b = q + l * n;
        for (int r = 0; r < RB; r++) {
            double a = p[r * k + l];
            for (int j = 0; j < JB; j++) acc[r][j] = mp_max(a + b[j], acc[r][j]);
        }
    }
    for (int r = 0; r < RB; r++)
        for (int j = 0; j < JB; j++) out[r * n + j] = acc[r][j];
}

/* The cells that fill no whole tile: columns [j0, j1) of `rows` rows. */
static void strip(const double *p, const double *q, double *out, ptrdiff_t rows, ptrdiff_t k,
                  ptrdiff_t n, ptrdiff_t j0, ptrdiff_t j1, ptrdiff_t l0, ptrdiff_t l1)
{
    for (ptrdiff_t r = 0; r < rows; r++)
        for (ptrdiff_t l = l0; l < l1; l++) {
            double a = p[r * k + l];
            const double *b = q + l * n;
            double *o = out + r * n;
            for (ptrdiff_t j = j0; j < j1; j++) o[j] = mp_max(a + b[j], o[j]);
        }
}

/* p is m×k, q is k×n, out is m×n, all C-contiguous.
 * Returns 1 when a finite sum overflowed, else 0. */
int maxplus_product(const double *p, const double *q, double *out, ptrdiff_t m, ptrdiff_t k,
                    ptrdiff_t n)
{
    feclearexcept(FE_OVERFLOW);
    if (n == 1) {
        matvec(p, q, out, m, k);
    } else {
        for (ptrdiff_t c = 0; c < m * n; c++) out[c] = -INFINITY;
        /* wide band: columns [0, nw) in WR-row tiles; narrow band: [nw, n) */
        ptrdiff_t nw = n - n % WJ, nt = n - n % JB;
        ptrdiff_t mw = m - m % WR, mt = m - m % RB;
        for (ptrdiff_t l0 = 0; l0 < k; l0 += KB) {
            ptrdiff_t l1 = l0 + KB < k ? l0 + KB : k;
            for (ptrdiff_t i = 0; i < mw; i += WR)
                for (ptrdiff_t j = 0; j < nw; j += WJ)
                    tile_wide(p + i * k, q + j, out + i * n + j, k, n, l0, l1);
            strip(p + mw * k, q, out + mw * n, m - mw, k, n, 0, nw, l0, l1);
            for (ptrdiff_t i = 0; i < mt; i += RB) {
                for (ptrdiff_t j = nw; j < nt; j += JB)
                    tile(p + i * k, q + j, out + i * n + j, k, n, l0, l1);
                strip(p + i * k, q, out + i * n, RB, k, n, nt, n, l0, l1);
            }
            strip(p + mt * k, q, out + mt * n, m - mt, k, n, nw, n, l0, l1);
        }
    }
    return fetestexcept(FE_OVERFLOW) != 0;
}
