/* The solver's two passes besides its products, in C: the scale and
 * integrality of one matrix, which effective_tolerance reads, and the
 * mismatch scan of matrix_mismatches.  ckernel.py builds this file into one
 * library with maxplus_product.c and binds both functions; solver.py calls
 * them and keeps its numpy passes as the definition and the bit reference.
 *
 * Each result is exactly the numpy pass's: the scale and the residual are
 * entries or differences kept by comparison, and the integer test is exact.
 * Both passes follow the numpy pass's infinity rules through IEEE
 * arithmetic and comparisons, which -ffast-math would break; build without
 * it.  No NaN is ever an entry.
 */
#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* 2 (x87) and -1 would let a double sum keep excess precision */
#if FLT_EVAL_METHOD == 2 || FLT_EVAL_METHOD < 0
#error "finite_scale needs each double sum rounded to double"
#endif

/* n doubles of a: the largest finite |entry| (0.0 when there is none) goes
 * to *scale.  Returns 1 when every finite entry is an integer, else 0.
 *
 * The loop has no branch and no call, so gcc vectorises it without
 * -ffast-math.  The scale is kept as the bits of |entry|, which order as
 * the values do, with infinities masked to 0.  A magnitude y below 2**52
 * is an integer exactly when (y + 2**52) - 2**52, which rounds y to an
 * integer, gives y back; every double from 2**52 up is an integer, and an
 * infinity counts as one, as it equals its floor. */
int finite_scale(const double *a, ptrdiff_t n, double *scale)
{
    const uint64_t inf = 0x7ff0000000000000u;
    const double big = 4503599627370496.0; /* 2**52 */
    uint64_t top = 0, frac = 0;
    for (ptrdiff_t i = 0; i < n; i++) {
        double y = fabs(a[i]);
        uint64_t u;
        memcpy(&u, &y, sizeof u);
        u &= -(uint64_t)(u < inf);
        top = u > top ? u : top;
        frac |= (y < big) & ((y + big) - big != y);
    }
    memcpy(scale, &top, sizeof top);
    return frac == 0;
}

/* l and r are rows×cols, C-contiguous.  Writes the (row, col) pair of each
 * cell where !(l == r || |l − r| <= eps), in row-major order, to cells,
 * which holds 2·rows·cols entries, and the largest |l − r| of those cells
 * (0.0 when there is none) to *residual.  Returns the number of pairs.
 * Equal infinities give a NaN difference but match as l == r; differing
 * ones, and finite pairs too far apart for a double, give +inf.  Each cell
 * writes its pair at the next free slot and moves on only when it
 * mismatches, so the loop has no branch to mispredict. */
ptrdiff_t mismatches(const double *l, const double *r, ptrdiff_t rows, ptrdiff_t cols, double eps,
                     ptrdiff_t *cells, double *residual)
{
    ptrdiff_t count = 0;
    double res = 0.0;
    for (ptrdiff_t i = 0; i < rows; i++) {
        const double *a = l + i * cols, *b = r + i * cols;
        for (ptrdiff_t j = 0; j < cols; j++) {
            double d = fabs(a[j] - b[j]);
            int bad = !(a[j] == b[j] || d <= eps);
            cells[2 * count] = i;
            cells[2 * count + 1] = j;
            res = bad && d > res ? d : res;
            count += bad;
        }
    }
    *residual = res;
    return count;
}
