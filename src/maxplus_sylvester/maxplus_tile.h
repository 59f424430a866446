/* The blocked max-plus product over one element type, included by
 * maxplus_product.c once per type: double (6×32 cells, BOTTOM -inf) and
 * int16 (6×128, -2^14), each tile 24 AVX-512 registers of accumulators,
 * which the includer's pragma keeps at 512 bits.
 * The includer defines T, the element type; WJ, the columns of q per
 * register tile; BOTTOM, the value that pads a block and starts a cell;
 * and NAME(f), which gives each function the type's suffix.  WR and KB are
 * the includer's, shared by both types.  An integer sum is formed in int
 * and stored as T, so the includer must keep every sum of two operands,
 * BOTTOM among them, within T: for int16 the sentinels -2^14 and 2^13 give
 * sums in [-2^15, 2^14].  See maxplus_product.c for the tile, the padding,
 * the two instances, the int16 codes and their proofs.
 */

/* One WR×WJ block of out, held in registers over kl inner indices; p, q
 * and out have row strides ps, qs and os.  Not inlined: inside the block
 * loops gcc 12 spills accumulators to the stack. */
__attribute__((noinline)) static void NAME(tile)(const T *p, ptrdiff_t ps, const T *q, ptrdiff_t qs,
                                                 T *out, ptrdiff_t os, ptrdiff_t kl)
{
    T acc[WR][WJ];
    for (int r = 0; r < WR; r++)
        for (int j = 0; j < WJ; j++) acc[r][j] = out[r * os + j];
    for (ptrdiff_t l = 0; l < kl; l++) {
        const T *b = q + l * qs;
        for (int r = 0; r < WR; r++) {
            T a = p[r * ps + l];
            for (int j = 0; j < WJ; j++) {
                T s = a + b[j];
                acc[r][j] = s > acc[r][j] ? s : acc[r][j];
            }
        }
    }
    for (int r = 0; r < WR; r++)
        for (int j = 0; j < WJ; j++) out[r * os + j] = acc[r][j];
}

/* Writes rows × cols cells of dst (row stride ds): src's cells (row stride
 * ss) where r < sr and c < sc, BOTTOM elsewhere. */
static void NAME(pad)(T *dst, ptrdiff_t ds, ptrdiff_t rows, ptrdiff_t cols, const T *src, ptrdiff_t ss,
                      ptrdiff_t sr, ptrdiff_t sc)
{
    for (ptrdiff_t r = 0; r < rows; r++)
        for (ptrdiff_t c = 0; c < cols; c++)
            dst[r * ds + c] = r < sr && c < sc ? src[r * ss + c] : BOTTOM;
}

/* out = p ⊗ q, or out ⊕ (p ⊗ q) with accumulate set, for C-contiguous
 * m×k p, k×n q and m×n out, by register tiles over passes of KB inner
 * indices. */
static void NAME(blocked)(const T *p, const T *q, T *out, ptrdiff_t m, ptrdiff_t k, ptrdiff_t n,
                          int accumulate)
{
    T pp[WR * KB], qq[KB * WJ], oo[WR * WJ]; /* padded edges of p, q and out */
    if (!accumulate)
        for (ptrdiff_t c = 0; c < m * n; c++) out[c] = BOTTOM;
    ptrdiff_t mw = m - m % WR, nw = n - n % WJ;
    for (ptrdiff_t l0 = 0; l0 < k; l0 += KB) {
        ptrdiff_t kl = k - l0 < KB ? k - l0 : KB;
        if (mw < m) NAME(pad)(pp, KB, WR, kl, p + mw * k + l0, k, m - mw, kl);
        if (nw < n) NAME(pad)(qq, WJ, kl, WJ, q + l0 * n + nw, n, kl, n - nw);
        for (ptrdiff_t i = 0; i < m; i += WR)
            for (ptrdiff_t j = 0; j < n; j += WJ) {
                int wr = i < mw, wc = j < nw; /* whole rows, whole columns */
                const T *a = wr ? p + i * k + l0 : pp, *b = wc ? q + l0 * n + j : qq;
                T *o = out + i * n + j;
                if (wr && wc) {
                    NAME(tile)(a, k, b, n, o, n, kl);
                } else {
                    ptrdiff_t rows = wr ? WR : m - mw, cols = wc ? WJ : n - nw;
                    NAME(pad)(oo, WJ, WR, WJ, o, n, rows, cols);
                    NAME(tile)(a, wr ? k : KB, b, wc ? n : WJ, oo, WJ, kl);
                    NAME(pad)(o, n, rows, cols, oo, WJ, rows, cols);
                }
            }
    }
}

#undef T
#undef WJ
#undef BOTTOM
#undef NAME
