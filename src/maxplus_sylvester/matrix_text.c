/* Matrix text in C: a scanner for a strict subset of the file format and a
 * formatter for matrices whose entries are all integers or infinities.
 * ckernel.py builds this file into one library with maxplus_product.c and
 * binds both functions; instance_io.py calls them.  Whatever they decline
 * goes to the Python parser or to format_scalar, which stay the one
 * definition of the grammar, of every error message and of the output.
 *
 * The scanner takes a header "R C" of digits only, both positive, then R
 * rows of C tokens separated by single spaces.  A token is [+-]?[0-9]{1,15}
 * or [+-]?(inf|infinity) in any case.  Lines end in \n or at the end of the
 * text, and empty lines are skipped.  Any other byte (a '#' comment, \r, a
 * tab, '.', 'e', '_'), a literal of more than 15 digits, a space that does
 * not separate two tokens, or a count that differs from the header's
 * declines the whole text.  Fifteen digits stay below 2**53, so a literal
 * is an exact integer that converts to the double Python's float gives;
 * "-0" reads as +0.0, which is what TropicalMatrix makes of float's -0.0.
 * There is no strtod, whose decimal point follows LC_NUMERIC.
 *
 * The formatter writes integers below 2**53 in magnitude as digits and the
 * infinities as -inf and +inf.  Any other entry declines the matrix: only
 * Python's repr gives the shortest form that reads back to the same double.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define MAX_DIGITS 15

static int is_digit(char c) { return c >= '0' && c <= '9'; }

/* The unsigned literal of 1 to MAX_DIGITS digits at *p, which moves past it;
 * -1 when there is none or it is longer. */
static int64_t literal(const char **p, const char *end)
{
    const char *s = *p;
    int64_t v = 0;
    for (; s < end && is_digit(*s); s++) {
        if (s - *p == MAX_DIGITS) return -1;
        v = v * 10 + (*s - '0');
    }
    if (s == *p) return -1;
    *p = s;
    return v;
}

/* Whether the n bytes at p spell the lower-case word w in any case. */
static int spells(const char *p, const char *end, const char *w, ptrdiff_t n)
{
    if (end - p < n) return 0;
    for (ptrdiff_t i = 0; i < n; i++)
        if ((p[i] | 0x20) != w[i]) return 0;
    return 1;
}

/* The token at *p into *value; *p moves past it.  Returns 0, or 1 when the
 * token is outside the subset or runs into a byte other than ' ' or \n. */
static int token(const char **p, const char *end, double *value)
{
    const char *s = *p;
    int neg = s < end && *s == '-';
    if (s < end && (*s == '-' || *s == '+')) s++;
    if (spells(s, end, "inf", 3)) {
        s += spells(s, end, "infinity", 8) ? 8 : 3;
        *value = neg ? -INFINITY : INFINITY;
    } else {
        int64_t v = literal(&s, end);
        if (v < 0) return 1;
        *value = (double)(neg ? -v : v);
    }
    *p = s;
    return s < end && *s != ' ' && *s != '\n';
}

static const char *skip_empty_lines(const char *p, const char *end)
{
    while (p < end && *p == '\n') p++;
    return p;
}

/* Reads the header of the len bytes at s into dims (rows, cols), then, when
 * out is not NULL, the rows × cols entries into out, row-major.  Returns 0,
 * or 1 to decline the text.  A header that declares more entries than the
 * text has bytes declines before out is written, so the caller may size out
 * from dims after a first call with out NULL. */
int scan_matrix(const char *s, ptrdiff_t len, ptrdiff_t *dims, double *out)
{
    const char *end = s + len, *p = skip_empty_lines(s, end);
    int64_t rows = literal(&p, end);
    if (rows < 1 || p == end || *p++ != ' ') return 1;
    int64_t cols = literal(&p, end);
    if (cols < 1 || cols > len / rows || (p < end && *p++ != '\n')) return 1;
    dims[0] = rows;
    dims[1] = cols;
    if (out == NULL) return 0;
    for (int64_t r = 0; r < rows; r++) {
        p = skip_empty_lines(p, end);
        if (p == end) return 1;
        for (int64_t c = 0; c < cols; c++) {
            if (token(&p, end, out++)) return 1;
            /* a space comes between two tokens; \n or the end of the text ends a row */
            if ((p < end && *p == ' ') != (c < cols - 1)) return 1;
            p += p < end;
        }
    }
    return skip_empty_lines(p, end) != end;
}

/* v in decimal, with a '-' when negative, at p; returns the end of what it wrote. */
static char *put_int(char *p, int64_t v)
{
    char digits[20];
    int n = 0;
    uint64_t u = v < 0 ? -(uint64_t)v : (uint64_t)v;
    if (v < 0) *p++ = '-';
    do digits[n++] = (char)('0' + u % 10); while (u /= 10);
    while (n) *p++ = digits[--n];
    return p;
}

/* Writes "rows cols\n" and then each row of the row-major rows × cols matrix
 * a as its entries joined by single spaces and ended by \n.  buf must hold
 * 40 + 18 * rows * cols bytes.  Returns the length written, or -1 when an
 * entry is neither an integer below 2**53 in magnitude nor an infinity. */
ptrdiff_t write_matrix(const double *a, ptrdiff_t rows, ptrdiff_t cols, char *buf)
{
    char *p = put_int(buf, rows);
    *p++ = ' ';
    p = put_int(p, cols);
    *p++ = '\n';
    for (ptrdiff_t r = 0; r < rows; r++)
        for (ptrdiff_t c = 0; c < cols; c++) {
            double x = *a++;
            if (fabs(x) < 0x1p53 && x == trunc(x)) {
                p = put_int(p, (int64_t)x);
            } else if (isinf(x)) {
                *p++ = x < 0 ? '-' : '+';
                *p++ = 'i';
                *p++ = 'n';
                *p++ = 'f';
            } else {
                return -1;
            }
            *p++ = c == cols - 1 ? '\n' : ' ';
        }
    return p - buf;
}
