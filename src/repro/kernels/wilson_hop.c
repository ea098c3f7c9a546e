/* The compiled kernel tier ("c"): the lattice-last Wilson 8-hop core and the
 * packed site-diagonal tail, for complex128 and complex64.
 *
 * Built and loaded by repro/kernels/c_backend.py.  Every function evaluates,
 * site by site, the IEEE operation sequence of the NumPy body it stands in
 * for (WilsonCloverOperator._hop_sites / _apply_sites), so the results are
 * equal bit for bit.  Two facts carry that:
 *
 *   - NumPy's complex multiply loop is fused: a * b is
 *         re = fma(ar, br, -(ai * bi)),   im = fma(ar, bi, ai * br)
 *     with `a` the first operand.  CMUL_RE / CMUL_IM spell it out and the
 *     build passes -ffp-contract=off so the compiler adds no fusion of its
 *     own.  Every product here goes through them with the operands in
 *     NumPy's order -- the +-1 / +-i projector phases included, because the
 *     general form also decides the sign of a zero.
 *   - everything else is adds, negations and copies, done in NumPy's order:
 *     (p0 + p1) + p2 for the colour sum, upper/lower accumulation hop by
 *     hop, mu = 0..3, forward before backward.
 *
 * Fields are C-contiguous (spin, color, batch, lane, T, Z, Y, X) complex,
 * links (2, mu, b, a, lane, T, Z, Y, X).  A run of whole (Y, X) planes is
 * the vector unit: its data is split into real and imaginary scratch arrays
 * so the loops below are plain loops over `i` that gcc vectorises.  No static or
 * global mutable state: callers on several threads run concurrently.
 *
 * The file includes itself, by name, once per precision.
 */
#ifndef REAL

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define CMUL_RE(ar, ai, br, bi) FMA((ar), (br), -((ai) * (bi)))
#define CMUL_IM(ar, ai, br, bi) FMA((ar), (bi), (ai) * (br))

enum { PERIODIC = 0, ANTIPERIODIC = 1, ZERO = 2 };

#define REAL double
#define FMA fma
#define NAME(f) f##_c128
#include "wilson_hop.c"
#undef REAL
#undef FMA
#undef NAME

#define REAL float
#define FMA fmaf
#define NAME(f) f##_c64
#include "wilson_hop.c"

#else /* the per-precision body */

/* out = a * b elementwise on interleaved complex arrays: what the load-time
 * probe compares with np.multiply. */
void NAME(repro_multiply)(int64_t n, const REAL *a, const REAL *b, REAL *out)
{
    for (int64_t i = 0; i < n; i++) {
        REAL ar = a[2 * i], ai = a[2 * i + 1];
        REAL br = b[2 * i], bi = b[2 * i + 1];
        out[2 * i] = CMUL_RE(ar, ai, br, bi);
        out[2 * i + 1] = CMUL_IM(ar, ai, br, bi);
    }
}

/* The boundary factor of a hop that crossed the lattice edge, on n reals. */
static void NAME(cross)(REAL *restrict v, int64_t n, int bc)
{
    if (bc == ZERO)
        for (int64_t i = 0; i < n; i++) v[i] = 0;
    else if (bc == ANTIPERIODIC)
        for (int64_t i = 0; i < n; i++) v[i] = -v[i];
}

/* dst[site] = src[site + step] for the 12 arrays of a half-spinor inside one
 * unit of U sites, step = +-1 along an axis of extent n whose sites are d
 * apart: one shifted copy, then the sites whose neighbour wrapped, with the
 * boundary factor shift_sites applies there. */
static void NAME(shift_unit)(REAL *restrict dst, const REAL *restrict src,
                             int64_t U, int64_t d, int64_t n, int forward,
                             int bc)
{
    const int64_t span = (n - 1) * d;
    for (int k = 0; k < 12; k++, dst += U, src += U) {
        if (forward)
            for (int64_t i = 0; i + d < U; i++) dst[i] = src[i + d];
        else
            for (int64_t i = d; i < U; i++) dst[i] = src[i - d];
        /* wrapped: the last sites along the axis forward, the first backward */
        for (int64_t q = 0; q < U; q += n * d)
            for (int64_t lo = q; lo < q + d; lo++) {
                REAL v = forward ? src[lo] : src[lo + span];
                if (bc == ZERO) v = 0;
                else if (bc == ANTIPERIODIC) v = -v;
                dst[forward ? lo + span : lo] = v;
            }
    }
}

/* h[s][c] = x[s][c] + coeff[s] * x[lower[s]][c] for the two upper spins, from
 * one plane of an interleaved field (component stride cs reals) into split
 * scratch h[((s * 3 + c) * 2 + part) * P]. */
static void NAME(project)(const REAL *restrict x, int64_t cs, int64_t P,
                          const int32_t *spins, const REAL *coef,
                          REAL *restrict h)
{
    for (int s = 0; s < 2; s++) {
        const REAL cr = coef[2 * s], ci = coef[2 * s + 1];
        for (int c = 0; c < 3; c++) {
            const REAL *restrict up = x + (s * 3 + c) * cs;
            const REAL *restrict lo = x + (spins[s] * 3 + c) * cs;
            REAL *restrict hr = h + ((s * 3 + c) * 2) * P;
            REAL *restrict hi = hr + P;
            for (int64_t i = 0; i < P; i++) {
                REAL lr = lo[2 * i], li = lo[2 * i + 1];
                hr[i] = up[2 * i] + CMUL_RE(cr, ci, lr, li);
                hi[i] = up[2 * i + 1] + CMUL_IM(cr, ci, lr, li);
            }
        }
    }
}

/* hop[s][a] = (h[s][0] u[0][a] + h[s][1] u[1][a]) + h[s][2] u[2][a] with the
 * links of one plane (interleaved, element stride ls reals). */
static void NAME(link_apply)(const REAL *restrict h, const REAL *restrict u,
                             int64_t ls, int64_t P, REAL *restrict hop)
{
    for (int a = 0; a < 3; a++) {
        const REAL *restrict u0 = u + (0 * 3 + a) * ls;
        const REAL *restrict u1 = u + (1 * 3 + a) * ls;
        const REAL *restrict u2 = u + (2 * 3 + a) * ls;
        for (int s = 0; s < 2; s++) {
            const REAL *restrict h0r = h + ((s * 3 + 0) * 2) * P;
            const REAL *restrict h1r = h + ((s * 3 + 1) * 2) * P;
            const REAL *restrict h2r = h + ((s * 3 + 2) * 2) * P;
            const REAL *restrict h0i = h0r + P, *restrict h1i = h1r + P,
                       *restrict h2i = h2r + P;
            REAL *restrict outr = hop + ((s * 3 + a) * 2) * P;
            REAL *restrict outi = outr + P;
            for (int64_t i = 0; i < P; i++) {
                REAL ar = u0[2 * i], ai = u0[2 * i + 1];
                REAL br = u1[2 * i], bi = u1[2 * i + 1];
                REAL cr = u2[2 * i], ci = u2[2 * i + 1];
                REAL re = CMUL_RE(h0r[i], h0i[i], ar, ai);
                REAL im = CMUL_IM(h0r[i], h0i[i], ar, ai);
                re += CMUL_RE(h1r[i], h1i[i], br, bi);
                im += CMUL_IM(h1r[i], h1i[i], br, bi);
                re += CMUL_RE(h2r[i], h2i[i], cr, ci);
                im += CMUL_IM(h2r[i], h2i[i], cr, ci);
                outr[i] = re;
                outi[i] = im;
            }
        }
    }
}

/* upper += hop; lower[s] += coeff[s] * hop[source[s]]. */
static void NAME(accumulate)(const REAL *restrict hop, int64_t P,
                             const int32_t *spins, const REAL *coef,
                             REAL *restrict acc)
{
    for (int64_t i = 0; i < 12 * P; i++) acc[i] += hop[i];
    for (int s = 0; s < 2; s++) {
        const REAL cr = coef[2 * s], ci = coef[2 * s + 1];
        for (int c = 0; c < 3; c++) {
            const REAL *restrict hr = hop + ((spins[s] * 3 + c) * 2) * P;
            const REAL *restrict hi = hr + P;
            REAL *restrict ar = acc + (((2 + s) * 3 + c) * 2) * P;
            REAL *restrict ai = ar + P;
            for (int64_t i = 0; i < P; i++) {
                ar[i] += CMUL_RE(cr, ci, hr[i], hi[i]);
                ai[i] += CMUL_IM(cr, ci, hr[i], hi[i]);
            }
        }
    }
}

/* The 8-hop stencil core.  `spins` is (8, 4) int32 -- per hop (mu forward,
 * mu backward, ...) the two lower spins the projection reads and the two
 * half-spinor rows the reconstruction reads -- and `coef` (8, 4) complex:
 * the two projection and the two reconstruction phases.  bc[mu] is the
 * boundary code.  Returns nonzero when the scratch cannot be had.
 *
 * The lattice is walked in units: the (Y, X) plane, grown by Z and then T
 * while the unit's scratch (48 reals a site) stays near the L1 cache, so
 * small blocks are not all loop overhead.  A hop along an axis inside the
 * unit is a shift within it; along an outer axis it reads another unit. */
int NAME(repro_wilson_hop)(const REAL *x, const REAL *links, REAL *out,
                           const int32_t *spins, const REAL *coef,
                           int64_t nb, int64_t nl, int64_t T, int64_t Z,
                           int64_t Y, int64_t X, const int32_t *bc)
{
    const int64_t n[4] = {X, Y, Z, T};
    const int64_t V = T * Z * Y * X;
    int inner = 2; /* axes mu < inner lie inside the unit */
    int64_t U = X * Y;
    while (inner < 4 && U * n[inner] * sizeof(REAL) <= 1024) U *= n[inner++];
    const int64_t units = V / U;
    const int64_t cs = 2 * nb * nl * V; /* field component stride, reals */
    const int64_t ls = 2 * nl * V;      /* link element stride, reals */
    REAL *scratch = malloc((size_t)(48 * U) * sizeof(REAL));
    if (!scratch) return 1;
    REAL *h = scratch, *g = h + 12 * U, *acc = g + 12 * U;

    for (int64_t b = 0; b < nb; b++)
    for (int64_t l = 0; l < nl; l++) {
        const REAL *xb = x + 2 * (b * nl + l) * V;
        const REAL *ul = links + 2 * l * V;
        REAL *ob = out + 2 * (b * nl + l) * V;
        for (int64_t unit = 0; unit < units; unit++) {
            const int64_t here = unit * U;
            memset(acc, 0, (size_t)(24 * U) * sizeof(REAL));
            for (int hop = 0; hop < 8; hop++) {
                const int mu = hop / 2, forward = !(hop % 2);
                const int32_t *sp = spins + 4 * hop;
                const REAL *cf = coef + 8 * hop;
                /* where the hop reads from: this unit (shifted within), or
                 * the neighbouring one, perhaps across the lattice edge */
                int64_t from = here, d = 1;
                int crossed = 0;
                if (mu < inner) {
                    for (int nu = 0; nu < mu; nu++) d *= n[nu];
                } else {
                    for (int nu = inner; nu < mu; nu++) d *= n[nu];
                    int64_t at = unit / d % n[mu] + (forward ? 1 : -1);
                    crossed = at < 0 || at == n[mu];
                    from += (forward ? 1 : -1) * (crossed ? 1 - n[mu] : 1)
                        * d * U;
                }
                const REAL *u = ul + ((forward ? 0 : 4) + mu) * 9 * ls;
                REAL *result;
                NAME(project)(xb + 2 * from, cs, U, sp, cf, h);
                if (forward) {
                    /* U(x) [P psi](x + mu): shift, then multiply */
                    if (mu < inner) {
                        NAME(shift_unit)(g, h, U, d, n[mu], 1, bc[mu]);
                        NAME(link_apply)(g, u + 2 * here, ls, U, result = h);
                    } else {
                        if (crossed) NAME(cross)(h, 12 * U, bc[mu]);
                        NAME(link_apply)(h, u + 2 * here, ls, U, result = g);
                    }
                } else {
                    /* U(x - mu)^+ [P psi](x - mu): multiply, then shift */
                    NAME(link_apply)(h, u + 2 * from, ls, U, result = g);
                    if (mu < inner)
                        NAME(shift_unit)(result = h, g, U, d, n[mu], 0, bc[mu]);
                    else if (crossed)
                        NAME(cross)(g, 12 * U, bc[mu]);
                }
                NAME(accumulate)(result, U, sp + 2, cf + 4, acc);
            }
            for (int k = 0; k < 12; k++) {
                const REAL *restrict ar = acc + 2 * k * U;
                const REAL *restrict ai = ar + U;
                REAL *restrict o = ob + k * cs + 2 * here;
                for (int64_t i = 0; i < U; i++) {
                    o[2 * i] = ar[i];
                    o[2 * i + 1] = ai[i];
                }
            }
        }
    }
    free(scratch);
    return 0;
}

/* The packed tail of _apply_sites on interleaved fields of nb * V sites:
 *     out *= -0.5;  out += diag * x;
 *     per chirality, column by column:  out6[c] += chiral[c, :, j] * x6[c, j]
 * `chiral` is (2, 6, 6, V) complex, broadcast over the nb batch lanes, or
 * NULL for no clover term.  Sites go in chunks that keep a row's operands
 * in cache across its seven passes. */
void NAME(repro_wilson_tail)(REAL *out, const REAL *x, const REAL *chiral,
                             double diag, int64_t nb, int64_t V)
{
    const REAL d = (REAL)diag, half = (REAL)-0.5, zero = 0;
    const int64_t cs = 2 * nb * V, chunk = 256;
    for (int64_t b = 0; b < nb; b++)
    for (int64_t lo = 0; lo < V; lo += chunk) {
        const int64_t n = V - lo < chunk ? V - lo : chunk;
        const int64_t at = 2 * (b * V + lo);
        for (int k = 0; k < 12; k++) {
            const int c = k / 6, row = k % 6;
            REAL *restrict o = out + k * cs + at;
            const REAL *restrict xk = x + k * cs + at;
            for (int64_t i = 0; i < n; i++) {
                REAL re = o[2 * i], im = o[2 * i + 1];
                REAL xr = xk[2 * i], xi = xk[2 * i + 1];
                o[2 * i] = CMUL_RE(re, im, half, zero)
                    + CMUL_RE(d, zero, xr, xi);
                o[2 * i + 1] = CMUL_IM(re, im, half, zero)
                    + CMUL_IM(d, zero, xr, xi);
            }
            if (!chiral) continue;
            for (int j = 0; j < 6; j++) {
                const REAL *restrict a =
                    chiral + 2 * (((c * 6 + row) * 6 + j) * V + lo);
                const REAL *restrict xj = x + (c * 6 + j) * cs + at;
                for (int64_t i = 0; i < n; i++) {
                    REAL ar = a[2 * i], ai = a[2 * i + 1];
                    REAL xr = xj[2 * i], xi = xj[2 * i + 1];
                    o[2 * i] += CMUL_RE(ar, ai, xr, xi);
                    o[2 * i + 1] += CMUL_IM(ar, ai, xr, xi);
                }
            }
        }
    }
}

#endif
