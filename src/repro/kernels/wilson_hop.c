/* The compiled kernel tier ("c"): the lattice-last Wilson 8-hop core, and
 * the whole Wilson-clover matrix around it -- site-major field in, layout
 * change, storage rounding, hops, site-diagonal tail, rounding, site-major
 * field out -- for complex128 and complex64.
 *
 * Built and loaded by repro/kernels/c_backend.py.  Every function evaluates,
 * site by site, the IEEE operation sequence of the NumPy body it stands in
 * for (WilsonCloverOperator._hop_sites / _apply_sites), so the results are
 * equal bit for bit.  Three facts carry that:
 *
 *   - NumPy's complex multiply loop is fused: a * b is
 *         re = fma(ar, br, -(ai * bi)),   im = fma(ar, bi, ai * br)
 *     with `a` the first operand.  CMUL_RE / CMUL_IM spell it out and the
 *     build passes -ffp-contract=off so the compiler adds no fusion of its
 *     own.  Every product here goes through them with the operands in
 *     NumPy's order -- the +-1 / +-i projector phases included, because the
 *     general form also decides the sign of a zero.
 *   - everything else in the stencil and the tail is adds, negations and
 *     copies, done in NumPy's order: (p0 + p1) + p2 for the colour sum,
 *     upper/lower accumulation hop by hop, mu = 0..3, forward before
 *     backward; out * -1/2, + (4 + m) x, then the six clover columns.
 *   - the half format is repro.precision.quantize_half's float32 sequence:
 *     site max (NaN poisons it, as np.maximum does), divide, * 32767, rint,
 *     + 0, rescale.  Single and double storage are the dtype itself.
 *
 * Lattice-last fields are C-contiguous (spin, color, batch, lane, T, Z, Y,
 * X) complex, links (2, mu, b, a, lane, T, Z, Y, X), clover blocks (2, 6,
 * 6, lane, T, Z, Y, X); the caller's fields are site-major (batch, lane, T,
 * Z, Y, X, spin, color).  A run of whole (Y, X) planes is
 * the vector unit: its data is split into real and imaginary scratch arrays
 * so the loops below are plain loops over `i` that gcc vectorises.  No static or
 * global mutable state: callers on several threads run concurrently.
 *
 * The file includes itself, by name, once per precision.
 */
#ifndef REAL

#define _POSIX_C_SOURCE 199309L
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define CMUL_RE(ar, ai, br, bi) FMA((ar), (br), -((ai) * (bi)))
#define CMUL_IM(ar, ai, br, bi) FMA((ar), (bi), (ai) * (br))

enum { PERIODIC = 0, ANTIPERIODIC = 1, ZERO = 2 };
/* The leaves of the whole apply, as `seconds` reports them. */
enum { CONVERT = 0, HOPS = 1, TAIL = 2 };
/* Sites transposed at a time between a field and 24 rows of reals. */
enum { BLOCK = 64 };

/* Seconds since `*mark`, which moves to now: each interval of a call is
 * charged to exactly one leaf.  A caller that did not ask pays nothing. */
static double lap(struct timespec *mark)
{
    struct timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    double elapsed = (double)(now.tv_sec - mark->tv_sec)
        + 1e-9 * (double)(now.tv_nsec - mark->tv_nsec);
    *mark = now;
    return elapsed;
}

#define REAL double
#define FMA fma
#define RINT rint
#define NAME(f) f##_c128
#include "wilson_hop.c"
#undef REAL
#undef FMA
#undef RINT
#undef NAME

#define REAL float
#define FMA fmaf
#define RINT rintf
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
 * one unit of a lattice-last field (component stride cs reals) into split
 * scratch h[((s * 3 + c) * 2 + part) * P].  The field is interleaved
 * complex (imo 0: NumPy's), or split -- a component's real parts, then its
 * imaginary parts imo reals on (the whole apply's own copy: no shuffles). */
static void NAME(project)(const REAL *restrict x, int64_t cs, int64_t imo,
                          int64_t P, const int32_t *spins, const REAL *coef,
                          REAL *restrict h)
{
    for (int s = 0; s < 2; s++) {
        const REAL cr = coef[2 * s], ci = coef[2 * s + 1];
        for (int c = 0; c < 3; c++) {
            const REAL *restrict up = x + (s * 3 + c) * cs;
            const REAL *restrict lo = x + (spins[s] * 3 + c) * cs;
            REAL *restrict hr = h + ((s * 3 + c) * 2) * P;
            REAL *restrict hi = hr + P;
            if (imo)
                for (int64_t i = 0; i < P; i++) {
                    REAL lr = lo[i], li = lo[imo + i];
                    hr[i] = up[i] + CMUL_RE(cr, ci, lr, li);
                    hi[i] = up[imo + i] + CMUL_IM(cr, ci, lr, li);
                }
            else
                for (int64_t i = 0; i < P; i++) {
                    REAL lr = lo[2 * i], li = lo[2 * i + 1];
                    hr[i] = up[2 * i] + CMUL_RE(cr, ci, lr, li);
                    hi[i] = up[2 * i + 1] + CMUL_IM(cr, ci, lr, li);
                }
        }
    }
}

/* hop[s][a] = (h[s][0] u[0][a] + h[s][1] u[1][a]) + h[s][2] u[2][a] with the
 * links of one plane (interleaved, element stride ls reals); a column of
 * links is loaded once for both spins. */
static void NAME(link_apply)(const REAL *restrict h, const REAL *restrict u,
                             int64_t ls, int64_t P, REAL *restrict hop)
{
    for (int a = 0; a < 3; a++) {
        const REAL *restrict u0 = u + (0 * 3 + a) * ls;
        const REAL *restrict u1 = u + (1 * 3 + a) * ls;
        const REAL *restrict u2 = u + (2 * 3 + a) * ls;
        for (int64_t i = 0; i < P; i++) {
            REAL ar = u0[2 * i], ai = u0[2 * i + 1];
            REAL br = u1[2 * i], bi = u1[2 * i + 1];
            REAL cr = u2[2 * i], ci = u2[2 * i + 1];
            for (int s = 0; s < 2; s++) {
                const REAL *restrict hs = h + s * 6 * P + i;
                REAL re = CMUL_RE(hs[0], hs[P], ar, ai);
                REAL im = CMUL_IM(hs[0], hs[P], ar, ai);
                re += CMUL_RE(hs[2 * P], hs[3 * P], br, bi);
                im += CMUL_IM(hs[2 * P], hs[3 * P], br, bi);
                re += CMUL_RE(hs[4 * P], hs[5 * P], cr, ci);
                im += CMUL_IM(hs[4 * P], hs[5 * P], cr, ci);
                hop[((s * 3 + a) * 2) * P + i] = re;
                hop[((s * 3 + a) * 2 + 1) * P + i] = im;
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

/* n Wilson sites through the 16-bit fixed-point round trip, in place:
 * repro.precision.quantize_half, operation for operation.  `rows` holds the
 * sites' 24 reals as 24 arrays of n, `stride` reals apart, so every loop
 * runs over contiguous sites. */
static void NAME(quantize_rows)(REAL *restrict rows, int64_t stride, int64_t n)
{
    enum { CHUNK = 64 };
    for (int64_t lo = 0; lo < n; lo += CHUNK) {
        const int64_t m = n - lo < CHUNK ? n - lo : CHUNK;
        REAL safe[CHUNK], unit[CHUNK];
        /* the site max; a NaN sticks, as it does in np.maximum */
        for (int64_t i = 0; i < m; i++) safe[i] = 0;
        for (int r = 0; r < 24; r++) {
            const REAL *restrict v = rows + r * stride + lo;
            for (int64_t i = 0; i < m; i++) {
                REAL a = v[i] < 0 ? -v[i] : v[i];
                safe[i] = a > safe[i] || a != a ? a : safe[i];
            }
        }
        for (int64_t i = 0; i < m; i++) {
            safe[i] = safe[i] > 0 ? safe[i] : (REAL)1;
            unit[i] = safe[i] / (REAL)32767;
        }
        for (int r = 0; r < 24; r++) {
            REAL *restrict v = rows + r * stride + lo;
            for (int64_t i = 0; i < m; i++) {
                REAL q = v[i] / safe[i];
                q *= (REAL)32767;
                q = RINT(q);
                q += (REAL)0; /* the int16 mantissa has no -0 */
                v[i] = q * unit[i];
            }
        }
    }
}

/* A block of n <= BLOCK sites of a field -- component c of site s at
 * x[2 * (c * cstride + s * sstride)], floats when `narrow` -- as 24 rows of
 * BLOCK reals, and back. */
static void NAME(gather)(const void *x, int narrow, int64_t cstride,
                         int64_t sstride, int64_t n, REAL *restrict block)
{
    for (int64_t s = 0; s < n; s++)
        for (int c = 0; c < 12; c++) {
            const int64_t at = 2 * (c * cstride + s * sstride);
            for (int part = 0; part < 2; part++)
                block[(2 * c + part) * BLOCK + s] = narrow
                    ? (REAL)((const float *)x)[at + part]
                    : ((const REAL *)x)[at + part];
        }
}

static void NAME(scatter)(const REAL *restrict block, int64_t bstride,
                          void *out, int narrow, int64_t cstride,
                          int64_t sstride, int64_t n)
{
    for (int64_t s = 0; s < n; s++)
        for (int c = 0; c < 12; c++) {
            const int64_t at = 2 * (c * cstride + s * sstride);
            for (int part = 0; part < 2; part++) {
                const REAL v = block[(2 * c + part) * bstride + s];
                if (narrow) ((float *)out)[at + part] = (float)v;
                else ((REAL *)out)[at + part] = v;
            }
        }
}

/* quantize_half alone, for the tests: a Wilson field of `sites` sites in
 * either layout -- site-major (cstride 1, sstride 12) or lattice-last
 * (cstride sites, sstride 1).  (The format is float32 arithmetic: the _c64
 * instance is the one the loader binds.) */
void NAME(repro_quantize_half)(const REAL *in, REAL *out, int64_t sites,
                               int64_t cstride, int64_t sstride)
{
    REAL block[24 * BLOCK];
    for (int64_t lo = 0; lo < sites; lo += BLOCK) {
        const int64_t n = sites - lo < BLOCK ? sites - lo : BLOCK;
        NAME(gather)(in + 2 * lo * sstride, 0, cstride, sstride, n, block);
        NAME(quantize_rows)(block, BLOCK, n);
        NAME(scatter)(block, BLOCK, out + 2 * lo * sstride, 0, cstride,
                      sstride, n);
    }
}

/* The way in: the caller's site-major field (S sites of 12 complex; floats
 * when `narrow`, widened exactly) -> the lattice-last field the stencil
 * reads, split (per component S real parts, then S imaginary parts), each
 * site rounded to the half format on the way if `half`.  A block of sites
 * is transposed in a small buffer and leaves as 24 contiguous runs: 24
 * streams S reals apart would share cache sets. */
static void NAME(enter)(const void *x, int narrow, REAL *restrict xs,
                        int64_t S, int half)
{
    REAL block[24 * BLOCK];
    const size_t width = narrow ? sizeof(float) : sizeof(REAL);
    for (int64_t lo = 0; lo < S; lo += BLOCK) {
        const int64_t n = S - lo < BLOCK ? S - lo : BLOCK;
        NAME(gather)((const char *)x + 24 * lo * width, narrow, 1, 12, n, block);
        if (half) NAME(quantize_rows)(block, BLOCK, n);
        for (int r = 0; r < 24; r++)
            memcpy(xs + r * S + lo, block + r * BLOCK, (size_t)n * sizeof(REAL));
    }
}

/* The site-diagonal tail of _apply_sites on one unit of U sites, in place on
 * the split accumulator:
 *     acc *= -0.5;  acc += diag * x;
 *     per chirality, column by column:  acc6[c] += chiral[c, :, j] * x6[c, j]
 * `x` is the unit's split lattice-last input (component stride cs reals,
 * imaginary parts imo reals on), `chiral` its clover blocks (interleaved,
 * element stride as reals) or NULL for no clover term. */
static void NAME(site_tail)(REAL *restrict acc, const REAL *restrict x,
                            int64_t cs, int64_t imo,
                            const REAL *restrict chiral, int64_t as,
                            double diag, int64_t U)
{
    const REAL d = (REAL)diag, half = (REAL)-0.5, zero = 0;
    for (int k = 0; k < 12; k++) {
        const int c = k / 6, row = k % 6;
        REAL *restrict tr = acc + 2 * k * U;
        REAL *restrict ti = tr + U;
        const REAL *restrict xk = x + k * cs;
        for (int64_t i = 0; i < U; i++) {
            REAL re = tr[i], im = ti[i];
            REAL xr = xk[i], xi = xk[imo + i];
            tr[i] = CMUL_RE(re, im, half, zero) + CMUL_RE(d, zero, xr, xi);
            ti[i] = CMUL_IM(re, im, half, zero) + CMUL_IM(d, zero, xr, xi);
        }
        if (!chiral) continue;
        for (int j = 0; j < 6; j++) {
            const REAL *restrict a = chiral + ((c * 6 + row) * 6 + j) * as;
            const REAL *restrict xj = x + (c * 6 + j) * cs;
            for (int64_t i = 0; i < U; i++) {
                REAL ar = a[2 * i], ai = a[2 * i + 1];
                REAL xr = xj[i], xi = xj[imo + i];
                tr[i] += CMUL_RE(ar, ai, xr, xi);
                ti[i] += CMUL_IM(ar, ai, xr, xi);
            }
        }
    }
}

/* The way out: a unit's split accumulator -> the caller's site-major field
 * (floats when `narrow`: the one rounding of a field narrower than the
 * operator), each site rounded to the half format first if `half`. */
static void NAME(leave)(REAL *restrict acc, int64_t U, void *out, int narrow,
                        int half)
{
    if (half) NAME(quantize_rows)(acc, U, U);
    NAME(scatter)(acc, U, out, narrow, 1, 12, U);
}

/* The 8-hop stencil core, bare (`whole` 0: out = D x, lattice-last) or with
 * the rest of the matrix behind it (`whole` 1: out = round((4 + m) x - D x
 * / 2 + A x), site-major, see repro_wilson_apply).  `spins` is (8, 4) int32
 * -- per hop (mu forward, mu backward, ...) the two lower spins the
 * projection reads and the two half-spinor rows the reconstruction reads --
 * and `coef` (8, 4) complex: the two projection and the two reconstruction
 * phases.  bc[mu] is the boundary code.  Returns nonzero when the scratch
 * cannot be had.
 *
 * The lattice is walked in units: the (Y, X) plane, grown by Z and then T
 * while the unit's scratch (48 reals a site) stays near the L1 cache, so
 * small blocks are not all loop overhead.  A hop along an axis inside the
 * unit is a shift within it; along an outer axis it reads another unit. */
static int NAME(stencil)(const REAL *x, const REAL *links, void *out,
                         int whole, int narrow, int half,
                         const REAL *chiral, double diag,
                         const int32_t *spins, const REAL *coef,
                         int64_t nb, int64_t nl, int64_t T, int64_t Z,
                         int64_t Y, int64_t X, const int32_t *bc,
                         double *seconds, struct timespec *mark)
{
    const int64_t n[4] = {X, Y, Z, T};
    const int64_t V = T * Z * Y * X;
    int inner = 2; /* axes mu < inner lie inside the unit */
    int64_t U = X * Y;
    while (inner < 4 && U * n[inner] * sizeof(REAL) <= 1024) U *= n[inner++];
    const int64_t units = V / U;
    const int64_t cs = 2 * nb * nl * V; /* field component stride, reals */
    const int64_t ls = 2 * nl * V;      /* link element stride, reals */
    /* the whole apply reads its own split copy of x, the bare core NumPy's
     * interleaved field: where a site's imaginary part and successor lie */
    const int64_t imo = whole ? cs / 2 : 0, step = whole ? 1 : 2;
    REAL *scratch = malloc((size_t)(48 * U) * sizeof(REAL));
    if (!scratch) return 1;
    REAL *h = scratch, *g = h + 12 * U, *acc = g + 12 * U;

    for (int64_t b = 0; b < nb; b++)
    for (int64_t l = 0; l < nl; l++) {
        const REAL *xb = x + step * (b * nl + l) * V;
        const REAL *ul = links + 2 * l * V;
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
                NAME(project)(xb + step * from, cs, imo, U, sp, cf, h);
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
            const int64_t site = (b * nl + l) * V + here;
            if (whole) {
                if (seconds) seconds[HOPS] += lap(mark);
                NAME(site_tail)(acc, xb + here, cs, imo,
                                chiral ? chiral + 2 * (l * V + here) : NULL,
                                ls, diag, U);
                if (seconds) seconds[TAIL] += lap(mark);
                NAME(leave)(acc, U,
                            (char *)out + 24 * site
                                * (narrow ? sizeof(float) : sizeof(REAL)),
                            narrow, half);
                if (seconds) seconds[CONVERT] += lap(mark);
                continue;
            }
            for (int k = 0; k < 12; k++) {
                const REAL *restrict ar = acc + 2 * k * U;
                const REAL *restrict ai = ar + U;
                REAL *restrict o = (REAL *)out + k * cs + 2 * site;
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

/* out = D x on lattice-last fields (WilsonCloverOperator._hop_sites). */
int NAME(repro_wilson_hop)(const REAL *x, const REAL *links, REAL *out,
                           const int32_t *spins, const REAL *coef,
                           int64_t nb, int64_t nl, int64_t T, int64_t Z,
                           int64_t Y, int64_t X, const int32_t *bc)
{
    return NAME(stencil)(x, links, out, 0, 0, 0, NULL, 0.0, spins, coef,
                         nb, nl, T, Z, Y, X, bc, NULL, NULL);
}

/* The whole matrix, WilsonCloverOperator._apply_sites, on the caller's
 * site-major fields (nb, nl, T, Z, Y, X, 4, 3):
 *     out = round(diag * x' - 1/2 D x' + A x'),   x' = round(x)
 * with `chiral` the clover blocks (2, 6, 6, nl, T, Z, Y, X) or NULL, the
 * rounding the half format if `half` and none otherwise, and x / out float
 * complex if `narrow` (a field narrower than the operator: widened on the
 * way in, rounded once on the way out).  `seconds`, unless NULL, gains the
 * time spent converting (in and out), hopping and in the tail.  Returns
 * nonzero when the scratch cannot be had. */
int NAME(repro_wilson_apply)(const void *x, const REAL *links,
                             const REAL *chiral, double diag, void *out,
                             int narrow, int half,
                             const int32_t *spins, const REAL *coef,
                             int64_t nb, int64_t nl, int64_t T, int64_t Z,
                             int64_t Y, int64_t X, const int32_t *bc,
                             double *seconds)
{
    const int64_t S = nb * nl * T * Z * Y * X;
    struct timespec mark;
    REAL *xs = malloc((size_t)(24 * S) * sizeof(REAL));
    if (!xs) return 1;
    if (seconds) clock_gettime(CLOCK_MONOTONIC, &mark);
    NAME(enter)(x, narrow, xs, S, half);
    if (seconds) seconds[CONVERT] += lap(&mark);
    int failed = NAME(stencil)(xs, links, out, 1, narrow, half, chiral, diag,
                               spins, coef, nb, nl, T, Z, Y, X, bc, seconds,
                               &mark);
    free(xs);
    return failed;
}

#endif
