/* The compiled kernel tier ("c"): the lattice-last Wilson 8-hop core, and
 * the whole Wilson-clover matrix around it -- site-major field in, layout
 * change, storage rounding, hops, site-diagonal tail, rounding, site-major
 * field out -- for complex128 and complex64; and the Krylov solvers' vector
 * updates, each one in-place pass (see "the solvers' vector updates").
 *
 * Built and loaded by repro/kernels/c_backend.py.  Every function evaluates,
 * site by site, the IEEE operation sequence of the NumPy code it stands in
 * for (WilsonCloverOperator._hop_sites / _apply_sites, repro.linalg.blas),
 * so the results are equal bit for bit.  Three facts carry that:
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
 * X) complex, links (2, mu, b, a, lane, T, Z, Y, X) of which the stencil
 * reads the forward half only: the backward hop conjugates U(x - mu) in
 * registers, as QUDA never stores U^+.  The caller's fields are site-major
 * (batch, lane, T, Z, Y, X, spin, color).
 *
 * What the body reads at every site -- its own copy of x, the clover term
 * -- is held as *site vectors*: a lane's sites, in lattice-last order, are
 * cut into blocks of W (the last one zero-padded), and a block is its
 * elements one after the other, each W real parts then W imaginary parts.
 * One block is one sequential run of memory read at constant offsets, with
 * nothing to de-interleave.  The field copy is (batch, lane, block, 12, 2,
 * W); the clover term is Hermitian-packed, (lane, block, 2, 36, W): per
 * chirality the 6 real diagonals, then the 15 elements above the diagonal
 * row by row (the paper's 72 reals a site), the lower triangle being the
 * conjugate taken in registers.  Two loop shapes read these arrays: W sites
 * at a time on vector types where a chunk of the walk is one whole block,
 * and a site at a time into the same vectors where it is not (a lattice
 * whose planes are no multiple of W) -- one arithmetic, so odd extents stay
 * exact, and slow.
 *
 * A run of whole (Y, X) planes is the unit of the walk: its half-spinors
 * and accumulators are split into real and imaginary scratch rows, so the
 * loops over them are plain loops over `i` that gcc vectorises.  No static
 * or global mutable state: callers on several threads run concurrently.
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
/* The same two on vectors of W sites. */
#define VMUL_RE(ar, ai, br, bi) NAME(vfma)((ar), (br), -((ai) * (bi)))
#define VMUL_IM(ar, ai, br, bi) NAME(vfma)((ar), (bi), (ai) * (br))

enum { PERIODIC = 0, ANTIPERIODIC = 1, ZERO = 2 };
/* The leaves of the whole apply, as `seconds` reports them. */
enum { CONVERT = 0, HOPS = 1, TAIL = 2 };
/* Sites transposed at a time between a field and 24 rows of reals. */
enum { BLOCK = 64 };
/* Sites in a block of the site-vector operands (BLOCK is a multiple). */
enum { W = 8 };
/* Rows of a block: the field's 12 (re, im) pairs; the packed clover term's
 * 36 per chirality. */
enum { FIELD_ROWS = 24, CLOVER_ROWS = 72 };

/* Where a packed chirality keeps the real part of element (i, j), i < j, of
 * its block (the imaginary part is the row after): behind the 6 diagonals,
 * the upper triangle row by row. */
static inline int upper(int i, int j)
{
    return 6 + 2 * (i * (11 - i) / 2 + j - i - 1);
}

static inline int64_t blocks_of(int64_t sites) { return (sites + W - 1) / W; }

/* `bytes` of scratch on a cache line, `*raw` the pointer to free.  (Not
 * posix_memalign: an aligned request splits the allocator's chunks, and a
 * solve's worth of them left its heap in pieces -- 10 MB of resident
 * memory after eight GCR-DD solves.) */
static void *aligned_scratch(size_t bytes, void **raw)
{
    *raw = malloc(bytes + 64);
    return *raw ? (void *)(((uintptr_t)*raw + 63) & ~(uintptr_t)63) : NULL;
}

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

/* W reals, one per site of a block; loaded and stored wherever they lie. */
typedef REAL NAME(vec) __attribute__((
    vector_size(W * sizeof(REAL)), aligned(sizeof(REAL)), may_alias));
#define VEC NAME(vec)

/* fma() lane by lane: one instruction where the host has it. */
static inline VEC NAME(vfma)(VEC a, VEC b, VEC c)
{
    VEC r;
    for (int i = 0; i < W; i++) r[i] = FMA(a[i], b[i], c[i]);
    return r;
}

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

/* ---- the clover term, Hermitian-packed ------------------------------ */

/* The same real bit for bit -- or two NaNs, whose payload no result keeps. */
static inline int NAME(same)(REAL a, REAL b)
{
    return memcmp(&a, &b, sizeof a) == 0 || (a != a && b != b);
}

/* Chirality c of the blocks (6, 6, L, V) -- interleaved complex, one
 * chirality of the lattice-last (2, 6, 6, L, V) -- into its half of packed
 * (L, NB, 2, 36, W).  The packed form holds the diagonal's real parts and
 * the upper triangle, and the body takes a lower element as (re, 0 - im) of
 * the one above: blocks that this reproduces bit for bit -- imaginary
 * diagonal +0, lower triangle exactly that conjugate -- are what it can
 * represent.  Returns -1, or the (lane-major) index of the first site whose
 * block is not one of those. */
int64_t NAME(repro_clover_pack)(const REAL *blocks, int64_t L, int64_t V,
                                int c, REAL *packed)
{
    const int64_t NB = blocks_of(V);
    for (int64_t l = 0; l < L; l++)
    for (int64_t site = 0; site < NB * W; site++) {
        REAL *dst = packed
            + (((l * NB + site / W) * 2 + c) * 36) * W + site % W;
        if (site >= V) { /* the last block's padding */
            for (int e = 0; e < 36; e++) dst[e * W] = 0;
            continue;
        }
#define AT(i, j) (blocks + 2 * ((((i) * 6 + (j)) * L + l) * V + site))
        for (int i = 0; i < 6; i++) {
            const REAL *d = AT(i, i);
            if (!(NAME(same)(d[1], 0) || (d[0] != d[0] && d[1] != d[1])))
                return l * V + site;
            dst[i * W] = d[0];
            for (int j = i + 1; j < 6; j++) {
                const REAL *up = AT(i, j), *lo = AT(j, i);
                if (!NAME(same)(lo[0], up[0])
                    || !NAME(same)(lo[1], (REAL)0 - up[1]))
                    return l * V + site;
                dst[upper(i, j) * W] = up[0];
                dst[(upper(i, j) + 1) * W] = up[1];
            }
        }
    }
    return -1;
}

/* Chirality c of packed (L, NB, 2, 36, W) -> the blocks (6, 6, L, V) it
 * stands for. */
void NAME(repro_clover_unpack)(const REAL *packed, int64_t L, int64_t V,
                               int c, REAL *blocks)
{
    const int64_t NB = blocks_of(V);
    for (int64_t l = 0; l < L; l++)
    for (int64_t site = 0; site < V; site++) {
        const REAL *src = packed
            + (((l * NB + site / W) * 2 + c) * 36) * W + site % W;
        for (int i = 0; i < 6; i++) {
            AT(i, i)[0] = src[i * W];
            AT(i, i)[1] = 0;
            for (int j = i + 1; j < 6; j++) {
                const REAL re = src[upper(i, j) * W];
                const REAL im = src[(upper(i, j) + 1) * W];
                AT(i, j)[0] = re, AT(i, j)[1] = im;
                AT(j, i)[0] = re, AT(j, i)[1] = (REAL)0 - im;
            }
        }
    }
#undef AT
}

/* Same-shape regions of a packed clover term as the lanes of another: out
 * (L * R, nb, 2, 36, W), a source lane's R regions side by side.  `dims`
 * and `extents` are (X, Y, Z, T); region r starts at origins[4 r ..] = (x,
 * y, z, t), which may be negative, and wraps periodically.  Floats when
 * `narrow` (a stack stored below the operator's precision: rounded as it is
 * gathered). */
void NAME(repro_clover_gather)(const REAL *packed, int64_t L,
                               const int64_t *dims, const int64_t *origins,
                               int64_t R, const int64_t *extents, void *out,
                               int narrow)
{
    const int64_t NB = blocks_of(dims[0] * dims[1] * dims[2] * dims[3]);
    const int64_t v = extents[0] * extents[1] * extents[2] * extents[3];
    const int64_t nb = blocks_of(v);
    memset(out, 0, (size_t)(L * R * nb * CLOVER_ROWS * W)
           * (narrow ? sizeof(float) : sizeof(REAL)));
    for (int64_t l = 0; l < L; l++)
    for (int64_t r = 0; r < R; r++)
    for (int64_t i = 0; i < v; i++) {
        /* site i of the region, lattice-last, is site g of the lattice */
        int64_t g = 0, rest = i, weight = 1;
        for (int mu = 0; mu < 4; mu++) {
            int64_t at = (origins[4 * r + mu] + rest % extents[mu]) % dims[mu];
            g += (at < 0 ? at + dims[mu] : at) * weight;
            rest /= extents[mu];
            weight *= dims[mu];
        }
        const REAL *src = packed + (l * NB + g / W) * CLOVER_ROWS * W + g % W;
        const int64_t to = ((l * R + r) * nb + i / W) * CLOVER_ROWS * W + i % W;
        for (int e = 0; e < CLOVER_ROWS; e++) {
            if (narrow) ((float *)out)[to + e * W] = (float)src[e * W];
            else ((REAL *)out)[to + e * W] = src[e * W];
        }
    }
}

/* ---- the stencil ----------------------------------------------------- */

/* The `rows` vectors of the W sites from site `i` of a site-vector array
 * (`n` of them inside the walk's unit): where they lie when they are one
 * whole block, else collected a site at a time into `buf`. */
static inline const VEC *NAME(rows_of)(const REAL *base, int rows, int64_t i,
                                       int64_t n, VEC *buf)
{
    if (i % W == 0) return (const VEC *)(base + i / W * rows * W);
    REAL *to = (REAL *)buf;
    for (int t = 0; t < W; t++, i++) {
        const REAL *src = base + i / W * rows * W + i % W;
        for (int r = 0; r < rows; r++) to[r * W + t] = t < n ? src[r * W] : 0;
    }
    return buf;
}

/* The boundary factor of a hop that crossed the lattice edge, on n reals. */
static void NAME(cross)(REAL *restrict v, int64_t n, int bc)
{
    if (bc == ZERO)
        for (int64_t i = 0; i < n; i++) v[i] = 0;
    else if (bc == ANTIPERIODIC)
        for (int64_t i = 0; i < n; i++) v[i] = -v[i];
}

/* dst[site] = src[site + step] for the 12 rows (R reals apart) of a
 * half-spinor inside one unit of U sites, step = +-1 along an axis of extent
 * n whose sites are d apart: one shifted copy, then the sites whose
 * neighbour wrapped, with the boundary factor shift_sites applies there. */
static void NAME(shift_unit)(REAL *restrict dst, const REAL *restrict src,
                             int64_t U, int64_t R, int64_t d, int64_t n,
                             int forward, int bc)
{
    const int64_t span = (n - 1) * d;
    for (int k = 0; k < 12; k++, dst += R, src += R) {
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

/* h[s][c] = x[s][c] + coeff[s] * x[lower[s]][c] for the two upper spins, of
 * the U sites from site `from` of one lane's site-vector field `xb`, into
 * split scratch rows h[((s * 3 + c) * 2 + part) * R]. */
static void NAME(project)(const REAL *xb, int64_t from, int64_t U, int64_t R,
                          const int32_t *spins, const REAL *coef,
                          REAL *restrict h)
{
    const VEC zero = {0};
    VEC buf[FIELD_ROWS];
    for (int64_t j = 0; j < U; j += W) {
        const VEC *x = NAME(rows_of)(xb, FIELD_ROWS, from + j, U - j, buf);
        for (int s = 0; s < 2; s++) {
            const VEC cr = zero + coef[2 * s], ci = zero + coef[2 * s + 1];
            for (int c = 0; c < 3; c++) {
                const VEC *up = x + (s * 3 + c) * 2;
                const VEC *lo = x + (spins[s] * 3 + c) * 2;
                REAL *hr = h + ((s * 3 + c) * 2) * R + j;
                *(VEC *)hr = up[0] + VMUL_RE(cr, ci, lo[0], lo[1]);
                *(VEC *)(hr + R) = up[1] + VMUL_IM(cr, ci, lo[0], lo[1]);
            }
        }
    }
}

/* hop[s][a] = (h[s][0] u[0][a] + h[s][1] u[1][a]) + h[s][2] u[2][a] with the
 * links of the unit's U sites (interleaved, element stride ls reals); a
 * column of links is loaded once for both spins.  `u` is the forward link
 * U, element (b, a) holding U_ab; with `dagger` the matrix multiplied is
 * U^+, its element (b, a) read as U_ba conjugated in registers -- the
 * imaginary part negated, which is what np.conjugate stores (-0 included). */
static inline void NAME(link_apply)(const REAL *restrict h,
                                    const REAL *restrict u, int64_t ls,
                                    int64_t U, int64_t R, const int dagger,
                                    REAL *restrict hop)
{
    for (int a = 0; a < 3; a++) {
        const REAL *restrict u0 = u + (dagger ? a * 3 + 0 : 0 * 3 + a) * ls;
        const REAL *restrict u1 = u + (dagger ? a * 3 + 1 : 1 * 3 + a) * ls;
        const REAL *restrict u2 = u + (dagger ? a * 3 + 2 : 2 * 3 + a) * ls;
        for (int64_t i = 0; i < U; i++) {
            REAL ar = u0[2 * i], ai = u0[2 * i + 1];
            REAL br = u1[2 * i], bi = u1[2 * i + 1];
            REAL cr = u2[2 * i], ci = u2[2 * i + 1];
            if (dagger) ai = -ai, bi = -bi, ci = -ci;
            for (int s = 0; s < 2; s++) {
                const REAL *restrict hs = h + s * 6 * R + i;
                REAL re = CMUL_RE(hs[0], hs[R], ar, ai);
                REAL im = CMUL_IM(hs[0], hs[R], ar, ai);
                re += CMUL_RE(hs[2 * R], hs[3 * R], br, bi);
                im += CMUL_IM(hs[2 * R], hs[3 * R], br, bi);
                re += CMUL_RE(hs[4 * R], hs[5 * R], cr, ci);
                im += CMUL_IM(hs[4 * R], hs[5 * R], cr, ci);
                hop[((s * 3 + a) * 2) * R + i] = re;
                hop[((s * 3 + a) * 2 + 1) * R + i] = im;
            }
        }
    }
}

/* upper += hop; lower[s] += coeff[s] * hop[source[s]], whole rows (their
 * padding rides along). */
static void NAME(accumulate)(const REAL *restrict hop, int64_t R,
                             const int32_t *spins, const REAL *coef,
                             REAL *restrict acc)
{
    for (int64_t i = 0; i < 12 * R; i++) acc[i] += hop[i];
    for (int s = 0; s < 2; s++) {
        const REAL cr = coef[2 * s], ci = coef[2 * s + 1];
        for (int c = 0; c < 3; c++) {
            const REAL *restrict hr = hop + ((spins[s] * 3 + c) * 2) * R;
            const REAL *restrict hi = hr + R;
            REAL *restrict ar = acc + (((2 + s) * 3 + c) * 2) * R;
            REAL *restrict ai = ar + R;
            for (int64_t i = 0; i < R; i++) {
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

/* quantize_half alone: a Wilson field of `sites` sites in either layout --
 * site-major (cstride 1, sstride 12) or lattice-last (cstride sites,
 * sstride 1).  (The format is float32 arithmetic: the _c64 instance is the
 * one the loader binds.) */
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

/* The way in: a field of `lanes` lanes of V sites (layout as for gather;
 * floats when `narrow`, widened exactly) -> the body's own site-vector copy
 * (lanes, NB, 12, 2, W), each site rounded to the half format on the way if
 * `half`.  BLOCK sites are transposed in a small buffer and leave as whole
 * blocks of W, one after the other. */
static void NAME(enter)(const void *x, int narrow, int64_t cstride,
                        int64_t sstride, REAL *restrict xs, int64_t lanes,
                        int64_t V, int half)
{
    REAL block[24 * BLOCK];
    const size_t width = narrow ? sizeof(float) : sizeof(REAL);
    const int64_t NB = blocks_of(V);
    for (int64_t lane = 0; lane < lanes; lane++)
    for (int64_t lo = 0; lo < V; lo += BLOCK) {
        const int64_t n = V - lo < BLOCK ? V - lo : BLOCK;
        NAME(gather)((const char *)x + 2 * (lane * V + lo) * sstride * width,
                     narrow, cstride, sstride, n, block);
        if (half) NAME(quantize_rows)(block, BLOCK, n);
        REAL *to = xs + (lane * NB + lo / W) * FIELD_ROWS * W;
        for (int64_t q = 0; q < n; q += W)
            for (int r = 0; r < FIELD_ROWS; r++, to += W)
                for (int t = 0; t < W; t++)
                    to[t] = q + t < n ? block[r * BLOCK + q + t] : 0;
    }
}

/* The site-diagonal tail of _apply_sites on one unit -- the U sites from
 * site `here` of a lane -- in place on the split accumulator rows:
 *     acc *= -0.5;  acc += diag * x;
 *     per chirality, column by column:  acc6[c] += chiral[c, :, j] * x6[c, j]
 * `xb` is the lane's site-vector input, `packed` its packed clover term or
 * NULL for none.  A row's seven terms are summed in registers, in that
 * order; a[i][j] below the diagonal is the conjugate of a[j][i], and the
 * diagonal keeps the general product with its zero imaginary part (which
 * decides the sign of a zero). */
static void NAME(site_tail)(REAL *restrict acc, int64_t U, int64_t R,
                            const REAL *xb, const REAL *packed, int64_t here,
                            double diag)
{
    const VEC zero = {0}, d = zero + (REAL)diag, half = zero + (REAL)-0.5;
    VEC xbuf[FIELD_ROWS], abuf[CLOVER_ROWS];
    for (int64_t j = 0; j < U; j += W) {
        const VEC *x = NAME(rows_of)(xb, FIELD_ROWS, here + j, U - j, xbuf);
        const VEC *a = !packed ? NULL
            : NAME(rows_of)(packed, CLOVER_ROWS, here + j, U - j, abuf);
        for (int c = 0; c < 2; c++, x += 12, a = a ? a + 36 : NULL)
        for (int row = 0; row < 6; row++) {
            VEC *tr = (VEC *)(acc + 2 * (c * 6 + row) * R + j);
            VEC *ti = (VEC *)((REAL *)tr + R);
            VEC re = VMUL_RE(*tr, *ti, half, zero)
                + VMUL_RE(d, zero, x[2 * row], x[2 * row + 1]);
            VEC im = VMUL_IM(*tr, *ti, half, zero)
                + VMUL_IM(d, zero, x[2 * row], x[2 * row + 1]);
            for (int col = 0; a && col < 6; col++) {
                VEC ar = a[row], ai = zero;
                if (col > row) {
                    ar = a[upper(row, col)];
                    ai = a[upper(row, col) + 1];
                } else if (col < row) {
                    ar = a[upper(col, row)];
                    ai = zero - a[upper(col, row) + 1];
                }
                re += VMUL_RE(ar, ai, x[2 * col], x[2 * col + 1]);
                im += VMUL_IM(ar, ai, x[2 * col], x[2 * col + 1]);
            }
            *tr = re;
            *ti = im;
        }
    }
}

/* The way out: a unit's split accumulator rows -> the caller's site-major
 * field (floats when `narrow`: the one rounding of a field narrower than the
 * operator), each site rounded to the half format first if `half`. */
static void NAME(leave)(REAL *restrict acc, int64_t U, int64_t R, void *out,
                        int narrow, int half)
{
    if (half) NAME(quantize_rows)(acc, R, U);
    NAME(scatter)(acc, R, out, narrow, 1, 12, U);
}

/* The 8-hop stencil core on the site-vector field `xs`, bare (`whole` 0:
 * out = D x, lattice-last) or with the rest of the matrix behind it (`whole`
 * 1: out = round((4 + m) x - D x / 2 + A x), site-major, see
 * repro_wilson_apply).  `spins` is (8, 4) int32 -- per hop (mu forward, mu
 * backward, ...) the two lower spins the projection reads and the two
 * half-spinor rows the reconstruction reads -- and `coef` (8, 4) complex:
 * the two projection and the two reconstruction phases.  bc[mu] is the
 * boundary code.  Returns nonzero when the scratch cannot be had.
 *
 * The lattice is walked in units: the (Y, X) plane, grown by Z and then T
 * while the unit's scratch (48 reals a site) stays near the L1 cache, so
 * small blocks are not all loop overhead.  A hop along an axis inside the
 * unit is a shift within it; along an outer axis it reads another unit. */
static int NAME(stencil)(const REAL *xs, const REAL *links, void *out,
                         int whole, int narrow, int half,
                         const REAL *packed, double diag,
                         const int32_t *spins, const REAL *coef,
                         int64_t nb, int64_t nl, int64_t T, int64_t Z,
                         int64_t Y, int64_t X, const int32_t *bc,
                         double *seconds, struct timespec *mark)
{
    const int64_t n[4] = {X, Y, Z, T};
    const int64_t V = T * Z * Y * X, NB = blocks_of(V);
    int inner = 2; /* axes mu < inner lie inside the unit */
    int64_t U = X * Y;
    while (inner < 4 && U * n[inner] * sizeof(REAL) <= 1024) U *= n[inner++];
    const int64_t units = V / U;
    const int64_t R = blocks_of(U) * W; /* scratch row stride: whole vectors */
    const int64_t cs = 2 * nb * nl * V; /* field component stride, reals */
    const int64_t ls = 2 * nl * V;      /* link element stride, reals */
    void *raw;
    REAL *h = aligned_scratch((size_t)(48 * R) * sizeof(REAL), &raw);
    if (!h) return 1;
    memset(h, 0, (size_t)(48 * R) * sizeof(REAL));
    REAL *g = h + 12 * R, *acc = g + 12 * R;

    for (int64_t b = 0; b < nb; b++)
    for (int64_t l = 0; l < nl; l++) {
        const REAL *xb = xs + (b * nl + l) * NB * FIELD_ROWS * W;
        const REAL *ul = links + 2 * l * V;
        for (int64_t unit = 0; unit < units; unit++) {
            const int64_t here = unit * U;
            memset(acc, 0, (size_t)(24 * R) * sizeof(REAL));
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
                const REAL *u = ul + mu * 9 * ls;
                REAL *result;
                NAME(project)(xb, from, U, R, sp, cf, h);
                if (forward) {
                    /* U(x) [P psi](x + mu): shift, then multiply */
                    if (mu < inner) {
                        NAME(shift_unit)(g, h, U, R, d, n[mu], 1, bc[mu]);
                        NAME(link_apply)(g, u + 2 * here, ls, U, R, 0,
                                         result = h);
                    } else {
                        if (crossed) NAME(cross)(h, 12 * R, bc[mu]);
                        NAME(link_apply)(h, u + 2 * here, ls, U, R, 0,
                                         result = g);
                    }
                } else {
                    /* U(x - mu)^+ [P psi](x - mu): multiply, then shift */
                    NAME(link_apply)(h, u + 2 * from, ls, U, R, 1,
                                     result = g);
                    if (mu < inner)
                        NAME(shift_unit)(result = h, g, U, R, d, n[mu], 0,
                                         bc[mu]);
                    else if (crossed)
                        NAME(cross)(g, 12 * R, bc[mu]);
                }
                NAME(accumulate)(result, R, sp + 2, cf + 4, acc);
            }
            const int64_t site = (b * nl + l) * V + here;
            if (whole) {
                if (seconds) seconds[HOPS] += lap(mark);
                NAME(site_tail)(acc, U, R, xb,
                                packed ? packed + l * NB * CLOVER_ROWS * W : NULL,
                                here, diag);
                if (seconds) seconds[TAIL] += lap(mark);
                NAME(leave)(acc, U, R,
                            (char *)out + 24 * site
                                * (narrow ? sizeof(float) : sizeof(REAL)),
                            narrow, half);
                if (seconds) seconds[CONVERT] += lap(mark);
                continue;
            }
            for (int k = 0; k < 12; k++) {
                const REAL *restrict ar = acc + 2 * k * R;
                const REAL *restrict ai = ar + R;
                REAL *restrict o = (REAL *)out + k * cs + 2 * site;
                for (int64_t i = 0; i < U; i++) {
                    o[2 * i] = ar[i];
                    o[2 * i + 1] = ai[i];
                }
            }
        }
    }
    free(raw);
    return 0;
}

/* Both entries: the field into the body's own site-vector copy (`cstride`,
 * `sstride`: its layout, as for gather), then the stencil on that. */
static int NAME(run)(const void *x, int64_t cstride, int64_t sstride,
                     const REAL *links, void *out, int whole, int narrow,
                     int half, const REAL *packed, double diag,
                     const int32_t *spins, const REAL *coef,
                     int64_t nb, int64_t nl, int64_t T, int64_t Z,
                     int64_t Y, int64_t X, const int32_t *bc, double *seconds)
{
    const int64_t V = T * Z * Y * X;
    struct timespec mark;
    void *raw;
    REAL *xs = aligned_scratch(
        (size_t)(nb * nl * blocks_of(V) * FIELD_ROWS * W) * sizeof(REAL), &raw);
    if (!xs) return 1;
    if (seconds) clock_gettime(CLOCK_MONOTONIC, &mark);
    NAME(enter)(x, narrow, cstride, sstride, xs, nb * nl, V, half);
    if (seconds) seconds[CONVERT] += lap(&mark);
    int failed = NAME(stencil)(xs, links, out, whole, narrow, half, packed,
                               diag, spins, coef, nb, nl, T, Z, Y, X, bc,
                               seconds, &mark);
    free(raw);
    return failed;
}

/* out = D x on lattice-last fields (WilsonCloverOperator._hop_sites). */
int NAME(repro_wilson_hop)(const REAL *x, const REAL *links, REAL *out,
                           const int32_t *spins, const REAL *coef,
                           int64_t nb, int64_t nl, int64_t T, int64_t Z,
                           int64_t Y, int64_t X, const int32_t *bc)
{
    return NAME(run)(x, nb * nl * T * Z * Y * X, 1, links, out, 0, 0, 0, NULL,
                     0.0, spins, coef, nb, nl, T, Z, Y, X, bc, NULL);
}

/* The whole matrix, WilsonCloverOperator._apply_sites, on the caller's
 * site-major fields (nb, nl, T, Z, Y, X, 4, 3):
 *     out = round(diag * x' - 1/2 D x' + A x'),   x' = round(x)
 * with `packed` the packed clover term (nl, NB, 2, 36, W) or NULL, the
 * rounding the half format if `half` and none otherwise, and x / out float
 * complex if `narrow` (a field narrower than the operator: widened on the
 * way in, rounded once on the way out).  `seconds`, unless NULL, gains the
 * time spent converting (in and out), hopping and in the tail.  Returns
 * nonzero when the scratch cannot be had. */
int NAME(repro_wilson_apply)(const void *x, const REAL *links,
                             const REAL *packed, double diag, void *out,
                             int narrow, int half,
                             const int32_t *spins, const REAL *coef,
                             int64_t nb, int64_t nl, int64_t T, int64_t Z,
                             int64_t Y, int64_t X, const int32_t *bc,
                             double *seconds)
{
    return NAME(run)(x, 1, 12, links, out, 1, narrow, half, packed, diag,
                     spins, coef, nb, nl, T, Z, Y, X, bc, seconds);
}

/* ---- path products ---------------------------------------------------- */

/* out = sum_p w_p P_p for every starting site, P_p the ordered product of
 * links along path p: repro.gauge.paths.path_sum_sites site by site.  A
 * path walks from the site: a (mu, +1) step reads U_mu(p) and moves p on,
 * a (mu, -1) step moves p back and reads U_mu(p)^+, element (i, j) the
 * conjugate of U_ji (imaginary part negated, as np.conjugate stores it).
 * The product is its first link as read, then per further link L
 *     P'[i][j] = (P[i][0] L[0][j] + P[i][1] L[1][j]) + P[i][2] L[2][j],
 * P first in every fused product; the sum starts at +0 and adds w_p P_p,
 * (w_p, 0) first, path after path.
 *
 * `links` is complex, element (mu, a, b, t, z, y, x) at the offset (in
 * reals) sum of index * stride[...] -- any layout; `steps` is (mu, sign)
 * pairs, `lengths[p]` >= 1 of them for path p; `out` is (3, 3, T, Z, Y, X)
 * complex.  W consecutive sites at a time, the product and the sum in
 * registers: one gather of the link a step reads per site, no memory
 * written until a block's sum is done.  Returns nonzero when the tables
 * cannot be had. */
int NAME(repro_path_sum)(const REAL *links, const int64_t *stride,
                         int64_t T, int64_t Z, int64_t Y, int64_t X,
                         const int32_t *steps, const int32_t *lengths,
                         const double *weights, int64_t paths, REAL *out)
{
    const int64_t dims[4] = {X, Y, Z, T};
    const int64_t V = T * Z * Y * X;
    int64_t n = 0, reach = 0;
    for (int64_t p = 0; p < paths; p++) {
        n += lengths[p];
        reach = lengths[p] > reach ? lengths[p] : reach;
    }
    /* wrap[mu][reach + c + o]: the offset of coordinate c + o along mu, for
     * every displacement o a path can reach; per step, its displacement
     * from the starting site (as an index into wrap) and where the nine
     * elements of the matrix it reads lie relative to the site */
    int64_t span = 0;
    for (int mu = 0; mu < 4; mu++) span += dims[mu] + 2 * reach;
    int64_t *wrap = malloc(sizeof(int64_t) * (span + 13 * n));
    if (!wrap) return 1;
    int64_t *axis[4], *at = wrap;
    for (int mu = 0; mu < 4; mu++) {
        axis[mu] = at + reach;
        for (int64_t c = -reach; c < dims[mu] + reach; c++, at++)
            *at = ((c % dims[mu] + dims[mu]) % dims[mu]) * stride[6 - mu];
    }
    int64_t *shift = at, *elem = shift + 4 * n;
    for (int64_t p = 0, k = 0; p < paths; p++) {
        int64_t o[4] = {0, 0, 0, 0};
        for (int32_t q = 0; q < lengths[p]; q++, k++) {
            const int mu = steps[2 * k], back = steps[2 * k + 1] < 0;
            if (back) o[mu]--;
            for (int nu = 0; nu < 4; nu++) shift[4 * k + nu] = o[nu];
            if (!back) o[mu]++;
            for (int a = 0; a < 3; a++)
            for (int b = 0; b < 3; b++)
                elem[9 * k + a * 3 + b] = mu * stride[0]
                    + (back ? b * stride[1] + a * stride[2]
                            : a * stride[1] + b * stride[2]);
        }
    }
    const VEC zero = {0};
    for (int64_t s0 = 0; s0 < V; s0 += W) {
        int64_t c[4][W]; /* the block's coordinates; a short block repeats
                            its last site */
        for (int l = 0; l < W; l++) {
            int64_t rest = s0 + l < V ? s0 + l : V - 1;
            for (int mu = 0; mu < 4; mu++) {
                c[mu][l] = rest % dims[mu];
                rest /= dims[mu];
            }
        }
        VEC sr[9], si[9];
        for (int e = 0; e < 9; e++) sr[e] = si[e] = zero;
        for (int64_t p = 0, k = 0; p < paths; p++) {
            VEC pr[9], pi[9];
            for (int32_t q = 0; q < lengths[p]; q++, k++) {
                const int64_t *o = shift + 4 * k;
                int64_t off[W];
                for (int l = 0; l < W; l++)
                    off[l] = axis[0][c[0][l] + o[0]] + axis[1][c[1][l] + o[1]]
                        + axis[2][c[2][l] + o[2]] + axis[3][c[3][l] + o[3]];
                VEC lr[9], li[9];
                for (int e = 0; e < 9; e++) {
                    const REAL *u = links + elem[9 * k + e];
                    for (int l = 0; l < W; l++) {
                        lr[e][l] = u[off[l]];
                        li[e][l] = u[off[l] + 1];
                    }
                    if (steps[2 * k + 1] < 0) li[e] = -li[e];
                }
                if (q == 0) {
                    for (int e = 0; e < 9; e++) pr[e] = lr[e], pi[e] = li[e];
                    continue;
                }
                VEC tr[9], ti[9];
                for (int i = 0; i < 3; i++)
                for (int j = 0; j < 3; j++) {
                    const VEC *ar = pr + 3 * i, *ai = pi + 3 * i;
                    VEC re = VMUL_RE(ar[0], ai[0], lr[j], li[j]);
                    VEC im = VMUL_IM(ar[0], ai[0], lr[j], li[j]);
                    re += VMUL_RE(ar[1], ai[1], lr[3 + j], li[3 + j]);
                    im += VMUL_IM(ar[1], ai[1], lr[3 + j], li[3 + j]);
                    re += VMUL_RE(ar[2], ai[2], lr[6 + j], li[6 + j]);
                    im += VMUL_IM(ar[2], ai[2], lr[6 + j], li[6 + j]);
                    tr[3 * i + j] = re, ti[3 * i + j] = im;
                }
                for (int e = 0; e < 9; e++) pr[e] = tr[e], pi[e] = ti[e];
            }
            const VEC w = zero + (REAL)weights[p];
            for (int e = 0; e < 9; e++) {
                sr[e] += VMUL_RE(w, zero, pr[e], pi[e]);
                si[e] += VMUL_IM(w, zero, pr[e], pi[e]);
            }
        }
        for (int e = 0; e < 9; e++)
            for (int l = 0; l < W && s0 + l < V; l++) {
                out[2 * (e * V + s0 + l)] = sr[e][l];
                out[2 * (e * V + s0 + l) + 1] = si[e][l];
            }
    }
    free(wrap);
    return 0;
}

/* ---- the solvers' vector updates ------------------------------------- */

/* Each pass runs over `lanes` runs of n complex elements (interleaved),
 * lane l with its own k coefficients at coef[2 k l ..] -- one lane with
 * one set for a scalar coefficient -- and evaluates, element by element,
 * what NumPy evaluates for the updates it stands for: `y + a * x` is the
 * product in the fused form, coefficient first, then the add.  An output
 * may be one of the inputs (the update in place: every element is read
 * before it is written); no other overlap.  Every member of a lane's
 * coefficient set is read into registers before the lane's loop. */

/* out = y + a x */
void NAME(repro_update)(int64_t lanes, int64_t n, const REAL *coef,
                        const REAL *x, const REAL *y, REAL *out)
{
    for (int64_t l = 0, at = 0; l < lanes; l++, at += 2 * n) {
        const REAL ar = coef[2 * l], ai = coef[2 * l + 1];
#pragma GCC ivdep
        for (int64_t i = at; i < at + 2 * n; i += 2) {
            const REAL xr = x[i], xi = x[i + 1];
            out[i] = y[i] + CMUL_RE(ar, ai, xr, xi);
            out[i + 1] = y[i + 1] + CMUL_IM(ar, ai, xr, xi);
        }
    }
}

/* BiCGstab's new direction, coefficients (c, b) = (-omega, beta):
 *     p = r + b (p + c v)                                                  */
void NAME(repro_bicgstab_direction)(int64_t lanes, int64_t n,
                                    const REAL *coef, const REAL *v,
                                    const REAL *r, REAL *p)
{
    for (int64_t l = 0, at = 0; l < lanes; l++, at += 2 * n) {
        const REAL cr = coef[4 * l], ci = coef[4 * l + 1];
        const REAL br = coef[4 * l + 2], bi = coef[4 * l + 3];
#pragma GCC ivdep
        for (int64_t i = at; i < at + 2 * n; i += 2) {
            const REAL vr = v[i], vi = v[i + 1];
            const REAL tr = p[i] + CMUL_RE(cr, ci, vr, vi);
            const REAL ti = p[i + 1] + CMUL_IM(cr, ci, vr, vi);
            p[i] = r[i] + CMUL_RE(br, bi, tr, ti);
            p[i + 1] = r[i + 1] + CMUL_IM(br, bi, tr, ti);
        }
    }
}

/* BiCGstab's closing updates, coefficients (alpha, omega, c = -omega):
 *     x = (x + alpha p) + omega s,    r = s + c t       (r may be s)       */
void NAME(repro_bicgstab_closing)(int64_t lanes, int64_t n,
                                  const REAL *coef, const REAL *p,
                                  const REAL *s, const REAL *t, REAL *x,
                                  REAL *r)
{
    for (int64_t l = 0, at = 0; l < lanes; l++, at += 2 * n) {
        const REAL ar = coef[6 * l], ai = coef[6 * l + 1];
        const REAL wr = coef[6 * l + 2], wi = coef[6 * l + 3];
        const REAL cr = coef[6 * l + 4], ci = coef[6 * l + 5];
#pragma GCC ivdep
        for (int64_t i = at; i < at + 2 * n; i += 2) {
            const REAL pr = p[i], pi = p[i + 1];
            const REAL sr = s[i], si = s[i + 1];
            const REAL tr = t[i], ti = t[i + 1];
            const REAL yr = x[i] + CMUL_RE(ar, ai, pr, pi);
            const REAL yi = x[i + 1] + CMUL_IM(ar, ai, pr, pi);
            x[i] = yr + CMUL_RE(wr, wi, sr, si);
            x[i + 1] = yi + CMUL_IM(wr, wi, sr, si);
            r[i] = sr + CMUL_RE(cr, ci, tr, ti);
            r[i + 1] = si + CMUL_IM(cr, ci, tr, ti);
        }
    }
}

/* Two updates side by side, coefficients (c, d) -- the minimal-residual
 * step is p = r, q = A r, d = -c:
 *     x = x + c p,    r = r + d q                       (p may be r)       */
void NAME(repro_update_pair)(int64_t lanes, int64_t n, const REAL *coef,
                             const REAL *p, const REAL *q, REAL *x, REAL *r)
{
    for (int64_t l = 0, at = 0; l < lanes; l++, at += 2 * n) {
        const REAL cr = coef[4 * l], ci = coef[4 * l + 1];
        const REAL dr = coef[4 * l + 2], di = coef[4 * l + 3];
#pragma GCC ivdep
        for (int64_t i = at; i < at + 2 * n; i += 2) {
            const REAL pr = p[i], pi = p[i + 1];
            const REAL qr = q[i], qi = q[i + 1];
            x[i] = x[i] + CMUL_RE(cr, ci, pr, pi);
            x[i + 1] = x[i + 1] + CMUL_IM(cr, ci, pr, pi);
            r[i] = r[i] + CMUL_RE(dr, di, qr, qi);
            r[i + 1] = r[i + 1] + CMUL_IM(dr, di, qr, qi);
        }
    }
}

#undef VEC
#endif
