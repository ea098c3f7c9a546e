/* The compiled kernel tier ("c"): the lattice-last Wilson 8-hop core, and
 * the whole Wilson-clover matrix around it -- site-major field in, layout
 * change, storage rounding, hops, site-diagonal tail, rounding, site-major
 * field out -- for complex128 and complex64; that matrix and the even-odd
 * form's entries, each call's work split across the CPUs the process may
 * use (see "the even-odd form and the whole matrix"); the Schwarz block
 * solve's fixed-step MR around that matrix, its block lanes side by side on
 * those CPUs (see "the Schwarz block solve"); and the Krylov solvers'
 * vector updates, each one in-place pass (see "the solvers' vector
 * updates").
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

#define _GNU_SOURCE /* sched_getcpu, CPU_SET, pthread_attr_setaffinity_np */
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
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
/* The leaves of the whole apply, as `seconds` reports them; the block
 * solve's MR step (reductions, step lengths, updates) is a fourth. */
enum { CONVERT = 0, HOPS = 1, TAIL = 2, MR_STEP = 3 };
/* Where the stencil's result goes: the bare D x, lattice-last; the whole
 * matrix to the caller's site-major field; the whole matrix to a
 * site-vector field (the block solve's A r). */
enum { BARE = 0, SITE_MAJOR = 1, SITE_VECTORS = 2 };
/* What an even-odd call runs on its way in: the field as it is, or a fused
 * BiCGstab step's update (see the even-odd form's NAME(enter_step)). */
enum { APPLY = 0, DIRECTION = 1, UPDATE = 2 };
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

/* Site g of one parity's half lattice (X sites a row, Y rows a Z plane, Z
 * planes a T slice) as a site of the full lattice, whose rows are 2 X long:
 * (t, z, y, i) is x = 2 i + (t + z + y + parity) % 2
 * (repro.lattice.geometry.to_parity). */
static inline int64_t parity_site(int64_t g, int64_t X, int64_t Y, int64_t Z,
                                  int parity)
{
    const int64_t row = g / X, y = row % Y, z = row / Y % Z, t = row / (Y * Z);
    return row * 2 * X + 2 * (g % X) + ((t + z + y + parity) & 1);
}

/* What every entry of the even-odd form reads besides its fields, bound
 * once per operator by the caller (repro/kernels/c_backend.py, _SchurOperands
 * mirrors it): the forward links split by parity, (parity, mu, b, a, lane,
 * sites); the packed clover term on each parity's sites, A_ee and A_oo (or
 * NULL for none), and C_oo^{-1}, each (lane, NB, 2, 36, W) on the half
 * lattice; the diagonal 4 + m; the projection tables and boundary codes (see
 * the stencil); the lanes and the half lattice T Z Y X. */
typedef struct {
    const void *links, *even, *odd, *inverse;
    double diag;
    const int32_t *spins;
    const void *coef;
    const int32_t *bc;
    int64_t nl, T, Z, Y, X;
} schur_operands;

/* The sites of block k (the W sites from k W) of lane `lane` of a
 * half-lattice site-major field (`bytes` a site) into their places of one
 * parity of a full-lattice one: the solution's even sites, as they were
 * solved for. */
static void copy_parity(const void *half, void *full, size_t bytes,
                        int64_t lane, int64_t k, const schur_operands *s,
                        int parity)
{
    const int64_t V = s->T * s->Z * s->Y * s->X;
    for (int64_t g = k * W; g < V && g < (k + 1) * W; g++)
        memcpy((char *)full + (size_t)(2 * lane * V
                   + parity_site(g, s->X, s->Y, s->Z, parity)) * bytes,
               (const char *)half + (size_t)(lane * V + g) * bytes, bytes);
}

/* `bytes` of scratch on a cache line, `*raw` the pointer to free.  (Not
 * posix_memalign: an aligned request splits the allocator's chunks, and a
 * solve's worth of them left its heap in pieces -- 10 MB of resident
 * memory after eight GCR-DD solves.) */
static void *aligned_scratch(size_t bytes, void **raw)
{
    *raw = malloc(bytes + 64);
    return *raw ? (void *)(((uintptr_t)*raw + 63) & ~(uintptr_t)63) : NULL;
}

/* Where the helper threads of a call with `lanes` independent lanes (or
 * work items) run: min(lanes, allowed CPUs) - 1 of them, each bound to an
 * allowed CPU of its own other than the one the caller is on.  Bound,
 * because a thread left to the scheduler starts on its creator's CPU and,
 * CPU-bound, may stay there beside it: on a host whose scheduler does not
 * balance the load it does.  Returns how many, their CPUs in `cpus`; none
 * where one CPU is allowed, or one lane given. */
static int helper_cpus(int64_t lanes, int *cpus)
{
    cpu_set_t allowed;
    if (lanes < 2 || sched_getaffinity(0, sizeof allowed, &allowed)) return 0;
    const int here = sched_getcpu(), n = CPU_COUNT(&allowed);
    const int64_t want = (lanes < n ? lanes : n) - 1;
    int found = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && found < want; cpu++)
        if (CPU_ISSET(cpu, &allowed) && cpu != here) cpus[found++] = cpu;
    return found;
}

/* work(arg) on a new thread bound to `cpu`, its id in *id; nonzero where it
 * could not be started. */
static int start_bound(pthread_t *id, int cpu, void *(*work)(void *), void *arg)
{
    pthread_attr_t attr;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (pthread_attr_init(&attr)) return 1;
    const int failed = pthread_attr_setaffinity_np(&attr, sizeof one, &one)
        || pthread_create(id, &attr, work, arg);
    pthread_attr_destroy(&attr);
    return failed;
}

/* work(slot) for each of 1 + helpers slots of `size` bytes at `slots`:
 * slot 0 on the calling thread, slot i on a helper thread bound to
 * cpus[i - 1], started with every signal blocked -- so that a signal for
 * the process (an alarm, an interrupt) reaches the caller -- and joined
 * before this returns: no thread outlives the call, and a process may fork
 * after it.  A helper that cannot be started leaves a slot unrun, and the
 * work it would have claimed to the others. */
static void run_team(void *(*work)(void *), void *slots, size_t size,
                     const int *cpus, int helpers)
{
    pthread_t ids[helpers > 0 ? helpers : 1];
    int started = 0;
    if (helpers) {
        sigset_t all, old;
        sigfillset(&all);
        pthread_sigmask(SIG_BLOCK, &all, &old);
        for (int i = 0; i < helpers; i++)
            started += !start_bound(&ids[started], cpus[i], work,
                                    (char *)slots + (size_t)(1 + started) * size);
        pthread_sigmask(SIG_SETMASK, &old, NULL);
    }
    work(slots);
    for (int i = 0; i < started; i++) pthread_join(ids[i], NULL);
}

/* A team that lives for a solve: the helpers of run_team, started by the
 * first call that needs them, parked between calls and joined by
 * repro_team_stop (which a later call undoes: it starts them again) or
 * repro_team_close.  The caller (repro/kernels/c_backend.py, solve_team)
 * opens one per solve and thread and closes it when the solve ends, also
 * when it raises, and stops every open team before the process forks: no
 * helper outlives its solve, and none is alive across a fork.
 *
 * A team has as many helpers as its largest call so far could use (a call
 * of n work items: min(n, allowed CPUs) - 1, as run_team would start), so a
 * solve whose calls are small keeps no CPU busy it does not use; and no
 * more than its `limit` of threads, the caller's among them, where that is
 * set (a rank program's share of the CPUs, when several run at once).  A call
 * locks `call` for its whole length (a stop from another thread waits for
 * it), posts its work to the helpers it gives a slot -- bumping each one's
 * own `posted` -- runs slot 0 itself and waits until those count themselves
 * `done`; the others are not woken, so no helper reads a call it has no
 * part in.  Between calls a helper spins, yielding its CPU, for up to
 * SPIN_NS -- longer than the Python between two calls of a Krylov loop --
 * and then sleeps on `wake`. */
enum { SPIN_NS = 2000000 };
/* Site-vector blocks of the closing pass a thread takes at the least (32:
 * 256 sites, 48 KB of each of its seven complex128 field streams). */
enum { CLOSING_SHARE = 32 };

typedef struct repro_team repro_team;
typedef struct {
    repro_team *team;
    int index;
    unsigned long posted; /* calls posted to this helper; 0 when started */
} team_helper_arg;

struct repro_team {
    pthread_mutex_t call, lock;
    pthread_cond_t wake;
    int helpers; /* started: -1 until a call starts them */
    int sleepers, quit;
    int done;
    void *(*work)(void *);
    void *slots;
    size_t size;
    pthread_t ids[CPU_SETSIZE];
    team_helper_arg args[CPU_SETSIZE];
    int cpu[CPU_SETSIZE]; /* each helper's CPU */
    int home;             /* the caller's: no helper is bound to it */
    int limit;            /* threads a call may have; 0: no limit */
};

static double since_ns(const struct timespec *start)
{
    struct timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    return 1e9 * (double)(now.tv_sec - start->tv_sec)
        + (double)(now.tv_nsec - start->tv_nsec);
}

static void *team_helper(void *arg)
{
    team_helper_arg *me = arg;
    repro_team *team = me->team;
    unsigned long seen = 0;
    for (;;) {
        struct timespec start;
        clock_gettime(CLOCK_MONOTONIC, &start);
        unsigned long g;
        for (int spins = 1;; spins++) {
            g = __atomic_load_n(&me->posted, __ATOMIC_ACQUIRE);
            if (g != seen) break;
            if (spins % 64 == 0 && since_ns(&start) > SPIN_NS) {
                pthread_mutex_lock(&team->lock);
                team->sleepers++;
                while ((g = me->posted) == seen)
                    pthread_cond_wait(&team->wake, &team->lock);
                team->sleepers--;
                pthread_mutex_unlock(&team->lock);
                break;
            }
            sched_yield();
        }
        seen = g;
        if (team->quit) return NULL;
        team->work((char *)team->slots + (size_t)(1 + me->index) * team->size);
        __atomic_add_fetch(&team->done, 1, __ATOMIC_RELEASE);
    }
}

/* Wake the first n helpers for what the caller set up: a call, or the quit. */
static void team_post(repro_team *team, int n)
{
    pthread_mutex_lock(&team->lock);
    for (int i = 0; i < n; i++)
        __atomic_add_fetch(&team->args[i].posted, 1, __ATOMIC_RELEASE);
    if (team->sleepers) pthread_cond_broadcast(&team->wake);
    pthread_mutex_unlock(&team->lock);
}

/* A team whose calls have at most `threads` threads (0: no limit). */
repro_team *repro_team_open(int threads)
{
    repro_team *team = calloc(1, sizeof *team);
    if (!team) return NULL;
    pthread_mutex_init(&team->call, NULL);
    pthread_mutex_init(&team->lock, NULL);
    pthread_cond_init(&team->wake, NULL);
    team->helpers = -1;
    team->limit = threads > 0 ? threads : 0;
    return team;
}

/* Join the helpers, if started; the next call starts them again. */
void repro_team_stop(repro_team *team)
{
    pthread_mutex_lock(&team->call);
    if (team->helpers > 0) {
        team->quit = 1;
        team_post(team, team->helpers);
        for (int i = 0; i < team->helpers; i++) pthread_join(team->ids[i], NULL);
        team->quit = 0;
    }
    team->helpers = -1;
    pthread_mutex_unlock(&team->call);
}

void repro_team_close(repro_team *team)
{
    repro_team_stop(team);
    pthread_mutex_destroy(&team->call);
    pthread_mutex_destroy(&team->lock);
    pthread_cond_destroy(&team->wake);
    free(team);
}

/* Start helpers on the CPUs of cpus[0, n) that none has, until the team has
 * `want` of them. */
static void team_grow(repro_team *team, const int *cpus, int n, int want)
{
    sigset_t all, old;
    sigfillset(&all);
    pthread_sigmask(SIG_BLOCK, &all, &old);
    for (int i = 0; i < n && team->helpers < want; i++) {
        int taken = 0;
        for (int j = 0; j < team->helpers; j++) taken |= team->cpu[j] == cpus[i];
        if (taken) continue;
        const int k = team->helpers;
        team->args[k] = (team_helper_arg){team, k, 0};
        team->cpu[k] = cpus[i];
        team->helpers += !start_bound(&team->ids[k], cpus[i], team_helper,
                                      &team->args[k]);
    }
    pthread_sigmask(SIG_SETMASK, &old, NULL);
}

/* The start of a call of `items` independent work items on `team`: locks it
 * and returns how many helpers the call has -- those of the team, more
 * started now where the call could use them (helper_cpus(items), each
 * bound to its CPU, within the team's limit), up to items - 1.  Without a
 * team (NULL),
 * helper_cpus(items) for run_team, their CPUs in `cpus`.  End the call with
 * team_run. */
static int team_acquire(repro_team *team, int64_t items, int *cpus)
{
    if (!team) return helper_cpus(items, cpus);
    pthread_mutex_lock(&team->call);
    const int here = sched_getcpu();
    if (team->helpers < 0) {
        team->helpers = 0;
        team->home = here;
    }
    /* the caller moved onto a helper's CPU: as run_team would bind it now,
     * that helper takes the CPU the caller left */
    for (int i = 0; i < team->helpers && here != team->home; i++) {
        if (team->cpu[i] != here) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(team->home, &one);
        if (!pthread_setaffinity_np(team->ids[i], sizeof one, &one)) {
            team->cpu[i] = team->home;
            team->home = here;
        }
    }
    int want = helper_cpus(items, cpus);
    if (team->limit && want > team->limit - 1) want = team->limit - 1;
    if (want > team->helpers)
        team_grow(team, cpus, helper_cpus(INT64_MAX, cpus), want);
    return items - 1 < team->helpers ? (int)(items > 0 ? items - 1 : 0)
                                     : team->helpers;
}

/* work(slot) for each of 1 + helpers slots (team_acquire's count) of `size`
 * bytes at `slots`, on the team -- slot 0 on the calling thread, slot i on
 * helper i - 1 -- and the call's end: the team is unlocked.  Without a team,
 * run_team. */
static void team_run(repro_team *team, void *(*work)(void *), void *slots,
                     size_t size, const int *cpus, int helpers)
{
    if (!team) {
        run_team(work, slots, size, cpus, helpers);
        return;
    }
    if (helpers) {
        team->work = work;
        team->slots = slots;
        team->size = size;
        team->done = 0;
        team_post(team, helpers);
    }
    work(slots);
    if (helpers)
        while (__atomic_load_n(&team->done, __ATOMIC_ACQUIRE) < helpers)
            sched_yield();
    pthread_mutex_unlock(&team->call);
}

/* A call that ends before it runs (its scratch could not be had). */
static void team_cancel(repro_team *team)
{
    if (team) pthread_mutex_unlock(&team->call);
}

/* One phase of a call whose team splits its work items: the next item no
 * thread has claimed, the items done, and the team's size. */
typedef struct {
    int64_t next, done;
    int threads;
} phase;

/* Chunks a phase is cut into per thread: several, so that a thread that
 * starts late or runs slow leaves its part to the others; few, so that a
 * claim costs nothing beside a chunk's work. */
enum { SHARES = 4 };

/* The next chunk [*lo, *hi) of a phase of `items` work items for the calling
 * thread, the one before it counted done; 0 when none is left, once every
 * item of the phase is done -- the barrier between a phase and the next,
 * which a thread waits out yielding its CPU.  It counts items, not threads,
 * so a helper that never started holds nothing up.  Without a team (`p`
 * NULL) the whole phase is one chunk.  Start with *lo = *hi = 0. */
static int claim(phase *p, int64_t items, int64_t *lo, int64_t *hi)
{
    if (!p) {
        *lo = *hi;
        *hi = items;
        return *lo < *hi;
    }
    if (*hi > *lo) __atomic_add_fetch(&p->done, *hi - *lo, __ATOMIC_RELEASE);
    const int64_t share = items / (SHARES * p->threads);
    const int64_t chunk = share > 1 ? share : 1;
    *lo = __atomic_fetch_add(&p->next, chunk, __ATOMIC_RELAXED);
    if (*lo < items) {
        *hi = items - *lo < chunk ? items : *lo + chunk;
        return 1;
    }
    *lo = *hi = items;
    while (__atomic_load_n(&p->done, __ATOMIC_ACQUIRE) < items) sched_yield();
    return 0;
}

/* for (i ...): the work items of phase `p` of `items` this thread claims. */
#define CLAIMED(i, p, items)                                                  \
    for (int64_t lo_ = 0, hi_ = 0, i; claim((p), (items), &lo_, &hi_);)       \
        for (i = lo_; i < hi_; i++)

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

/* seconds[leaf] += leaf's share of the laps of a call's `threads` threads
 * (a thread's `leaves` laps `stride` bytes after the thread's before it) of
 * the call's `wall` time: the leaves tile the call however many ran it. */
static void share_laps(double *seconds, int leaves, const double *laps,
                       size_t stride, int threads, double wall)
{
    double sums[4] = {0}, total = 0;
    for (int i = 0; i < threads; i++) {
        const double *own = (const double *)((const char *)laps + i * stride);
        for (int leaf = 0; leaf < leaves; leaf++) {
            sums[leaf] += own[leaf];
            total += own[leaf];
        }
    }
    if (total > 0)
        for (int leaf = 0; leaf < leaves; leaf++)
            seconds[leaf] += wall * (sums[leaf] / total);
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

/* Same-shape regions of a packed clover term of one lane as the lanes of
 * another: out (R, nb, 2, 36, W), the R regions side by side.  `dims` and
 * `extents` are (X, Y, Z, T); region r starts at origins[4 r ..] = (x, y,
 * z, t), which may be negative, and wraps periodically.  Floats when
 * `narrow` (a stack stored below the operator's precision: rounded as it is
 * gathered). */
void NAME(repro_clover_gather)(const REAL *packed, const int64_t *dims,
                               const int64_t *origins, int64_t R,
                               const int64_t *extents, void *out, int narrow)
{
    const int64_t v = extents[0] * extents[1] * extents[2] * extents[3];
    const int64_t nb = blocks_of(v);
    memset(out, 0, (size_t)(R * nb * CLOVER_ROWS * W)
           * (narrow ? sizeof(float) : sizeof(REAL)));
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
        const REAL *src = packed + g / W * CLOVER_ROWS * W + g % W;
        const int64_t to = (r * nb + i / W) * CLOVER_ROWS * W + i % W;
        for (int e = 0; e < CLOVER_ROWS; e++) {
            if (narrow) ((float *)out)[to + e * W] = (float)src[e * W];
            else ((REAL *)out)[to + e * W] = src[e * W];
        }
    }
}

/* The sites of one parity of a packed clover term (L, NB, 2, 36, W) on a
 * lattice of `dims` (X, Y, Z, T), X even, as the packed term of that
 * parity's half lattice (L, nb, 2, 36, W): its site (t, z, y, i) is x = 2 i
 * + (t + z + y + parity) % 2 (repro.lattice.geometry.to_parity). */
void NAME(repro_clover_parity)(const REAL *packed, int64_t L,
                               const int64_t *dims, int parity, REAL *out)
{
    const int64_t X = dims[0], Y = dims[1], Z = dims[2];
    const int64_t V = X * Y * Z * dims[3], NB = blocks_of(V);
    const int64_t v = V / 2, nb = blocks_of(v);
    memset(out, 0, (size_t)(L * nb * CLOVER_ROWS * W) * sizeof(REAL));
    for (int64_t l = 0; l < L; l++)
    for (int64_t i = 0; i < v; i++) {
        const int64_t g = parity_site(i, X / 2, Y, Z, parity);
        const REAL *src = packed + (l * NB + g / W) * CLOVER_ROWS * W + g % W;
        REAL *to = out + (l * nb + i / W) * CLOVER_ROWS * W + i % W;
        for (int e = 0; e < CLOVER_ROWS; e++) to[e * W] = src[e * W];
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

/* The X hop of a half lattice -- one parity's sites, site-compressed, X
 * sites a row -- inside one unit of U sites from row `row0` (of Y rows a Z
 * plane, Z planes a T slice): the rows whose (t + z + y + parity) is odd
 * move by one site forward, the others backward, with the boundary factor
 * where the move wraps; every other row is a copy.  `parity` is the target
 * sites' (repro.dirac.wilson.hop_sites's rows). */
static void NAME(shift_half)(REAL *restrict dst, const REAL *restrict src,
                             int64_t U, int64_t R, int64_t X, int64_t Y,
                             int64_t Z, int64_t row0, int parity, int forward,
                             int bc)
{
    for (int64_t at = 0, row = row0; at < U; at += X, row++) {
        const int64_t y = row % Y, z = row / Y % Z, t = row / (Y * Z);
        const int moves = (int)((t + z + y + parity) & 1) == forward;
        for (int k = 0; k < 12; k++) {
            REAL *restrict d = dst + k * R + at;
            const REAL *restrict s = src + k * R + at;
            if (!moves) {
                memcpy(d, s, (size_t)X * sizeof(REAL));
                continue;
            }
            REAL v;
            if (forward) {
                for (int64_t i = 0; i + 1 < X; i++) d[i] = s[i + 1];
                v = s[0];
            } else {
                for (int64_t i = X - 1; i > 0; i--) d[i] = s[i - 1];
                v = s[X - 1];
            }
            if (bc == ZERO) v = 0;
            else if (bc == ANTIPERIODIC) v = -v;
            d[forward ? X - 1 : 0] = v;
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
 * runs over contiguous sites.  Kept out of line: inlined into its callers
 * gcc 12 vectorises it worse (the block solve's conversions, 3x slower). */
__attribute__((noinline))
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
 * x[2 * (c * cstride + s * sstride)] -- as 24 rows of BLOCK reals, and back
 * (floats out when `narrow`). */
static void NAME(gather)(const REAL *x, int64_t cstride, int64_t sstride,
                         int64_t n, REAL *restrict block)
{
    for (int64_t s = 0; s < n; s++)
        for (int c = 0; c < 12; c++) {
            const int64_t at = 2 * (c * cstride + s * sstride);
            for (int part = 0; part < 2; part++)
                block[(2 * c + part) * BLOCK + s] = x[at + part];
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
        NAME(gather)(in + 2 * lo * sstride, cstride, sstride, n, block);
        NAME(quantize_rows)(block, BLOCK, n);
        NAME(scatter)(block, BLOCK, out + 2 * lo * sstride, 0, cstride,
                      sstride, n);
    }
}

/* The way in of the bare hop and of the block solve: a field of `lanes`
 * lanes of V sites (layout as for gather) -> the body's own site-vector copy
 * (lanes, NB, 12, 2, W), each site rounded to the half format on the way if
 * `half`.  BLOCK sites are transposed in a small buffer and leave as whole
 * blocks of W, one after the other. */
static void NAME(enter)(const REAL *x, int64_t cstride, int64_t sstride,
                        REAL *restrict xs, int64_t lanes, int64_t V, int half)
{
    REAL block[24 * BLOCK];
    const int64_t NB = blocks_of(V);
    for (int64_t lane = 0; lane < lanes; lane++)
    for (int64_t lo = 0; lo < V; lo += BLOCK) {
        const int64_t n = V - lo < BLOCK ? V - lo : BLOCK;
        NAME(gather)(x + 2 * (lane * V + lo) * sstride, cstride, sstride, n,
                     block);
        if (half) NAME(quantize_rows)(block, BLOCK, n);
        REAL *to = xs + (lane * NB + lo / W) * FIELD_ROWS * W;
        for (int64_t q = 0; q < n; q += W)
            for (int r = 0; r < FIELD_ROWS; r++, to += W)
                for (int t = 0; t < W; t++)
                    to[t] = q + t < n ? block[r * BLOCK + q + t] : 0;
    }
}

/* Element (row, col) of one chirality `a` of a packed term, W sites: the
 * diagonal's real part with a zero imaginary part (which decides the sign
 * of a zero), the upper triangle as stored, a lower element as the
 * conjugate of the one above it. */
static inline void NAME(packed_at)(const VEC *a, int row, int col, VEC *ar,
                                   VEC *ai)
{
    const VEC zero = {0};
    if (col > row) {
        *ar = a[upper(row, col)];
        *ai = a[upper(row, col) + 1];
    } else if (col < row) {
        *ar = a[upper(col, row)];
        *ai = zero - a[upper(col, row) + 1];
    } else {
        *ar = a[row];
        *ai = zero;
    }
}

/* The site-diagonal tail of _apply_sites on one unit -- the U sites from
 * site `here` of a lane -- in place on the split accumulator rows:
 *     acc *= hop;  acc += diag * x;
 *     per chirality, column by column:  acc6[c] += chiral[c, :, j] * x6[c, j]
 * `xb` is the lane's site-vector input, `packed` its packed clover term or
 * NULL for none.  A row's seven terms are summed in registers, in that
 * order, the clover elements as packed_at reads them. */
static void NAME(site_tail)(REAL *restrict acc, int64_t U, int64_t R,
                            const REAL *xb, const REAL *packed, int64_t here,
                            double diag, double hop)
{
    const VEC zero = {0}, d = zero + (REAL)diag, half = zero + (REAL)hop;
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
                VEC ar, ai;
                NAME(packed_at)(a, row, col, &ar, &ai);
                re += VMUL_RE(ar, ai, x[2 * col], x[2 * col + 1]);
                im += VMUL_IM(ar, ai, x[2 * col], x[2 * col + 1]);
            }
            *tr = re;
            *ti = im;
        }
    }
}

/* The other tail, a site-diagonal matrix alone: acc = A acc on one unit, per
 * chirality row by row, each row summed from +0 column by column (what
 * repro.dirac.clover.apply_chiral_sites adds into a zero field), the
 * elements as packed_at reads them.  The even-odd form's C_oo^{-1}. */
static void NAME(site_invert)(REAL *restrict acc, int64_t U, int64_t R,
                              const REAL *packed, int64_t here)
{
    const VEC zero = {0};
    VEC abuf[CLOVER_ROWS];
    for (int64_t j = 0; j < U; j += W) {
        const VEC *a = NAME(rows_of)(packed, CLOVER_ROWS, here + j, U - j, abuf);
        for (int c = 0; c < 2; c++, a += 36) {
            VEC xr[6], xi[6];
            for (int col = 0; col < 6; col++) {
                xr[col] = *(const VEC *)(acc + 2 * (c * 6 + col) * R + j);
                xi[col] = *(const VEC *)(acc + (2 * (c * 6 + col) + 1) * R + j);
            }
            for (int row = 0; row < 6; row++) {
                VEC re = zero, im = zero;
                for (int col = 0; col < 6; col++) {
                    VEC ar, ai;
                    NAME(packed_at)(a, row, col, &ar, &ai);
                    re += VMUL_RE(ar, ai, xr[col], xi[col]);
                    im += VMUL_IM(ar, ai, xr[col], xi[col]);
                }
                *(VEC *)(acc + 2 * (c * 6 + row) * R + j) = re;
                *(VEC *)(acc + (2 * (c * 6 + row) + 1) * R + j) = im;
            }
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

/* The same rows -> the U sites from site `here` of one lane's site-vector
 * field `xv` (rounded first if `half`): whole blocks where the unit starts
 * on one, a site at a time where not. */
static void NAME(leave_vectors)(REAL *restrict acc, int64_t U, int64_t R,
                                REAL *restrict xv, int64_t here, int half)
{
    if (half) NAME(quantize_rows)(acc, R, U);
    if (here % W == 0) {
        for (int64_t j = 0; j < U; j += W) {
            VEC *to = (VEC *)(xv + (here + j) / W * FIELD_ROWS * W);
            if (U - j >= W) {
                for (int r = 0; r < FIELD_ROWS; r++)
                    to[r] = *(const VEC *)(acc + r * R + j);
                continue;
            }
            for (int r = 0; r < FIELD_ROWS; r++)
                memcpy(to + r, acc + r * R + j, (size_t)(U - j) * sizeof(REAL));
        }
        return;
    }
    for (int64_t i = 0; i < U; i++) {
        REAL *to = xv + (here + i) / W * FIELD_ROWS * W + (here + i) % W;
        for (int r = 0; r < FIELD_ROWS; r++) to[r * W] = acc[r * R + i];
    }
}

/* ---- the reductions ---------------------------------------------------- */

/* Every reduction here -- the block solve's, the even-odd form's fused
 * steps', the Krylov loops' complex128 ones -- runs in ONE order the
 * repository defines, stated on (row, site, component) indices -- so no
 * layout, no BLAS build and no thread count moves it -- and written once
 * more in NumPy (repro.linalg.blas.lane_reduce, the reference and the
 * fallback):
 *
 *   - a term is re(a) re(b) + im(a) im(b) (the real part of conj(a) b) and
 *     re(a) im(b) - im(a) re(b) (its imaginary part), in double: a complex64
 *     field's reals are widened first, so their products are exact;
 *   - a site's sum is its 12 terms added in component order, from the
 *     first;
 *   - slot t < W sums the sites t, W + t, 2W + t, ... in site order, from
 *     the first (a slot no site falls in is +0): the W sites of a site
 *     vector are the W slots;
 *   - the W slot sums fold in halves: ((s0 + s4) + (s2 + s6)) + ((s1 + s5)
 *     + (s3 + s7)). */
typedef double NAME(dvec) __attribute__((
    vector_size(W * sizeof(double)), aligned(sizeof(double)), may_alias));
#define DVEC NAME(dvec)

static inline DVEC NAME(widen)(VEC v) { return __builtin_convertvector(v, DVEC); }

/* Block k's site sums `s`, of which the first n are sites, into the slots. */
static inline void NAME(slot_add)(DVEC *acc, DVEC s, int64_t k, int64_t n)
{
    if (n == W) {
        if (k) *acc += s;
        else *acc = s;
        return;
    }
    for (int t = 0; t < W; t++)
        if (t < n) (*acc)[t] = k ? (*acc)[t] + s[t] : s[t];
        else if (!k) (*acc)[t] = 0;
}

static inline double NAME(fold)(DVEC a)
{
    double h[W / 2], q[W / 4];
    for (int t = 0; t < W / 2; t++) h[t] = a[t] + a[t + W / 2];
    for (int t = 0; t < W / 4; t++) q[t] = h[t] + h[t + W / 4];
    return q[0] + q[1];
}

/* Sites of block k of a V-site field that are sites, not padding. */
static inline int64_t NAME(filled)(int64_t k, int64_t V)
{
    return V - k * W < W ? V - k * W : W;
}

/* The order splits over a team without moving a bit: a site's sum (its
 * terms in component order) is the same whichever thread computes it, and
 * the slot chains and the fold then run on one thread over the site sums.
 *
 * Where a field's elements lie for them: component c of site t has its
 * real part at at[t site + c comp] and its imaginary part `imag` reals
 * after it. */
typedef struct {
    const REAL *at;
    int64_t site, comp, imag;
} NAME(span);

/* k components a site, site-major, interleaved complex, from `at`. */
static inline NAME(span) NAME(interleaved)(const REAL *at, int64_t k)
{
    return (NAME(span)){at, 2 * k, 2, 1};
}

/* The reals of m <= W sites from p, `stride` apart, a lane a site (the
 * lanes past m +0). */
static inline DVEC NAME(lanes_of)(const REAL *p, int64_t stride, int64_t m)
{
    DVEC v = {0};
    if (m == W)
        for (int t = 0; t < W; t++) v[t] = p[t * stride];
    else
        for (int64_t t = 0; t < m; t++) v[t] = p[t * stride];
    return v;
}

/* The site sums of a run of n sites of k components: the terms of <a, b> --
 * re into sr, im into si -- or, b.at NULL, of |a|^2 into sr.  W sites at a
 * time, a lane a site: each lane's chain is its site's terms in component
 * order. */
static inline void NAME(site_terms)(NAME(span) a, NAME(span) b, int64_t k,
                                    int64_t n, double *sr, double *si)
{
    for (int64_t first = 0; first < n; first += W) {
        const int64_t m = n - first < W ? n - first : W;
        DVEC re = {0}, im = {0};
        for (int64_t c = 0; c < k; c++) {
            const REAL *x = a.at + first * a.site + c * a.comp;
            const DVEC ar = NAME(lanes_of)(x, a.site, m);
            const DVEC ai = NAME(lanes_of)(x + a.imag, a.site, m);
            DVEC tr, ti = {0};
            if (b.at) {
                const REAL *y = b.at + first * b.site + c * b.comp;
                const DVEC br = NAME(lanes_of)(y, b.site, m);
                const DVEC bi = NAME(lanes_of)(y + b.imag, b.site, m);
                tr = ar * br + ai * bi;
                ti = ar * bi - ai * br;
            } else {
                tr = ar * ar + ai * ai;
            }
            if (c) {
                re += tr;
                im += ti;
            } else {
                re = tr;
                im = ti;
            }
        }
        for (int64_t t = 0; t < m; t++) {
            sr[first + t] = re[t];
            if (b.at) si[first + t] = im[t];
        }
    }
}

/* The slot chains and the fold of `parts` reductions of `rows` rows, each
 * S site sums at sums[(part * rows + row) * SP] (SP >= S a multiple of W):
 * out[row * parts + part]. */
static void NAME(chains)(const double *sums, int parts, int64_t rows,
                         int64_t S, int64_t SP, double *out)
{
    for (int64_t row = 0; row < rows; row++)
        for (int part = 0; part < parts; part++) {
            const double *v = sums + (part * rows + row) * SP;
            DVEC acc = {0};
            for (int64_t k = 0; k < blocks_of(S); k++)
                NAME(slot_add)(&acc, *(const DVEC *)(v + k * W), k,
                               NAME(filled)(k, S));
            out[row * parts + part] = NAME(fold)(acc);
        }
}

/* repro.linalg.blas.lane_reduce, unthreaded: per row of `rows` rows of S
 * sites of k components (site-major, interleaved complex), <x, y> into
 * out[2 row] + i out[2 row + 1] or, `y` NULL, |x|^2 into out[row]. */
void NAME(repro_lane_reduce)(int64_t rows, int64_t S, int64_t k,
                             const REAL *x, const REAL *y, double *out)
{
    for (int64_t row = 0; row < rows; row++) {
        DVEC re = {0}, im = {0};
        for (int64_t j = 0; j < blocks_of(S); j++) {
            const int64_t n = NAME(filled)(j, S), at = 2 * k * (row * S + j * W);
            double sr[W] = {0}, si[W] = {0};
            NAME(site_terms)(NAME(interleaved)(x + at, k),
                             NAME(interleaved)(y ? y + at : NULL, k), k, n,
                             sr, si);
            DVEC vr, vi;
            memcpy(&vr, sr, sizeof vr);
            NAME(slot_add)(&re, vr, j, n);
            if (!y) continue;
            memcpy(&vi, si, sizeof vi);
            NAME(slot_add)(&im, vi, j, n);
        }
        if (y) {
            out[2 * row] = NAME(fold)(re);
            out[2 * row + 1] = NAME(fold)(im);
        } else {
            out[row] = NAME(fold)(re);
        }
    }
}

/* What a stencil call reads besides its field: the links the forward hop
 * reads (at the target sites) and those the backward hop reads (at the
 * source sites; on the full lattice the same array), both (2, mu, b, a,
 * lane, sites) of which the forward half; `parity`, the target sites' on a
 * half lattice -- one parity, site-compressed, the field the other one --
 * or -1 on the full lattice; `xt`, the target sites' field (site vectors;
 * on the full lattice the stencil's own); and what follows the hops (to !=
 * BARE): where `xt` is not NULL the matrix tail acc = hop * acc + diag * xt
 * + A xt (`packed` A or NULL), then acc = inverse acc where `inverse` is not
 * NULL.  With neither, the result is the hops alone. */
typedef struct {
    const REAL *links, *back;
    int parity;
    const REAL *xt, *packed;
    double diag, hop;
    const REAL *inverse;
    /* The way-out reductions (SITE_MAJOR only; `sums` NULL: none), see
     * NAME(site_sums): row b's site g at sums[b SP + g]. */
    const REAL *with;
    int conj_out, norm;
    double *sums;
    int64_t SP, stride;
} NAME(sites);

/* The way-out reductions of a unit: per site of the U sites of the result
 * from the unit's first, as its split accumulator rows `acc` (stride R) hold
 * them, the sum of the terms of <with, out> -- <out, with> if `conj_out` --
 * and then of |out|^2 if `norm` (see "the reductions"), into `sums` and the
 * parts after it, `stride` apart; `with` the caller's site-major field at
 * the unit's first site, or NULL: |out|^2 alone. */
static void NAME(site_sums)(const REAL *acc, int64_t U, int64_t R,
                            const REAL *with, int conj_out, int norm,
                            double *sums, int64_t stride)
{
    const NAME(span) out = {acc, 1, 2 * R, R};
    if (with) {
        const NAME(span) w = NAME(interleaved)(with, 12);
        NAME(site_terms)(conj_out ? out : w, conj_out ? w : out, 12, U, sums,
                         sums + stride);
        sums += 2 * stride;
    }
    if (norm)
        NAME(site_terms)(out, NAME(interleaved)(NULL, 12), 12, U, sums, NULL);
}

/* The sites of the stencil's walk unit (see below) on the lattice n = (X,
 * Y, Z, T); `*inner` the axes inside it. */
static int64_t NAME(unit_of)(const int64_t n[4], int *inner)
{
    int64_t U = n[0] * n[1];
    *inner = 2; /* axes mu < inner lie inside the unit */
    while (*inner < 4 && U * n[*inner] * sizeof(REAL) <= 1024)
        U *= n[(*inner)++];
    return U;
}

/* The walk's scratch on a T Z Y X lattice, in reals. */
static int64_t NAME(walk_reals)(int64_t T, int64_t Z, int64_t Y, int64_t X)
{
    const int64_t n[4] = {X, Y, Z, T};
    int inner;
    return 48 * blocks_of(NAME(unit_of)(n, &inner)) * W;
}

/* The 8-hop stencil core on the site-vector field `xs`, bare (`to` BARE:
 * out = D x, lattice-last) or with a tail behind it (see NAME(sites)), the
 * matrix's being out = round((4 + m) x - D x / 2 + A x): site-major
 * (SITE_MAJOR, see repro_wilson_apply) or site vectors like `xs`
 * (SITE_VECTORS, the block solve's).  `spins` is (8, 4) int32 -- per hop (mu forward, mu
 * backward, ...) the two lower spins the projection reads and the two
 * half-spinor rows the reconstruction reads -- and `coef` (8, 4) complex:
 * the two projection and the two reconstruction phases.  bc[mu] is the
 * boundary code.  Lanes l with live[l] 0 are skipped (`live` NULL: none).
 * `scratch` is the walk's (NAME(walk_reals) of them, on a cache line), or
 * NULL for the stencil's own.  Returns nonzero when that cannot be had.
 *
 * The lattice is walked in units: the (Y, X) plane, grown by Z and then T
 * while the unit's scratch (48 reals a site) stays near the L1 cache, so
 * small blocks are not all loop overhead.  A hop along an axis inside the
 * unit is a shift within it; along an outer axis it reads another unit.
 * The work items (b, l, unit) write disjoint sites, so a team may split
 * them: with `work` the phase they are claimed from (see claim), else all
 * of them in order. */
static int NAME(stencil)(const REAL *xs, const NAME(sites) *on, void *out,
                         int to, int narrow, int half,
                         const int32_t *spins, const REAL *coef,
                         int64_t nb, int64_t nl, int64_t T, int64_t Z,
                         int64_t Y, int64_t X, const int32_t *bc,
                         const unsigned char *live, REAL *scratch,
                         phase *work, double *seconds, struct timespec *mark)
{
    const int64_t n[4] = {X, Y, Z, T};
    const int64_t V = T * Z * Y * X, NB = blocks_of(V);
    int inner;
    const int64_t U = NAME(unit_of)(n, &inner);
    const int64_t units = V / U;
    const int64_t R = blocks_of(U) * W; /* scratch row stride: whole vectors */
    const int64_t cs = 2 * nb * nl * V; /* field component stride, reals */
    const int64_t ls = 2 * nl * V;      /* link element stride, reals */
    void *raw = NULL;
    REAL *h = scratch ? scratch
                      : aligned_scratch((size_t)(48 * R) * sizeof(REAL), &raw);
    if (!h) return 1;
    memset(h, 0, (size_t)(48 * R) * sizeof(REAL));
    REAL *g = h + 12 * R, *acc = g + 12 * R;

    CLAIMED(item, work, nb * nl * units) {
        const int64_t unit = item % units, l = item / units % nl;
        if (live && !live[l]) continue;
        const int64_t row = item / units; /* b * nl + l */
        const REAL *xb = xs + row * NB * FIELD_ROWS * W;
        const REAL *xt = on->xt ? on->xt + row * NB * FIELD_ROWS * W : NULL;
        const REAL *packed = on->packed
            ? on->packed + l * NB * CLOVER_ROWS * W : NULL;
        const REAL *inverse = on->inverse
            ? on->inverse + l * NB * CLOVER_ROWS * W : NULL;
        const REAL *ul = on->links + 2 * l * V, *ub = on->back + 2 * l * V;
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
            const REAL *u = ul + mu * 9 * ls, *uback = ub + mu * 9 * ls;
            const int halved = mu == 0 && on->parity >= 0;
            REAL *result;
            NAME(project)(xb, from, U, R, sp, cf, h);
            if (forward) {
                /* U(x) [P psi](x + mu): shift, then multiply */
                if (halved) {
                    NAME(shift_half)(g, h, U, R, X, Y, Z, here / X,
                                     on->parity, 1, bc[0]);
                    NAME(link_apply)(g, u + 2 * here, ls, U, R, 0,
                                     result = h);
                } else if (mu < inner) {
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
                NAME(link_apply)(h, uback + 2 * from, ls, U, R, 1,
                                 result = g);
                if (halved)
                    NAME(shift_half)(result = h, g, U, R, X, Y, Z,
                                     here / X, on->parity, 0, bc[0]);
                else if (mu < inner)
                    NAME(shift_unit)(result = h, g, U, R, d, n[mu], 0,
                                     bc[mu]);
                else if (crossed)
                    NAME(cross)(g, 12 * R, bc[mu]);
            }
            NAME(accumulate)(result, R, sp + 2, cf + 4, acc);
        }
        const int64_t site = row * V + here;
        if (to != BARE) {
            if (seconds) seconds[HOPS] += lap(mark);
            if (on->xt)
                NAME(site_tail)(acc, U, R, xt, packed, here, on->diag,
                                on->hop);
            if (inverse) NAME(site_invert)(acc, U, R, inverse, here);
            if (on->sums)
                NAME(site_sums)(acc, U, R, on->with ? on->with + 24 * site : NULL,
                                on->conj_out, on->norm,
                                on->sums + row / nl * on->SP + row % nl * V
                                    + here, on->stride);
            if (seconds) seconds[TAIL] += lap(mark);
            if (to == SITE_VECTORS)
                NAME(leave_vectors)(acc, U, R,
                                    (REAL *)out + row * NB * FIELD_ROWS * W,
                                    here, half);
            else
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
    free(raw);
    return 0;
}

/* Reals of one parity's links (mu, b, a, lane, sites) in the even-odd
 * form's forward links split by parity (parity, mu, b, a, lane, sites). */
static inline int64_t NAME(parity_links)(int64_t nl, int64_t V)
{
    return 4 * 9 * 2 * nl * V;
}

/* out = D x on lattice-last fields (repro.dirac.wilson.hop_sites): on the
 * full lattice (parity -1, links (2, mu, b, a, lane, sites)), or from the
 * other parity onto the sites of `parity` of a half lattice T Z Y X (the
 * forward links split by parity, (parity, mu, b, a, lane, sites)).  On the
 * calling thread alone: only rank programs and NumPy fallbacks call it.
 * Returns nonzero when the scratch cannot be had. */
int NAME(repro_wilson_hop)(const REAL *x, const REAL *links, REAL *out,
                           const int32_t *spins, const REAL *coef,
                           int64_t nb, int64_t nl, int64_t T, int64_t Z,
                           int64_t Y, int64_t X, const int32_t *bc,
                           int parity)
{
    const int64_t V = T * Z * Y * X, P = NAME(parity_links)(nl, V);
    const NAME(sites) on = {
        parity < 0 ? links : links + parity * P,
        parity < 0 ? links : links + (1 - parity) * P,
        parity, NULL, NULL, 0.0, 0.0, NULL,
    };
    void *raw;
    REAL *xs = aligned_scratch(
        (size_t)(nb * nl * blocks_of(V) * FIELD_ROWS * W) * sizeof(REAL), &raw);
    if (!xs) return 1;
    NAME(enter)(x, nb * nl * V, 1, xs, nb * nl, V, 0);
    const int failed = NAME(stencil)(xs, &on, out, BARE, 0, 0, spins, coef,
                                     nb, nl, T, Z, Y, X, bc, NULL, NULL, NULL,
                                     NULL, NULL);
    free(raw);
    return failed;
}

/* ---- the even-odd form and the whole matrix --------------------------- */

/* EvenOddPreconditionedWilson's compiled entries, on the caller's site-major
 * fields: half-lattice ones of the even parity (nb, nl, T, Z, Y, X, 4, 3)
 * and full-lattice ones read and written a parity at a time (nb, nl, T, Z,
 * Y, 2 X, 4, 3), T Z Y X the half lattice of the bound operands `s`; all
 * float complex if `narrow` (widened on the way in, rounded once on the way
 * out).  Each tail is the NumPy pass's it stands for, in its order.  They
 * return nonzero when the scratch cannot be had.  The whole matrix on the
 * full lattice, repro_wilson_apply, is built the same way.
 *
 * Each entry is a few phases of independent work items -- the site-vector
 * blocks (lane, k) of a field, or the stencil's units (b, l, unit) -- run by
 * ONE team a call, the solve's (see team_acquire) or the call's own, the
 * calling thread and the helpers of run_team: every thread claims chunks of
 * a phase's items (see claim), and no thread starts the next phase before
 * every item of this one is done, for a hop reads the neighbours of its
 * sites, which other threads wrote.  One team, not one a
 * hop: starting a helper costs about what a phase of a small call does.  An
 * item's arithmetic does not depend on the thread that runs it and items
 * write disjoint sites, so the bits are one thread's.  Every thread's
 * scratch is had before any starts. */

/* One call as its threads read it: the fields in, `x` and `b`, and out,
 * `out` and `r` (each entry names its own); the call's site-vector fields,
 * one after the other at `v`; its phases, in the order the entry runs them.
 * A fused BiCGstab step (`step`, see NAME(enter_step)) also writes `x`,
 * reads `u` and `y` and the coefficients `coef` on the way in, and makes the
 * way-out reductions of `out` with `with` (see NAME(site_sums)) into `sums`,
 * SP a row.  `half`: the whole apply's storage rounding (see
 * repro_wilson_apply), in and out. */
typedef struct {
    const void *x, *b;
    void *out, *r;
    int narrow;
    int64_t nb;
    const schur_operands *s;
    REAL *v;
    phase phases[5];
    int step;
    const REAL *u, *y, *coef, *with;
    int conj_out, norm;
    double *sums;
    int64_t SP;
    int half;
} NAME(schur_call);

/* A thread's own: the walk's scratch and its leaves' laps. */
typedef struct {
    NAME(schur_call) *call;
    REAL *walk;
    double seconds[3];
    int timed;
} NAME(schur_thread);

/* The hops from the other parity onto the sites of `parity`, with the tail
 * `xt`, `packed`, `diag`, `hop`, `inverse` behind them (see NAME(sites)). */
static NAME(sites) NAME(onto)(const schur_operands *s, int parity,
                              const REAL *xt, const void *packed, double diag,
                              double hop, const void *inverse)
{
    const REAL *links = s->links;
    const int64_t P = NAME(parity_links)(s->nl, s->T * s->Z * s->Y * s->X);
    const NAME(sites) on = {links + parity * P, links + (1 - parity) * P,
                            parity, xt, packed, diag, hop, inverse};
    return on;
}

/* Thread t's part of the phase `work` of the call's hops. */
static void NAME(hops)(const NAME(schur_thread) *t, const REAL *xs,
                       const NAME(sites) *on, void *out, int to, phase *work,
                       double *seconds, struct timespec *mark)
{
    const NAME(schur_call) *c = t->call;
    const schur_operands *s = c->s;
    NAME(stencil)(xs, on, out, to, c->narrow, c->half, s->spins, s->coef,
                  c->nb, s->nl, s->T, s->Z, s->Y, s->X, s->bc, NULL, t->walk,
                  work, seconds, mark);
}

/* Block k of lane `lane` of a site-major field -> its site vectors `to`
 * (12, 2, W), zeros past the field's last site: a half-lattice field
 * (`parity` -1), or one parity of a full-lattice one. */
static void NAME(enter_block)(const void *x, int narrow, REAL *restrict to,
                              int64_t lane, int64_t k,
                              const schur_operands *s, int parity)
{
    const int64_t V = s->T * s->Z * s->Y * s->X;
    for (int t = 0; t < W; t++) {
        const int64_t g = k * W + t;
        const int64_t at = g >= V ? 0 : FIELD_ROWS * (parity < 0
            ? lane * V + g
            : 2 * lane * V + parity_site(g, s->X, s->Y, s->Z, parity));
        for (int r = 0; r < FIELD_ROWS; r++)
            to[r * W + t] = g >= V ? 0
                : narrow ? (REAL)((const float *)x)[at + r]
                : ((const REAL *)x)[at + r];
    }
}

/* Block k of lane `lane` of a site-vector field -> its sites' places of one
 * parity of a full-lattice field. */
static void NAME(leave_parity)(const REAL *block, void *out, int narrow,
                               int64_t lane, int64_t k,
                               const schur_operands *s, int parity)
{
    const int64_t V = s->T * s->Z * s->Y * s->X;
    for (int t = 0; t < W && k * W + t < V; t++) {
        const int64_t at = FIELD_ROWS * (2 * lane * V
            + parity_site(k * W + t, s->X, s->Y, s->Z, parity));
        for (int r = 0; r < FIELD_ROWS; r++) {
            if (narrow) ((float *)out)[at + r] = (float)block[r * W + t];
            else ((REAL *)out)[at + r] = block[r * W + t];
        }
    }
}

/* A block of the operator's precision as the caller's field holds it:
 * rounded to float where that is narrower. */
static void NAME(narrowed)(REAL *block, int narrow)
{
    if (narrow)
        for (int i = 0; i < FIELD_ROWS * W; i++) block[i] = (REAL)(float)block[i];
}

/* m <- b - m, m the caller's dtype's (NAME(narrowed)): `b - M x` of the
 * field's dtype (a difference of two floats, exact in double, rounds once
 * to the float difference). */
static void NAME(residual)(REAL *restrict m, const REAL *restrict b,
                           int narrow)
{
    NAME(narrowed)(m, narrow);
    for (int i = 0; i < FIELD_ROWS * W; i++) m[i] = b[i] - m[i];
}

/* `work` on one team -- the solve's `team`, or one of the call's own if
 * that is NULL -- with `fields` site-vector fields of the call's lanes its
 * scratch: helpers as many as the stencil's units allow (team_acquire).
 * `seconds`, unless NULL, gains each leaf's share of the threads' laps, of
 * the call's wall time (share_laps). */
static int NAME(schur_team)(void *(*work)(void *), NAME(schur_call) *call,
                            int64_t fields, double *seconds, repro_team *team)
{
    const schur_operands *s = call->s;
    const int64_t n[4] = {s->X, s->Y, s->Z, s->T};
    const int64_t V = s->T * s->Z * s->Y * s->X, lanes = call->nb * s->nl;
    const int64_t F = fields * lanes * blocks_of(V) * FIELD_ROWS * W;
    const int64_t H = NAME(walk_reals)(s->T, s->Z, s->Y, s->X);
    int inner, cpus[CPU_SETSIZE];
    const int64_t units = lanes * (V / NAME(unit_of)(n, &inner));
    const int helpers = team_acquire(team, units, cpus), threads = 1 + helpers;
    void *raw;
    REAL *v = aligned_scratch(
        (size_t)(F + threads * H) * sizeof(REAL)
        + (size_t)threads * sizeof(NAME(schur_thread)), &raw);
    if (!v) {
        team_cancel(team);
        return 1;
    }
    NAME(schur_thread) *slots = (NAME(schur_thread) *)(v + F + threads * H);
    call->v = v;
    for (size_t k = 0; k < sizeof call->phases / sizeof *call->phases; k++)
        call->phases[k] = (phase){0, 0, threads};
    for (int i = 0; i < threads; i++)
        slots[i] = (NAME(schur_thread)){call, v + F + i * H, {0},
                                        seconds != NULL};
    struct timespec mark;
    if (seconds) clock_gettime(CLOCK_MONOTONIC, &mark);
    team_run(team, work, slots, sizeof *slots, cpus, helpers);
    if (seconds)
        share_laps(seconds, 3, slots->seconds, sizeof *slots, threads,
                   lap(&mark));
    free(raw);
    return 0;
}

/* The way in of a fused BiCGstab step, on block k of lane `lane` of `x`:
 * per site and component the vector pass it stands for --
 *     DIRECTION (coefficients c, b):  x = y + b (x + c u)   (bicgstab_direction)
 *     UPDATE    (coefficient a):      x = x + a u           (update)
 * in the caller's site-major `x` -- then the result's site vectors `to`, as
 * enter_block; the coefficients are the lane's row's (see "the solvers'
 * vector updates"). */
static void NAME(enter_step)(const NAME(schur_call) *c, REAL *restrict to,
                             int64_t lane, int64_t k)
{
    const schur_operands *s = c->s;
    const int64_t V = s->T * s->Z * s->Y * s->X;
    const int direction = c->step == DIRECTION;
    const REAL *cf = c->coef + (direction ? 4 : 2) * (lane / s->nl);
    for (int t = 0; t < W; t++) {
        const int64_t g = k * W + t;
        if (g >= V) {
            for (int r = 0; r < FIELD_ROWS; r++) to[r * W + t] = 0;
            continue;
        }
        const int64_t at = FIELD_ROWS * (lane * V + g);
        REAL *x = (REAL *)c->x + at;
        const REAL *u = c->u + at, *y = c->y ? c->y + at : NULL;
        for (int e = 0; e < 24; e += 2) {
            const REAL ur = u[e], ui = u[e + 1];
            REAL re, im;
            if (direction) {
                const REAL tr = x[e] + CMUL_RE(cf[0], cf[1], ur, ui);
                const REAL ti = x[e + 1] + CMUL_IM(cf[0], cf[1], ur, ui);
                re = y[e] + CMUL_RE(cf[2], cf[3], tr, ti);
                im = y[e + 1] + CMUL_IM(cf[2], cf[3], tr, ti);
            } else {
                re = x[e] + CMUL_RE(cf[0], cf[1], ur, ui);
                im = x[e + 1] + CMUL_IM(cf[0], cf[1], ur, ui);
            }
            x[e] = re;
            x[e + 1] = im;
            to[e * W + t] = re;
            to[(e + 1) * W + t] = im;
        }
    }
}

/* The Schur complement, EvenOddPreconditionedWilson._apply:
 *     t = C_oo^{-1} D x,    out = (4 + m) x - 1/4 D t + A_ee x
 * on even half-lattice fields, t site vectors from one hop to the other.
 * The -1/4 is the matrix tail's -1/2 with the other power of two: the
 * NumPy body's `out *= -0.25`.  Phases: x in, the odd hop, the even hop.
 * `seconds`, unless NULL, gains the time spent converting (in and out),
 * hopping and in the tails. */
static void *NAME(apply_worker)(void *arg)
{
    NAME(schur_thread) *t = arg;
    NAME(schur_call) *c = t->call;
    const schur_operands *s = c->s;
    const int64_t NB = blocks_of(s->T * s->Z * s->Y * s->X);
    const int64_t lanes = c->nb * s->nl, F = lanes * NB * FIELD_ROWS * W;
    REAL *xs = c->v, *odd = xs + F;
    double *seconds = t->timed ? t->seconds : NULL;
    struct timespec mark;
    if (seconds) clock_gettime(CLOCK_MONOTONIC, &mark);
    CLAIMED(i, &c->phases[0], lanes * NB) {
        if (c->step)
            NAME(enter_step)(c, xs + i * FIELD_ROWS * W, i / NB, i % NB);
        else
            NAME(enter_block)(c->x, c->narrow, xs + i * FIELD_ROWS * W,
                              i / NB, i % NB, s, -1);
    }
    if (seconds) seconds[CONVERT] += lap(&mark);
    const NAME(sites) onto_odd = NAME(onto)(s, 1, NULL, NULL, 0.0, 0.0,
                                            s->inverse);
    NAME(sites) even = NAME(onto)(s, 0, xs, s->even, s->diag, -0.25, NULL);
    even.with = c->with;
    even.conj_out = c->conj_out;
    even.norm = c->norm;
    even.sums = c->sums;
    even.SP = c->SP;
    even.stride = c->nb * c->SP;
    NAME(hops)(t, xs, &onto_odd, odd, SITE_VECTORS, &c->phases[1], seconds,
               &mark);
    NAME(hops)(t, odd, &even, c->out, SITE_MAJOR, &c->phases[2], seconds,
               &mark);
    return NULL;
}

int NAME(repro_schur_apply)(const void *x, void *out, int narrow, int64_t nb,
                            const schur_operands *s, double *seconds,
                            repro_team *team)
{
    NAME(schur_call) call = {x, NULL, out, NULL, narrow, nb, s};
    return NAME(schur_team)(NAME(apply_worker), &call, 2, seconds, team);
}

/* The whole matrix, WilsonCloverOperator._apply_sites, its operands `s` on
 * the FULL lattice T Z Y X: the links (2, mu, b, a, lane, sites) in `links`,
 * the packed clover term in `even` (or NULL for none), no `odd` or
 * `inverse`.  Phases: x in (rounded to the half format if `half`), then the
 * hops with the tail and the way out behind them. */
static void *NAME(matrix_worker)(void *arg)
{
    NAME(schur_thread) *t = arg;
    NAME(schur_call) *c = t->call;
    const schur_operands *s = c->s;
    const int64_t NB = blocks_of(s->T * s->Z * s->Y * s->X);
    double *seconds = t->timed ? t->seconds : NULL;
    struct timespec mark;
    if (seconds) clock_gettime(CLOCK_MONOTONIC, &mark);
    CLAIMED(i, &c->phases[0], c->nb * s->nl * NB) {
        REAL *to = c->v + i * FIELD_ROWS * W;
        NAME(enter_block)(c->x, c->narrow, to, i / NB, i % NB, s, -1);
        if (c->half) NAME(quantize_rows)(to, W, W);
    }
    if (seconds) seconds[CONVERT] += lap(&mark);
    const NAME(sites) on = {s->links, s->links, -1, c->v, s->even, s->diag,
                            -0.5, NULL};
    NAME(hops)(t, c->v, &on, c->out, SITE_MAJOR, &c->phases[1], seconds,
               &mark);
    return NULL;
}

/* On the caller's site-major fields (nb, nl, T, Z, Y, X, 4, 3):
 *     out = round(diag * x' - 1/2 D x' + A x'),   x' = round(x)
 * with `packed` the packed clover term (nl, NB, 2, 36, W) or NULL, the
 * rounding the half format if `half` and none otherwise, and x / out float
 * complex if `narrow` (a field narrower than the operator: widened on the
 * way in, rounded once on the way out) -- on the solve's `team`, or on one
 * of the call's own (NULL), as the even-odd entries run.  `seconds`, unless
 * NULL, gains the time spent converting (in and out), hopping and in the
 * tail.  Returns nonzero when the scratch cannot be had. */
int NAME(repro_wilson_apply)(const void *x, const REAL *links,
                             const REAL *packed, double diag, void *out,
                             int narrow, int half,
                             const int32_t *spins, const REAL *coef,
                             int64_t nb, int64_t nl, int64_t T, int64_t Z,
                             int64_t Y, int64_t X, const int32_t *bc,
                             double *seconds, repro_team *team)
{
    const schur_operands s = {links, packed, NULL, NULL, diag, spins, coef,
                              bc, nl, T, Z, Y, X};
    NAME(schur_call) call = {x, NULL, out, NULL, narrow, nb, &s};
    call.half = half;
    return NAME(schur_team)(NAME(matrix_worker), &call, 1, seconds, team);
}

/* A fused step: the apply of `call`, its way in the step's, and the way-out
 * reductions' slot chains and folds into red[row * parts + part]. */
static int NAME(schur_step)(NAME(schur_call) *call, int parts,
                            double *seconds, repro_team *team, double *red)
{
    const schur_operands *s = call->s;
    const int64_t S = s->nl * s->T * s->Z * s->Y * s->X;
    call->SP = blocks_of(S) * W;
    void *raw;
    call->sums = aligned_scratch(
        (size_t)(parts * call->nb * call->SP) * sizeof(double), &raw);
    if (!call->sums) return 1;
    const int failed = NAME(schur_team)(NAME(apply_worker), call, 2, seconds,
                                        team);
    if (!failed) NAME(chains)(call->sums, parts, call->nb, S, call->SP, red);
    free(raw);
    return failed;
}

/* BiCGstab's new direction and its apply, with the reduction behind it:
 *     p = r + b (p + c v),   v = Mhat p,   red = <rhat, v>
 * p and v in place (the old v is read on the way in, the new one written on
 * the way out), coefficients (c, b) a row as the bicgstab_direction pass
 * takes them, red re and im a row.  Fields of the operator's dtype. */
int NAME(repro_schur_direction)(REAL *p, const REAL *r, REAL *v,
                                const REAL *rhat, const REAL *coef,
                                int64_t nb, const schur_operands *s,
                                double *seconds, repro_team *team,
                                double *red)
{
    NAME(schur_call) call = {p, NULL, v, NULL, 0, nb, s};
    call.step = DIRECTION;
    call.u = v;
    call.y = r;
    call.coef = coef;
    call.with = rhat;
    return NAME(schur_step)(&call, 2, seconds, team, red);
}

/* BiCGstab's half step and the apply of its result, with the reductions
 * behind it:
 *     s = r + a v  (in r),   t = Mhat s,   red = <t, s>, |t|^2
 * the coefficient a (-alpha) a row as the update pass takes it, red re, im
 * and the norm a row.  Fields of the operator's dtype. */
int NAME(repro_schur_update)(REAL *r, const REAL *v, REAL *t,
                             const REAL *coef, int64_t nb,
                             const schur_operands *s, double *seconds,
                             repro_team *team, double *red)
{
    NAME(schur_call) call = {r, NULL, t, NULL, 0, nb, s};
    call.step = UPDATE;
    call.u = v;
    call.coef = coef;
    call.with = r;
    call.conj_out = 1;
    call.norm = 1;
    return NAME(schur_step)(&call, 3, seconds, team, red);
}

/* The Schur system's right-hand side, prepare_rhs, of the full-lattice b:
 *     out = 1/2 D (C_oo^{-1} b_o) + 1 b_e
 * an even half-lattice field.  Phases: b in (C_oo^{-1} on the odd sites),
 * the hop. */
static void *NAME(rhs_worker)(void *arg)
{
    NAME(schur_thread) *t = arg;
    NAME(schur_call) *c = t->call;
    const schur_operands *s = c->s;
    const int64_t NB = blocks_of(s->T * s->Z * s->Y * s->X);
    const int64_t lanes = c->nb * s->nl, F = lanes * NB * FIELD_ROWS * W;
    REAL *xo = c->v, *xe = xo + F;
    CLAIMED(i, &c->phases[0], lanes * NB) {
        const int64_t lane = i / NB, k = i % NB, at = i * FIELD_ROWS * W;
        NAME(enter_block)(c->b, c->narrow, xo + at, lane, k, s, 1);
        NAME(site_invert)(xo + at, W, W,
                          (const REAL *)s->inverse
                              + lane % s->nl * NB * CLOVER_ROWS * W,
                          k * W);
        NAME(enter_block)(c->b, c->narrow, xe + at, lane, k, s, 0);
    }
    const NAME(sites) even = NAME(onto)(s, 0, xe, NULL, 1.0, 0.5, NULL);
    NAME(hops)(t, xo, &even, c->out, SITE_MAJOR, &c->phases[1], NULL, NULL);
    return NULL;
}

int NAME(repro_schur_rhs)(const void *b, void *out, int narrow, int64_t nb,
                          const schur_operands *s, repro_team *team)
{
    NAME(schur_call) call = {NULL, b, out, NULL, narrow, nb, s};
    return NAME(schur_team)(NAME(rhs_worker), &call, 2, NULL, team);
}

/* The full solution x of M x = b from the even half-lattice x_e
 * (reconstruct) and, unless `r` is NULL, its full residual r = b - M x
 * (reconstruct_residual), x, b and r full-lattice fields:
 *     h = D x_e onto the odd sites
 *     x_o = C_oo^{-1} (1/2 h + 1 b_o),   x_e as it is
 *     r_o = b_o - (-1/2 h + diag x_o + A_oo x_o)
 *     r_e = b_e - (-1/2 D x_o + diag x_e + A_ee x_e)
 * x_o read back as x holds it: one odd-site hop serves the back-substitution
 * and the residual.  Phases: x_e and b_o in, the odd hop, the odd sites out
 * (x_o, r_o; b_e in where a block's b_o was); then, for r, the even hop and
 * the even sites of r out. */
static void *NAME(solution_worker)(void *arg)
{
    NAME(schur_thread) *t = arg;
    NAME(schur_call) *c = t->call;
    const schur_operands *s = c->s;
    const int64_t NB = blocks_of(s->T * s->Z * s->Y * s->X);
    const int64_t lanes = c->nb * s->nl, F = lanes * NB * FIELD_ROWS * W;
    const REAL *inverse = s->inverse, *odd = s->odd;
    REAL *ve = c->v, *vb = ve + F, *h = vb + F, *vo = h + F;
    const size_t bytes = FIELD_ROWS * (c->narrow ? sizeof(float)
                                                 : sizeof(REAL));
    CLAIMED(i, &c->phases[0], lanes * NB) {
        const int64_t at = i * FIELD_ROWS * W;
        NAME(enter_block)(c->x, c->narrow, ve + at, i / NB, i % NB, s, -1);
        NAME(enter_block)(c->b, c->narrow, vb + at, i / NB, i % NB, s, 1);
    }
    const NAME(sites) onto_odd = NAME(onto)(s, 1, NULL, NULL, 0.0, 0.0, NULL);
    NAME(hops)(t, ve, &onto_odd, h, SITE_VECTORS, &c->phases[1], NULL, NULL);
    CLAIMED(i, &c->phases[2], lanes * NB) {
        const int64_t lane = i / NB, k = i % NB, at = i * FIELD_ROWS * W;
        const int64_t held = lane % s->nl * NB * CLOVER_ROWS * W;
        REAL *hk = h + at, *xk = vo + at;
        memcpy(xk, hk, FIELD_ROWS * W * sizeof(REAL));
        NAME(site_tail)(xk, W, W, vb + lane * NB * FIELD_ROWS * W, NULL,
                        k * W, 1.0, 0.5);
        NAME(site_invert)(xk, W, W, inverse + held, k * W);
        NAME(narrowed)(xk, c->narrow);
        NAME(leave_parity)(xk, c->out, c->narrow, lane, k, s, 1);
        copy_parity(c->x, c->out, bytes, lane, k, s, 0);
        if (!c->r) continue;
        NAME(site_tail)(hk, W, W, vo + lane * NB * FIELD_ROWS * W,
                        odd ? odd + held : NULL, k * W, s->diag, -0.5);
        NAME(residual)(hk, vb + at, c->narrow);
        NAME(leave_parity)(hk, c->r, c->narrow, lane, k, s, 1);
        NAME(enter_block)(c->b, c->narrow, vb + at, lane, k, s, 0);
    }
    if (!c->r) return NULL;
    const NAME(sites) even = NAME(onto)(s, 0, ve, s->even, s->diag, -0.5,
                                        NULL);
    NAME(hops)(t, vo, &even, h, SITE_VECTORS, &c->phases[3], NULL, NULL);
    CLAIMED(i, &c->phases[4], lanes * NB) {
        const int64_t at = i * FIELD_ROWS * W;
        NAME(residual)(h + at, vb + at, c->narrow);
        NAME(leave_parity)(h + at, c->r, c->narrow, i / NB, i % NB, s, 0);
    }
    return NULL;
}

int NAME(repro_schur_solution)(const void *xe, const void *b, void *x,
                               void *r, int narrow, int64_t nb,
                               const schur_operands *s, repro_team *team)
{
    NAME(schur_call) call = {xe, b, x, r, narrow, nb, s};
    return NAME(schur_team)(NAME(solution_worker), &call, 4, NULL, team);
}

/* BiCGstab's closing updates and the next iteration's reductions of the r
 * they write, over `rows` rows of S Wilson sites (site-major, 12 components
 * a site), on the solve's `team` (or the call's own, NULL):
 *     x = (x + alpha p) + omega s,   r = s + c t  (in s),
 *     red = <rhat, r>, |r|^2
 * coefficients (alpha, omega, c) a row as the bicgstab_closing pass takes
 * them, red re, im and the norm a row.  The work items are the rows' blocks
 * of W sites; every thread sums its sites, the calling one then runs the
 * slot chains (see "the reductions").  Returns nonzero when the scratch
 * cannot be had. */
typedef struct {
    int64_t rows, S, SP;
    const REAL *coef, *p, *t, *rhat;
    REAL *s, *x;
    double *sums;
    phase work;
} NAME(closing_call);

static void *NAME(closing_worker)(void *arg)
{
    NAME(closing_call) *c = *(NAME(closing_call) **)arg;
    const int64_t NB = blocks_of(c->S), plane = c->rows * c->SP;
    CLAIMED(i, &c->work, c->rows * NB) {
        const int64_t row = i / NB, k = i % NB, n = NAME(filled)(k, c->S);
        const REAL *cf = c->coef + 6 * row;
        const int64_t at = 24 * (row * c->S + k * W);
        for (int64_t e = at; e < at + 24 * n; e += 2) {
            const REAL pr = c->p[e], pi = c->p[e + 1];
            const REAL sr = c->s[e], si = c->s[e + 1];
            const REAL tr = c->t[e], ti = c->t[e + 1];
            const REAL yr = c->x[e] + CMUL_RE(cf[0], cf[1], pr, pi);
            const REAL yi = c->x[e + 1] + CMUL_IM(cf[0], cf[1], pr, pi);
            c->x[e] = yr + CMUL_RE(cf[2], cf[3], sr, si);
            c->x[e + 1] = yi + CMUL_IM(cf[2], cf[3], sr, si);
            c->s[e] = sr + CMUL_RE(cf[4], cf[5], tr, ti);
            c->s[e + 1] = si + CMUL_IM(cf[4], cf[5], tr, ti);
        }
        double *sums = c->sums + row * c->SP + k * W;
        NAME(site_terms)(NAME(interleaved)(c->rhat + at, 12),
                         NAME(interleaved)(c->s + at, 12), 12, n, sums,
                         sums + plane);
        NAME(site_terms)(NAME(interleaved)(c->s + at, 12),
                         NAME(interleaved)(NULL, 12), 12, n, sums + 2 * plane,
                         NULL);
    }
    return NULL;
}

int NAME(repro_closing_reduce)(int64_t rows, int64_t S, const REAL *coef,
                               const REAL *p, REAL *s, const REAL *t, REAL *x,
                               const REAL *rhat, repro_team *team, double *red)
{
    int cpus[CPU_SETSIZE];
    /* a thread for every CLOSING_SHARE blocks: below that a helper's
     * hand-over costs more than its share of the pass saves */
    const int helpers = team_acquire(team, rows * blocks_of(S) / CLOSING_SHARE,
                                     cpus);
    const int threads = 1 + helpers;
    NAME(closing_call) call = {rows, S, blocks_of(S) * W, coef, p, t, rhat, s,
                               x, NULL, {0, 0, threads}};
    void *raw;
    call.sums = aligned_scratch(
        (size_t)(3 * rows * call.SP) * sizeof(double), &raw);
    if (!call.sums) {
        team_cancel(team);
        return 1;
    }
    NAME(closing_call) *slots[CPU_SETSIZE + 1];
    for (int i = 0; i < threads; i++) slots[i] = &call;
    team_run(team, NAME(closing_worker), slots, sizeof *slots, cpus, helpers);
    NAME(chains)(call.sums, 3, rows, S, call.SP, red);
    free(raw);
    return 0;
}

/* ---- the Schwarz block solve ----------------------------------------- */

/* |v|^2 of one row of a site-vector field. */
static double NAME(norm_row)(const REAL *v, int64_t V)
{
    DVEC acc = {0};
    for (int64_t k = 0; k < blocks_of(V); k++) {
        const VEC *p = (const VEC *)(v + k * FIELD_ROWS * W);
        DVEC re = NAME(widen)(p[0]), im = NAME(widen)(p[1]);
        DVEC s = re * re + im * im;
        for (int c = 1; c < 12; c++) {
            re = NAME(widen)(p[2 * c]), im = NAME(widen)(p[2 * c + 1]);
            s += re * re + im * im;
        }
        NAME(slot_add)(&acc, s, k, NAME(filled)(k, V));
    }
    return NAME(fold)(acc);
}

/* |a|^2 and <a, b> = sum conj(a) b of one row, in one pass: out[0] and
 * out[1] + i out[2]. */
static void NAME(norm_dot_row)(const REAL *a, const REAL *b, int64_t V,
                               double *out)
{
    DVEC acc[3] = {{0}};
    for (int64_t k = 0; k < blocks_of(V); k++) {
        const VEC *p = (const VEC *)(a + k * FIELD_ROWS * W);
        const VEC *q = (const VEC *)(b + k * FIELD_ROWS * W);
        DVEC s[3];
        for (int c = 0; c < 12; c++) {
            const DVEC ar = NAME(widen)(p[2 * c]), ai = NAME(widen)(p[2 * c + 1]);
            const DVEC br = NAME(widen)(q[2 * c]), bi = NAME(widen)(q[2 * c + 1]);
            const DVEC t[3] = {ar * ar + ai * ai, ar * br + ai * bi,
                               ar * bi - ai * br};
            for (int j = 0; j < 3; j++) {
                if (c) s[j] += t[j];
                else s[j] = t[j];
            }
        }
        for (int j = 0; j < 3; j++)
            NAME(slot_add)(&acc[j], s[j], k, NAME(filled)(k, V));
    }
    for (int j = 0; j < 3; j++) out[j] = NAME(fold)(acc[j]);
}

/* MR's step on one row, x += c r and r += d q with cd = (c, d) complex in
 * the field's precision -- repro_update_pair's arithmetic -- and |r|^2 of
 * the new r, in the same pass. */
static double NAME(update_row)(REAL *x, REAL *r, const REAL *q, int64_t V,
                               const REAL *cd)
{
    const VEC zero = {0};
    const VEC cr = zero + cd[0], ci = zero + cd[1];
    const VEC dr = zero + cd[2], di = zero + cd[3];
    DVEC acc = {0};
    for (int64_t k = 0; k < blocks_of(V); k++) {
        VEC *xb = (VEC *)(x + k * FIELD_ROWS * W);
        VEC *rb = (VEC *)(r + k * FIELD_ROWS * W);
        const VEC *qb = (const VEC *)(q + k * FIELD_ROWS * W);
        DVEC s = {0};
        for (int c = 0; c < 12; c++) {
            const VEC pr = rb[2 * c], pi = rb[2 * c + 1];
            const VEC qr = qb[2 * c], qi = qb[2 * c + 1];
            xb[2 * c] = xb[2 * c] + VMUL_RE(cr, ci, pr, pi);
            xb[2 * c + 1] = xb[2 * c + 1] + VMUL_IM(cr, ci, pr, pi);
            rb[2 * c] = pr + VMUL_RE(dr, di, qr, qi);
            rb[2 * c + 1] = pi + VMUL_IM(dr, di, qr, qi);
            const DVEC re = NAME(widen)(rb[2 * c]), im = NAME(widen)(rb[2 * c + 1]);
            if (c) s += re * re + im * im;
            else s = re * re + im * im;
        }
        NAME(slot_add)(&acc, s, k, NAME(filled)(k, V));
    }
    return NAME(fold)(acc);
}

/* MR's step length omega * complex(d) / float(n) where n > 0, and 0
 * otherwise (repro.solvers.multirhs.mr_coefficients), as CPython evaluates
 * it: each float promoted to a complex, the complex product, then Smith's
 * quotient, whose ratio is 0 here. */
static void NAME(step_length)(double omega, const double *red, double *c)
{
    const double n = red[0], dr = red[1], di = red[2];
    if (!(n > 0.0)) {
        c[0] = c[1] = 0.0;
        return;
    }
    const double pr = omega * dr - 0.0 * di, pi = omega * di + 0.0 * dr;
    const double ratio = 0.0 / n, denom = n + 0.0 * ratio;
    c[0] = (pr + pi * ratio) / denom;
    c[1] = (pi - pr * ratio) / denom;
}

/* One block solve call as its threads read it: the operands; the call's
 * scratch, rows of F reals (the residual r, the iterate x, q = A r and,
 * with `half`, the matrix's rounded argument xs; else xs is r) and three
 * reductions a row; the outputs; and the next block lane no thread has
 * claimed. */
typedef struct {
    const REAL *b, *links, *packed, *coef;
    double diag, omega;
    REAL *z, *r, *x, *q, *xs;
    double *red, *norms;
    int half, convert;
    const int32_t *spins, *bc;
    int64_t nb, nl, T, Z, Y, X, steps;
    int64_t next;
} NAME(mr_call);

/* A thread's own: the walk's scratch, a lane mask holding the lane it
 * runs, the counts of the lanes it ran, and its leaves' laps. */
typedef struct {
    NAME(mr_call) *call;
    REAL *walk;
    unsigned char *live;
    int64_t *counts;
    double seconds[4];
    int timed;
} NAME(mr_thread);

/* The whole recurrence of block lane l, its nb rows b * nl + l (see
 * repro_wilson_mr).  A lane reads and writes its own rows only. */
static void NAME(mr_lane)(NAME(mr_thread) *t, int64_t l,
                          struct timespec *mark)
{
    const NAME(mr_call) *c = t->call;
    const int64_t nl = c->nl, rows = c->nb * nl, steps = c->steps;
    const int64_t V = c->T * c->Z * c->Y * c->X, NB = blocks_of(V);
    const int64_t F = NB * FIELD_ROWS * W;
    double *seconds = t->timed ? t->seconds : NULL;
    for (int64_t row = l; row < rows; row += nl) {
        memset(c->x + row * F, 0, (size_t)F * sizeof(REAL));
        memset(c->q + row * F, 0, (size_t)F * sizeof(REAL));
        NAME(enter)(c->b + 24 * row * V, 1, 12, c->r + row * F, 1, V,
                    c->half && c->convert);
    }
    if (seconds) seconds[CONVERT] += lap(mark);
    for (int64_t row = l; c->norms && row < rows; row += nl)
        c->norms[row] = c->norms[rows + row] = NAME(norm_row)(c->r + row * F, V);
    if (seconds) seconds[MR_STEP] += lap(mark);

    const NAME(sites) on = {c->links, c->links, -1, c->xs, c->packed, c->diag,
                            -0.5, NULL};
    t->live[l] = 1;
    for (int64_t k = 0; k < steps; k++) {
        t->counts[k]++;
        if (c->half) {
            /* (a block at a time, all W sites: the padding, which no site
             * reads, rides along in a loop of known length, ~1/4 faster) */
            for (int64_t row = l; row < rows; row += nl) {
                memcpy(c->xs + row * F, c->r + row * F,
                       (size_t)F * sizeof(REAL));
                for (int64_t j = 0; j < NB; j++)
                    NAME(quantize_rows)(c->xs + row * F + j * FIELD_ROWS * W,
                                        W, W);
            }
            if (seconds) seconds[CONVERT] += lap(mark);
        }
        NAME(stencil)(c->xs, &on, c->q, SITE_VECTORS, 0, c->half, c->spins,
                      c->coef, c->nb, nl, c->T, c->Z, c->Y, c->X, c->bc,
                      t->live, t->walk, NULL, seconds, mark);
        int moving = 0;
        for (int64_t row = l; row < rows; row += nl) {
            NAME(norm_dot_row)(c->q + row * F, c->r + row * F, V,
                               c->red + 3 * row);
            moving |= c->red[3 * row] > 0.0;
        }
        if (moving) {
            t->counts[steps + k]++;
            for (int64_t row = l; row < rows; row += nl) {
                double cl[2];
                NAME(step_length)(c->omega, c->red + 3 * row, cl);
                const REAL cd[4] = {(REAL)cl[0], (REAL)cl[1], (REAL)-cl[0],
                                    (REAL)-cl[1]};
                const double norm = NAME(update_row)(
                    c->x + row * F, c->r + row * F, c->q + row * F, V, cd);
                if (c->norms) c->norms[rows + row] = norm;
            }
        }
        if (seconds) seconds[MR_STEP] += lap(mark);
        if (!moving) break;
    }
    t->live[l] = 0;

    for (int64_t row = l; row < rows; row += nl)
        for (int64_t j = 0; j < NB; j++)
            NAME(scatter)(c->x + row * F + j * FIELD_ROWS * W, W,
                          c->z + 24 * (row * V + j * W), 0, 1, 12,
                          NAME(filled)(j, V));
    if (seconds) seconds[CONVERT] += lap(mark);
}

/* A thread of the call: block lanes, one whole lane at a time, until none
 * is left to claim. */
static void *NAME(mr_worker)(void *arg)
{
    NAME(mr_thread) *t = arg;
    struct timespec mark;
    if (t->timed) clock_gettime(CLOCK_MONOTONIC, &mark);
    for (;;) {
        const int64_t l = __atomic_fetch_add(&t->call->next, 1,
                                             __ATOMIC_RELAXED);
        if (l >= t->call->nl) return NULL;
        NAME(mr_lane)(t, l, &mark);
    }
}

/* The fixed-step MR recurrence of repro.precond.rank_local's
 * schwarz_block_solve for every row of the stack at once -- nb right-hand
 * sides x nl block lanes, row b * nl + l, V = T Z Y X sites each -- on the
 * matrix of repro_wilson_apply (stored: each argument and result rounded to
 * the half format if `half`), with b and z the caller's site-major fields:
 *
 *     r = b, rounded if `convert`, x = 0;  |r|^2
 *     per step:  q = round(M round(r));  |q|^2, <q, r>;
 *                a block lane whose rows all have |q|^2 > 0 false (zero,
 *                or NaN) leaves, with its iterate;
 *                c = omega <q, r> / |q|^2 (0 where |q|^2 > 0 is false);
 *                x += c r, r -= c q;  |r|^2
 *     z = x
 *
 * r, x and q stay site vectors from the way in to the way out.  counts[k]
 * is the number of block lanes step k applied the matrix to and
 * counts[steps + k] the number that took the step (0 past the last step
 * run); norms[row] is the first |r|^2 and norms[rows + row] the last, the
 * recurrence's convergence record, unless `norms` is NULL (not recorded).
 *
 * The block lanes share nothing -- each has its own reductions, step
 * lengths and leaving step -- so they run side by side, a whole lane per
 * thread at a time, on the solve's `team` (or on one of the call's own,
 * NULL): a lane's bits do not depend on which thread ran it, and the counts
 * are sums over lanes.  Every thread's scratch is had here, before any
 * starts.
 * `seconds`, unless NULL, gains the leaves of repro_wilson_apply and the
 * MR step's: each leaf's share of the threads' summed laps, of the call's
 * wall time, so that the four still tile the call.  Returns nonzero when
 * the scratch cannot be had. */
int NAME(repro_wilson_mr)(const REAL *b, const REAL *links, const REAL *packed,
                          double diag, REAL *z, int half, int convert,
                          const int32_t *spins, const REAL *coef,
                          int64_t nb, int64_t nl, int64_t T, int64_t Z,
                          int64_t Y, int64_t X, const int32_t *bc,
                          int64_t steps, double omega, int64_t *counts,
                          double *norms, double *seconds, repro_team *team)
{
    const int64_t V = T * Z * Y * X, rows = nb * nl;
    const int64_t F = blocks_of(V) * FIELD_ROWS * W; /* reals a row */
    const int64_t fields = half ? 4 : 3;
    const int64_t H = NAME(walk_reals)(T, Z, Y, X);
    int cpus[CPU_SETSIZE];
    const int helpers = team_acquire(team, nl, cpus), threads = 1 + helpers;
    void *raw;
    REAL *r = aligned_scratch(
        (size_t)(fields * rows * F + threads * H) * sizeof(REAL)
        + (size_t)(3 * rows) * sizeof(double)
        + (size_t)threads * (sizeof(NAME(mr_thread))
                             + (size_t)(2 * steps) * sizeof(int64_t)
                             + (size_t)nl), &raw);
    if (!r) {
        team_cancel(team);
        return 1;
    }
    REAL *x = r + rows * F, *q = x + rows * F, *walks = r + fields * rows * F;
    double *red = (double *)(walks + threads * H);
    NAME(mr_thread) *slots = (NAME(mr_thread) *)(red + 3 * rows);
    int64_t *tallies = (int64_t *)(slots + threads);
    unsigned char *live = (unsigned char *)(tallies + threads * 2 * steps);
    memset(tallies, 0, (size_t)(threads * 2 * steps) * sizeof(int64_t));
    memset(live, 0, (size_t)(threads * nl));
    NAME(mr_call) call = {b, links, packed, coef, diag, omega, z, r, x, q,
                          half ? q + rows * F : r, red, norms, half, convert,
                          spins, bc, nb, nl, T, Z, Y, X, steps, 0};
    for (int i = 0; i < threads; i++)
        slots[i] = (NAME(mr_thread)){&call, walks + i * H, live + i * nl,
                                     tallies + i * 2 * steps, {0},
                                     seconds != NULL};
    struct timespec mark;
    if (seconds) clock_gettime(CLOCK_MONOTONIC, &mark);
    team_run(team, NAME(mr_worker), slots, sizeof *slots, cpus, helpers);

    memset(counts, 0, (size_t)(2 * steps) * sizeof(int64_t));
    for (int i = 0; i < threads; i++)
        for (int64_t k = 0; k < 2 * steps; k++) counts[k] += slots[i].counts[k];
    if (seconds)
        share_laps(seconds, 4, slots->seconds, sizeof *slots, threads,
                   lap(&mark));
    free(raw);
    return 0;
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
#undef DVEC
#endif
