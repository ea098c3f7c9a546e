"""The lane-stacked Schwarz block solve against the per-block loop it
replaced (``_block_loop_oracle``): every member of the ``dd/`` family must
return the loop's bits and record the loop's ledger — the loop over the
blocks' operators *stored* in the block precision, which is what the
stack is built as (the storage contract is pinned here too)."""

import functools
import pickle

import numpy as np
import pytest

import _block_loop_oracle as oracle
from repro.comm import ProcessGrid
from repro.comm.backends import run_rank_programs
from repro.dd import (
    AdditiveSchwarzPreconditioner,
    MultiSplittingPreconditioner,
    OverlappingSchwarzPreconditioner,
    SAPPreconditioner,
    TwoLevelSchwarzPreconditioner,
)
from repro.dirac import (
    AsqtadOperator,
    EvenOddPreconditionedWilson,
    NaiveStaggeredOperator,
    PHYSICAL,
    StaggeredNormalOperator,
    WilsonCloverOperator,
)
from repro.dirac.evenodd import parity_project
from repro.kernels import get_backend
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.multigpu import BlockPartition
from repro.precision import HALF, SINGLE
from repro.precond import resolve_precond, schwarz_block_solve
from repro.solvers.space import space_for_nspin
from repro.util.counters import tally

GEOM = Geometry((4, 4, 4, 8))
GRID = ProcessGrid((1, 1, 2, 2))
INNER = ProcessGrid((1, 1, 1, 2))
PRECISIONS = {"half": HALF, "single": SINGLE, "none": None}
LEDGER = (
    "reductions", "local_reductions", "flops", "bytes_moved",
    "operator_applications",
)


@functools.cache
def build_operator(kind):
    gauge = GaugeField.weak(GEOM, epsilon=0.3, rng=77)
    if kind.startswith("wilson_clover"):
        return WilsonCloverOperator(
            gauge, mass=0.1, csw=1.0, boundary=PHYSICAL,
            kernel="numpy_ref" if kind.endswith("numpy_ref") else "auto",
        )
    if kind == "staggered":
        return NaiveStaggeredOperator(gauge, 0.2, boundary=PHYSICAL)
    return StaggeredNormalOperator(
        AsqtadOperator.from_gauge(gauge, 0.2, boundary=PHYSICAL), 0.05
    )


@pytest.fixture(scope="module", params=["wilson_clover", "staggered",
                                        "asqtad_normal"])
def system(request):
    op = build_operator(request.param)
    return op, BlockPartition(GEOM, GRID)


def residual(op, batch, seed=5):
    def one(s):
        return SpinorField.random(GEOM, nspin=op.nspin, rng=s).data

    if batch:
        return np.stack([one(seed + i) for i in range(batch)])
    return one(seed)


#: name -> (build the lane-stacked preconditioner, apply the loop oracle).
FAMILY = {
    "schwarz": (
        lambda op, part, p: AdditiveSchwarzPreconditioner(
            op, part, mr_steps=4, omega=0.9, precision=p),
        lambda op, part, r, p: oracle.schwarz(
            op, part, r, steps=4, omega=0.9, precision=p),
    ),
    "ras": (
        lambda op, part, p: OverlappingSchwarzPreconditioner(
            op, part, overlap=1, mr_steps=4, omega=0.9, precision=p),
        lambda op, part, r, p: oracle.ras(
            op, part, r, overlap=1, steps=4, omega=0.9, precision=p),
    ),
    "multisplit": (
        lambda op, part, p: MultiSplittingPreconditioner(
            op, part, overlap=1, mr_steps=4, omega=0.9, precision=p),
        lambda op, part, r, p: oracle.multisplit(
            op, part, r, overlap=1, steps=4, omega=0.9, precision=p),
    ),
    "sap": (
        lambda op, part, p: SAPPreconditioner(
            op, part, mr_steps=3, cycles=2, omega=0.9, precision=p),
        lambda op, part, r, p: oracle.sap(
            op, part, r, steps=3, cycles=2, omega=0.9, precision=p),
    ),
    "twolevel": (
        lambda op, part, p: TwoLevelSchwarzPreconditioner(
            op, part, inner_grid=INNER, inner_mr_steps=3, outer_sweeps=2,
            omega=0.9, precision=p),
        lambda op, part, r, p: oracle.twolevel(
            op, part, r, inner_grid=INNER, inner_steps=3, outer_sweeps=2,
            omega=0.9, precision=p),
    ),
}
#: (member, batch size): batched residuals where the member takes them
#: (SAP, not a registry entry, takes single residuals only).
CASES = [
    pytest.param(name, batch, id=f"{name}-{'batched' if batch else 'single'}")
    for name in sorted(FAMILY)
    for batch in (0, 2)
    if not batch
    or (name != "sap" and resolve_precond(name).capabilities.batched)
]


def assert_same_ledger(got, expected):
    for name in LEDGER:
        assert getattr(got, name) == getattr(expected, name), name


@pytest.mark.parametrize("precision", sorted(PRECISIONS))
@pytest.mark.parametrize("name, batch", CASES)
def test_matches_block_loop(system, name, precision, batch):
    """Bits and ledger of the per-block loop, for every member x block
    precision x operator family x single/batched residual."""
    op, part = system
    build, loop = FAMILY[name]
    r = residual(op, batch)
    with tally() as t_lanes:
        z = build(op, part, PRECISIONS[precision])(r)
    with tally() as t_loop:
        expected = loop(op, part, r, PRECISIONS[precision])
    assert z.dtype == expected.dtype
    assert np.array_equal(z, expected)
    assert_same_ledger(t_lanes, t_loop)


def point_source(op, batch):
    r = np.zeros_like(residual(op, batch))
    r[(0,) * r.ndim] = 1.0
    return r


@pytest.mark.parametrize("name, batch", CASES)
def test_point_source_takes_the_scalar_early_exit(system, name, batch):
    """A point source leaves three of four blocks all-zero: each must
    take the scalar MR's early exit and leave the stack — same bits, same
    ledger as the loop.  (Batched: the second RHS is all-zero, which
    freezes its rows but keeps block 0 in the stack, as in the loop.)"""
    op, part = system
    build, loop = FAMILY[name]
    r = point_source(op, batch)
    with tally() as t_lanes:
        z = build(op, part, HALF)(r)
    with tally() as t_loop:
        expected = loop(op, part, r, HALF)
    assert np.array_equal(z, expected)
    assert_same_ledger(t_lanes, t_loop)


def test_point_source_counts(system):
    """The exit by hand: the live block runs 4 steps (one norm of b, then
    an apply and three reductions per step); each all-zero block stops
    after its first apply, two norms in."""
    op, part = system
    with tally() as t:
        AdditiveSchwarzPreconditioner(op, part, mr_steps=4)(point_source(op, 0))
    applies = dict(t.operator_applications)
    assert applies.pop("schwarz_precond") == 1
    assert sum(applies.values()) == 4 + 3 * 1
    assert t.local_reductions == (1 + 4 * 3) + 3 * 2
    assert t.reductions == 0


def test_all_zero_residual(system):
    op, part = system
    r = np.zeros_like(residual(op, 0))
    with tally() as t_lanes:
        z = AdditiveSchwarzPreconditioner(op, part, mr_steps=4)(r)
    with tally() as t_loop:
        oracle.schwarz(op, part, r, steps=4, omega=1.0, precision=HALF)
    assert not z.any()
    assert_same_ledger(t_lanes, t_loop)


@pytest.mark.parametrize("precision", sorted(PRECISIONS))
def test_lane_is_independent_of_the_other_lanes(system, precision):
    """A lane's correction depends on nothing but that lane: scaling,
    zeroing or permuting the other blocks' residuals leaves it bitwise
    unchanged."""
    op, part = system
    k = AdditiveSchwarzPreconditioner(
        op, part, mr_steps=5, precision=PRECISIONS[precision]
    )
    r = residual(op, 0)
    base = k(r)
    keep = part.slices(1)
    scaled = 3.0 * r
    scaled[keep] = r[keep]
    zeroed = np.zeros_like(r)
    zeroed[keep] = r[keep]
    for other in (scaled, zeroed):
        assert np.array_equal(k(other)[keep], base[keep])
    # The same block solved as a lane of a smaller stack, and alone.
    stack = part.stack(r)
    space = space_for_nspin(op.nspin)
    kw = dict(steps=5, omega=1.0, precision=PRECISIONS[precision], space=space)
    pair = schwarz_block_solve(k.blocks.take_lanes([3, 1]), stack[[3, 1]], **kw)
    alone = schwarz_block_solve(
        op.restrict_to_block(part, 1), stack[1], **kw
    )
    assert np.array_equal(pair[1], base[keep])
    assert np.array_equal(alone, base[keep])


def test_even_odd_blocks_ride_the_lanes():
    """The cut Schur complement stacks like the operator it wraps."""
    gauge = GaugeField.weak(GEOM, epsilon=0.3, rng=78)
    eo = EvenOddPreconditionedWilson(
        WilsonCloverOperator(gauge, mass=0.1, csw=1.0, boundary=PHYSICAL)
    )
    part = BlockPartition(GEOM, GRID)
    r = parity_project(GEOM, SpinorField.random(GEOM, rng=3).data, 0)
    with tally() as t_lanes:
        z = AdditiveSchwarzPreconditioner(eo, part, mr_steps=4)(r)
    with tally() as t_loop:
        expected = oracle.schwarz(eo, part, r, steps=4, omega=1.0, precision=HALF)
    assert np.array_equal(z, expected)
    assert_same_ledger(t_lanes, t_loop)
    # Growing by one site along ONE direction swaps the checkerboards.
    odd = BlockPartition(GEOM, ProcessGrid((1, 1, 1, 2)))
    with pytest.raises(TypeError, match="odd origin"):
        OverlappingSchwarzPreconditioner(eo, odd, overlap=1)


def test_block_ops_are_the_lanes(system):
    """The per-rank operators handed out on request are the working-
    precision blocks; stored in the block precision they act as their
    lanes."""
    op, part = system
    k = AdditiveSchwarzPreconditioner(op, part)
    assert k.blocks.storage is k.precision is HALF
    x = part.stack(residual(op, 0))
    stacked = k.blocks.apply(x)
    assert len(k.block_ops) == k.n_blocks == k.blocks.lanes
    for rank, block_op in enumerate(k.block_ops):
        assert block_op.lanes is None and block_op.storage is None
        assert np.array_equal(block_op.stored(HALF).apply(x[rank]), stacked[rank])


# ----------------------------------------------------------------------
# the storage contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("precision", ["half", "single"])
def test_three_ways_to_a_stored_block_agree(system, precision):
    """A stack built with ``precision=``, a working-precision stack
    stored afterwards and each block stored on its own are the same
    arithmetic, lane by lane, single and batched."""
    op, part = system
    p = PRECISIONS[precision]
    built = op.restrict_to_blocks(part, precision=p)
    cast = op.restrict_to_blocks(part).stored(p)
    assert built.storage is cast.storage is p
    for batch in (0, 2):
        x = part.stack(residual(op, batch), lead=bool(batch))
        expected = built.apply(x)
        assert np.array_equal(cast.apply(x), expected)
        for rank in range(part.n_ranks):
            one = op.restrict_to_block(part, rank).stored(p)
            assert one.lanes is None and one.storage is p
            lane = (slice(None),) * bool(batch) + (rank,)
            assert np.array_equal(one.apply(x[lane]), expected[lane])


def test_stored_is_idempotent_and_memoised(system):
    op, part = system
    block = op.restrict_to_block(part, 0)
    assert block.stored(None) is block
    half = block.stored(HALF)
    assert half is not block
    assert half.storage is HALF and block.storage is None
    assert block.stored(HALF) is half
    assert half.stored(HALF) is half and half.stored(None) is half
    single = block.stored(SINGLE)
    assert single is not half and single.storage is SINGLE
    assert block.stored(SINGLE) is single
    # What the members build resolves to itself inside the block solve.
    stack = op.restrict_to_blocks(part, precision=HALF)
    assert stack.stored(HALF) is stack


def test_storage_follows_lanes_and_restriction(system):
    """``take_lanes`` (the early exit) and a further restriction (the
    two-level sub-blocks) of a stored stack are stored, with the bits of
    the same stack cut in working precision and stored last."""
    op, part = system
    stack = op.restrict_to_blocks(part, precision=HALF)
    working = op.restrict_to_blocks(part)
    x = part.stack(residual(op, 0))
    some = stack.take_lanes([2, 0])
    assert some.storage is HALF and some.lanes == 2
    assert np.array_equal(some.apply(x[[2, 0]]), stack.apply(x)[[2, 0]])
    inner = BlockPartition(part.local_geometry, INNER)
    sub = stack.restrict_to_blocks(inner)
    assert sub.storage is HALF and sub.lanes == part.n_ranks * inner.n_ranks
    xs = inner.stack(x, lead=1).reshape((sub.lanes,) + sub.geometry.shape + x.shape[5:])
    expected = working.restrict_to_blocks(inner, precision=HALF).apply(xs)
    assert np.array_equal(sub.apply(xs), expected)
    assert np.array_equal(
        working.restrict_to_blocks(inner).stored(HALF).apply(xs), expected
    )
    # An explicit precision wins over the stack's own.
    assert stack.restrict_to_blocks(inner, precision=SINGLE).storage is SINGLE


def test_wilson_stack_lives_in_the_storage_dtype():
    """The packing tiers store: lattice-last links and the two chiral
    clover blocks (in the tier's form: ONE array) in the storage dtype, no
    dense clover, nothing complex128.  The reference tier keeps its
    complex128 arrays and rounds around ``_apply``."""
    op, part = build_operator("wilson_clover"), BlockPartition(GEOM, GRID)
    lattice = (part.n_ranks,) + part.local_geometry.shape
    backend = op._form
    for p in (HALF, SINGLE):
        stack = op.restrict_to_blocks(part, precision=p)
        assert stack.gauge is None and stack.clover is None
        blocks = np.stack(
            [backend.clover_chirality(stack._chiral, lattice, c) for c in (0, 1)]
        )
        for array, lead in ((stack._links_soa, (2, 4, 3, 3)),
                            (blocks, (2, 6, 6))):
            assert array.shape == lead + lattice
            assert array.dtype == p.dtype == np.complex64
            assert array.flags.c_contiguous
        assert stack._chiral.flags.c_contiguous
        assert stack._chiral.dtype in (np.complex64, np.float32)
        one = op.restrict_to_block(part, 1).stored(p)
        assert np.array_equal(one._links_soa, stack._links_soa[:, :, :, :, 1])
        assert np.array_equal(
            one._chiral, backend.clover_lanes(stack._chiral, 1)
        )
    assert stack.name == op.name and stack.flops_per_site == op.flops_per_site
    ref = build_operator("wilson_clover_numpy_ref").restrict_to_blocks(
        part, precision=HALF
    )
    assert ref.storage is HALF
    # (its clover term is the fast tier's form: complex128, or its reals)
    assert ref._links_soa.dtype == np.complex128
    assert ref._chiral.dtype in (np.complex128, np.float64)
    assert ref.clover.shape == lattice + (12, 12)  # derived, on demand
    # Without a clover term there is nothing to pack.
    plain = WilsonCloverOperator(op.gauge, mass=0.1, boundary=PHYSICAL)
    bare = plain.restrict_to_blocks(part, precision=HALF)
    assert bare._chiral is None and bare.name == "wilson"
    x = part.stack(residual(op, 0))
    assert np.array_equal(
        bare.apply(x)[0], plain.restrict_to_block(part, 0).stored(HALF).apply(x[0])
    )


@pytest.mark.parametrize("kernel", ["numpy", "numpy_ref"])
@pytest.mark.parametrize("precision, bound", [("single", 5e-6), ("half", 2e-4)])
def test_stored_wilson_apply_is_the_rounded_apply(kernel, precision, bound):
    """Storing the links and the clover term moves the result of round ->
    working-precision apply -> round at the level of the format (the
    reference tier, which rounds around ``_apply``, not at all)."""
    op = build_operator(
        "wilson_clover" if kernel == "numpy" else "wilson_clover_numpy_ref"
    )
    part = BlockPartition(GEOM, GRID)
    p = PRECISIONS[precision]
    working = op.restrict_to_blocks(part)
    for batch in (0, 2):
        x = part.stack(residual(op, batch), lead=bool(batch))
        expected = p.convert(working.apply(p.convert(x)))
        got = working.stored(p).apply(x)
        assert got.dtype == expected.dtype == np.complex64
        moved = np.linalg.norm(got - expected) / np.linalg.norm(expected)
        assert moved <= bound
        assert (kernel == "numpy") == bool(moved)


def test_packed_wilson_matrix_without_the_rounding(rng):
    """``_apply`` of a stored operator is the same body with the rounding
    left out — in the operator's dtype, whatever the field's —, so the
    dagger and the composition helpers keep working."""
    op, part = build_operator("wilson_clover"), BlockPartition(GEOM, GRID)
    working = op.restrict_to_block(part, 0)
    packed = working.stored(SINGLE)
    x, y = (SpinorField.random(part.local_geometry, rng=rng).data for _ in "xy")
    got, expected = packed._apply(x), working._apply(x)
    assert got.dtype == np.complex64
    assert np.linalg.norm(got - expected) <= 2e-6 * np.linalg.norm(expected)
    lhs = np.vdot(y, packed.apply_dagger(x))
    rhs = np.vdot(packed.apply(y), x)
    assert abs(lhs - rhs) <= 1e-5 * abs(rhs)
    with pytest.raises(TypeError, match="dense clover"):
        EvenOddPreconditionedWilson(packed)


def test_correction_moves_at_rounding_level(monkeypatch):
    """One application of the paper's preconditioner (10 MR steps, half)
    against the PR 17 arithmetic — complex128 links and dense clover under
    complex64 fields: the correction moves, by less than 1e-4."""
    op, part = build_operator("wilson_clover"), BlockPartition(GEOM, GRID)
    r = residual(op, 0).astype(np.complex64)
    z = AdditiveSchwarzPreconditioner(op, part, mr_steps=10)(r)
    monkeypatch.setattr(oracle, "block_solve", oracle.block_solve_pr17)
    parent = oracle.schwarz(op, part, r, steps=10, omega=1.0, precision=HALF)
    moved = np.linalg.norm(z - parent) / np.linalg.norm(parent)
    assert 0.0 < moved <= 1e-4


#: Where the storage is the generic one (or none): every family but the
#: NumPy-tier Wilson-clover operator in a reduced precision.
GENERIC = [
    pytest.param(kind, precision, id=f"{kind}-{precision}")
    for kind in ("wilson_clover", "wilson_clover_numpy_ref", "staggered",
                 "asqtad_normal")
    for precision in sorted(PRECISIONS)
    if kind != "wilson_clover" or precision == "none"
]


@pytest.mark.parametrize("kind, precision", GENERIC)
@pytest.mark.parametrize(
    "name, batch", [c for c in CASES if not c.values[1] or c.values[0] == "schwarz"]
)
def test_generic_storage_keeps_the_pr17_bits(
    kind, precision, name, batch, monkeypatch
):
    """Rounding on the operator instead of around it changes no bit and
    no count where the links were not touched: the members still return
    what the PR 17 block solve (kept verbatim in the oracle) returns."""
    op, part = build_operator(kind), BlockPartition(GEOM, GRID)
    build, loop = FAMILY[name]
    r = residual(op, batch)
    monkeypatch.setattr(oracle, "block_solve", oracle.block_solve_pr17)
    with tally() as t_lanes:
        z = build(op, part, PRECISIONS[precision])(r)
    with tally() as t_loop:
        expected = loop(op, part, r, PRECISIONS[precision])
    assert np.array_equal(z, expected)
    assert_same_ledger(t_lanes, t_loop)


def _block_solve_on_rank(comm, payload):
    block_op, r_loc = payload
    return schwarz_block_solve(
        block_op, r_loc, steps=3, omega=1.0, precision=HALF,
        space=space_for_nspin(block_op.nspin), rank=comm.rank,
    )


def test_stored_block_survives_the_trip_to_a_rank_process(system):
    """The SPMD rank program is handed one working-precision block; its
    stored form is resolved where it lands (and travels with it once it
    exists)."""
    op, part = system
    x = part.stack(residual(op, 0))
    kw = dict(steps=3, omega=1.0, precision=HALF, space=space_for_nspin(op.nspin))
    expected = schwarz_block_solve(
        op.restrict_to_blocks(part, precision=HALF), x, **kw
    )
    blocks = [op.restrict_to_block(part, rank) for rank in (0, 1)]
    warm = blocks[1].stored(HALF)
    clone = pickle.loads(pickle.dumps(blocks[1]))
    assert clone.storage is None and clone.stored(HALF).storage == HALF
    assert np.array_equal(clone.stored(HALF).apply(x[1]), warm.apply(x[1]))
    outcomes = run_rank_programs(
        _block_solve_on_rank, 2, [(b, x[i]) for i, b in enumerate(blocks)],
        backend="processes",
    )
    for rank, outcome in enumerate(outcomes):
        assert np.array_equal(outcome.value, expected[rank])


@pytest.mark.skipif(not get_backend("c").available, reason="no compiled tier")
@pytest.mark.parametrize("precision", sorted(PRECISIONS))
@pytest.mark.parametrize("name", ["schwarz", "ras", "twolevel"])
def test_compiled_lanes_match_the_numpy_block_loop(name, precision):
    """The loop oracle once more across tiers: the lane stack with
    ``kernel="c"`` named against the per-block loop on ``"numpy"`` — bits
    and ledger (working precision: the compiled hop core; half / single:
    the packed body, core and tail)."""
    gauge = GaugeField.weak(GEOM, epsilon=0.3, rng=77)
    compiled, numpy_tier = (
        WilsonCloverOperator(
            gauge, mass=0.1, csw=1.0, boundary=PHYSICAL, kernel=kernel
        )
        for kernel in ("c", "numpy")
    )
    part = BlockPartition(GEOM, GRID)
    build, loop = FAMILY[name]
    for batch in (0, 2) if resolve_precond(name).capabilities.batched else (0,):
        r = residual(compiled, batch)
        with tally() as t_lanes:
            z = build(compiled, part, PRECISIONS[precision])(r)
        with tally() as t_loop:
            expected = loop(numpy_tier, part, r, PRECISIONS[precision])
        assert np.array_equal(z, expected)
        assert_same_ledger(t_lanes, t_loop)


def test_kernel_tier_is_inherited_by_the_stack():
    gauge = GaugeField.weak(GEOM, epsilon=0.3, rng=79)
    part = BlockPartition(GEOM, GRID)
    ref = WilsonCloverOperator(gauge, 0.1, 1.0, PHYSICAL, kernel="numpy_ref")
    k = AdditiveSchwarzPreconditioner(ref, part, mr_steps=3)
    assert k.blocks.kernel == "numpy_ref"
    r = SpinorField.random(GEOM, rng=4).data
    expected = oracle.schwarz(ref, part, r, steps=3, omega=1.0, precision=HALF)
    assert np.array_equal(k(r), expected)
