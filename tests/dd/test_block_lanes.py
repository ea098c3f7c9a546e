"""The lane-stacked Schwarz block solve against the per-block loop it
replaced (``_block_loop_oracle``): every member of the ``dd/`` family must
return the loop's bits and record the loop's ledger."""

import numpy as np
import pytest

import _block_loop_oracle as oracle
from repro.comm import ProcessGrid
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


def build_operator(kind):
    gauge = GaugeField.weak(GEOM, epsilon=0.3, rng=77)
    if kind == "wilson_clover":
        return WilsonCloverOperator(gauge, mass=0.1, csw=1.0, boundary=PHYSICAL)
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
    """The per-rank operators handed out on request act as their lanes."""
    op, part = system
    k = AdditiveSchwarzPreconditioner(op, part)
    x = part.stack(residual(op, 0))
    stacked = k.blocks.apply(x)
    assert len(k.block_ops) == k.n_blocks == k.blocks.lanes
    for rank, block_op in enumerate(k.block_ops):
        assert block_op.lanes is None
        assert np.array_equal(block_op.apply(x[rank]), stacked[rank])


def test_kernel_tier_is_inherited_by_the_stack():
    gauge = GaugeField.weak(GEOM, epsilon=0.3, rng=79)
    part = BlockPartition(GEOM, GRID)
    ref = WilsonCloverOperator(gauge, 0.1, 1.0, PHYSICAL, kernel="numpy_ref")
    k = AdditiveSchwarzPreconditioner(ref, part, mr_steps=3)
    assert k.blocks.kernel == "numpy_ref"
    r = SpinorField.random(GEOM, rng=4).data
    expected = oracle.schwarz(ref, part, r, steps=3, omega=1.0, precision=HALF)
    assert np.array_equal(k(r), expected)
