"""The checkerboard hop and the compiled Schur complement, bit for bit.

(a) Each half-lattice hop (``hop_sites`` with a parity, and its compiled
twin ``repro_wilson_hop_*`` with the parity argument) equals the
full-lattice hop of the field with the target parity zeroed, on the sites
of the parity it keeps — over the shapes of the compiled tier's grid
(``test_c_kernel_grid.SHAPES`` with every extent made even: a half
lattice's X rows may be odd or a single site), every boundary, signed
zeros and non-finite fills, batches and block lanes; and ``c`` equals
``numpy``.  (b) The whole compiled Schur complement equals the NumPy body
on real operators — batched, complex64 fields, lane stacks of blocks —, as
do the conversions around it.
"""

from __future__ import annotations

import numpy as np
import pytest

from _c_grid import CONDITIONS, DTYPES, field, needs_c, random_links, same_bits
from test_c_kernel_grid import SHAPES
from repro.comm import ProcessGrid
from repro.dirac import BoundarySpec, EvenOddPreconditionedWilson, WilsonCloverOperator
from repro.dirac.evenodd import from_parities, to_parity
from repro.dirac.wilson import hop_sites
from repro.kernels import get_backend
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.multigpu import BlockPartition

pytestmark = needs_c

#: The grid's shapes, every odd extent doubled: the checkerboard needs
#: even extents, and half X extents of 1 and 3 remain.
HALF_SHAPES = [
    (tuple(n if n % 2 == 0 else 2 * n for n in dims), batch, lanes)
    for dims, batch, lanes in SHAPES
]
FINITE = ("dense", "point", "zero", "negative-zero")


def split_links(links):
    """The forward half of a lattice-last link cache on each parity's
    sites, ``(parity, mu, b, a) + half lattice``."""
    return np.stack([to_parity(links[0], p, trail=0) for p in (0, 1)])


@pytest.mark.parametrize("dtype", DTYPES, ids=["c128", "c64"])
@pytest.mark.parametrize("dims, batch, lanes", HALF_SHAPES)
def test_half_hop_is_the_masked_full_hop(dims, batch, lanes, dtype):
    rng = np.random.default_rng(sum(dims) + batch + lanes)
    lattice = tuple(reversed(dims))
    lane_axes = ((lanes,) if lanes else ()) + lattice
    links = random_links(rng, lane_axes, dtype)
    halves = split_links(links)
    backend = get_backend("c")
    for i, fill in enumerate(FINITE + ("nan", "inf")):
        conditions = tuple(CONDITIONS[(i + mu) % 3] for mu in range(4))
        boundary = BoundarySpec(conditions)
        xs = field(rng, (4, 3) + ((batch,) if batch else ()) + lane_axes, dtype, fill)
        with np.errstate(invalid="ignore", over="ignore"):
            for parity in (0, 1):
                source = to_parity(xs, 1 - parity, trail=0)
                zero = np.zeros_like(source)
                masked = (
                    from_parities(zero, source, trail=0) if parity == 0
                    else from_parities(source, zero, trail=0)
                )
                full = hop_sites(links, masked, bool(batch), boundary)
                expected = to_parity(full, parity, trail=0)
                got = hop_sites(halves, source, bool(batch), boundary, parity)
                if fill in FINITE:
                    assert np.array_equal(got, expected)
                assert same_bits(got, expected), (fill, parity)
                compiled = backend.wilson_hop_sites(
                    halves, source, bool(batch), boundary, parity=parity
                )
                assert compiled is not None, "the C entry refused the case"
                assert same_bits(compiled, got), (fill, parity)


SCHUR_CASES = {
    "4^4": ((4, 4, 4, 4), ("periodic",) * 4),
    "physical": ((4, 4, 4, 8), ("periodic",) * 3 + ("antiperiodic",)),
    "odd-rows": ((6, 4, 2, 4), ("antiperiodic", "zero", "periodic", "periodic")),
    "single-site-rows": ((2, 4, 4, 2), ("antiperiodic", "periodic", "zero", "periodic")),
}


@pytest.fixture(scope="module", params=list(SCHUR_CASES))
def pair(request):
    dims, conditions = SCHUR_CASES[request.param]
    gauge = GaugeField.weak(Geometry(dims), epsilon=0.3, rng=sum(dims))
    return {
        kernel: EvenOddPreconditionedWilson(WilsonCloverOperator(
            gauge, mass=0.05, csw=1.2, boundary=BoundarySpec(conditions),
            kernel=kernel,
        ))
        for kernel in ("numpy", "c")
    }


@pytest.mark.parametrize("batch", [0, 3], ids=["single", "batched"])
@pytest.mark.parametrize("dtype", DTYPES, ids=["c128", "c64"])
def test_compiled_schur_is_the_numpy_body(pair, batch, dtype):
    numpy, c = pair["numpy"], pair["c"]
    geom = numpy.wilson.geometry
    rng = np.random.default_rng(batch)
    shape = ((batch,) if batch else ()) + geom.shape + (4, 3)
    b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
    x_e = to_parity(b, 0)
    assert c._schur.apply(x_e, None) is not None, "the C entry refused the case"
    for entry, args in (
        ("apply", (x_e,)), ("apply_dagger", (x_e,)), ("prepare_rhs", (b,)),
        ("reconstruct", (x_e, b)), ("apply_full", (b,)),
    ):
        got = getattr(c, entry)(*args)
        assert got.dtype == np.dtype(dtype)
        assert same_bits(got, getattr(numpy, entry)(*args)), entry
    if batch:
        got = c.apply(x_e)
        for lane in range(batch):
            assert same_bits(c.apply(x_e[lane]), got[lane])


def test_block_lanes_of_the_schur_system():
    """The cut complements of a partition of the half lattice, stacked as
    lanes: ``c`` == ``numpy``, and each lane is its block alone."""
    geom = Geometry((8, 4, 4, 4))
    gauge = GaugeField.weak(geom, epsilon=0.3, rng=4)
    ops = {
        k: EvenOddPreconditionedWilson(
            WilsonCloverOperator(gauge, mass=0.1, csw=1.0, kernel=k)
        )
        for k in ("numpy", "c")
    }
    part = BlockPartition(ops["c"].geometry, ProcessGrid((2, 1, 1, 2)))
    r = part.stack(to_parity(SpinorField.random(geom, rng=9).data, 0))
    stacks = {k: op.restrict_to_blocks(part) for k, op in ops.items()}
    assert stacks["c"].lanes == part.n_ranks
    got = stacks["c"].apply(r)
    assert same_bits(got, stacks["numpy"].apply(r))
    for rank in range(part.n_ranks):
        alone = ops["c"].restrict_to_block(part, rank)
        assert same_bits(alone.apply(np.ascontiguousarray(r[rank])), got[rank])
    picked = stacks["c"].take_lanes([3, 1])
    assert same_bits(picked.apply(r[[3, 1]]), got[[3, 1]])
