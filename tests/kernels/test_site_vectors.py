"""The compiled tier's operand form: the clover term Hermitian-packed in
site vectors — ``(L, NB, 2, 36, W)`` reals, the ONE array a ``c`` operator
holds of it.  Packing loses nothing (pack -> unpack is the blocks, on real
configurations and on lattices whose site count is no multiple of W), what
it cannot represent is refused by name, everything an operator derives
from the packed array — lanes, region stacks, casts, the dense field —
equals what the NumPy tier derives from the blocks, and the two loop
shapes that read it (W sites at a time; a site at a time where the walk's
units do not start on a block) agree bit for bit on the same case.
"""

from __future__ import annotations

import numpy as np
import pytest

from _c_grid import (
    bare_operator,
    blocks_of,
    hermitian,
    needs_c,
    random_complex,
    site_major,
)
from repro.comm import ProcessGrid
from repro.dirac import PHYSICAL, WilsonCloverOperator
from repro.dirac.clover import build_clover_blocks
from repro.kernels import get_backend
from repro.kernels.c_backend import SITE_VECTOR as W, packed_shape
from repro.lattice import GaugeField, Geometry
from repro.multigpu import BlockPartition
from repro.precision import HALF, SINGLE

pytestmark = needs_c

DTYPES = (np.complex128, np.complex64)


def round_trip(blocks):
    """Pack, check the form, unpack."""
    backend = get_backend("c")
    lattice = blocks.shape[3:]
    packed = backend.clover_pack(lambda c: blocks[c], lattice, blocks.dtype)
    sites = int(np.prod(lattice[-4:]))
    assert packed.shape == packed_shape(lattice) and packed.shape[-1] == W
    assert packed.dtype == blocks.real.dtype and packed.flags.c_contiguous
    assert packed.ctypes.data % 64 == 0
    if sites % W:  # the last block's padding
        assert not packed[:, -1, :, :, sites % W:].any()
    else:  # the paper's 72 reals a site, half the blocks' bytes
        assert packed.size == 72 * sites * packed.shape[0]
        assert 2 * packed.nbytes == blocks.nbytes
    return blocks_of(backend, packed, lattice)


@pytest.mark.parametrize("dtype", DTYPES, ids=["c128", "c64"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pack_unpack_is_the_built_blocks(seed, dtype):
    geom = Geometry((4, 4, 4, 8))
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=seed)
    blocks = np.ascontiguousarray(build_clover_blocks(gauge, 1.3), dtype=dtype)
    got = round_trip(blocks)
    assert got.dtype == blocks.dtype and got.tobytes() == blocks.tobytes()
    # ... with lanes: the Schwarz blocks side by side
    part = BlockPartition(geom, ProcessGrid((1, 1, 2, 2)))
    stack = np.ascontiguousarray(part.stack(np.moveaxis(blocks, (0, 1, 2), (-3, -2, -1))))
    stack = np.ascontiguousarray(np.moveaxis(stack, (-3, -2, -1), (0, 1, 2)))
    assert stack.shape == (2, 6, 6, 4) + part.local_geometry.shape
    assert round_trip(stack).tobytes() == stack.tobytes()
    # the free field's term vanishes identically, and packs
    free = np.zeros_like(blocks)
    assert round_trip(free).tobytes() == free.tobytes()


@pytest.mark.parametrize("dtype", DTYPES, ids=["c128", "c64"])
@pytest.mark.parametrize("lattice", [(3, 3, 3, 3), (6, 3, 3, 3), (2, 3, 3, 3, 3)],
                         ids=["81", "162", "2x81"])
def test_pack_unpack_where_the_sites_are_no_multiple_of_w(lattice, dtype):
    blocks = hermitian(np.random.default_rng(len(lattice)), lattice, dtype)
    assert np.prod(lattice[-4:]) % W
    assert np.array_equal(round_trip(blocks), blocks)


def test_what_the_packed_form_cannot_hold_is_refused_by_name():
    rng = np.random.default_rng(5)
    lattice = (2, 2, 2, 3)
    good = hermitian(rng, lattice, np.complex128)
    assert round_trip(good).tobytes() == good.tobytes()
    cases = {
        "random": random_complex(rng, (2, 6, 6) + lattice, np.complex128),
        "imaginary diagonal": good.copy(),
        "negative-zero diagonal": good.copy(),
        "lower triangle off by an ulp": good.copy(),
    }
    cases["imaginary diagonal"][1, 2, 2, 0, 1, 0, 2] += 1e-300j
    cases["negative-zero diagonal"][0, 4, 4, 1, 1, 1, 1] = complex(1.0, -0.0)
    low = cases["lower triangle off by an ulp"]
    low[1, 5, 0, 1, 0, 1, 0] = np.nextafter(low[1, 5, 0, 1, 0, 1, 0].real, 9) + (
        1j * low[1, 5, 0, 1, 0, 1, 0].imag
    )
    for name, blocks in cases.items():
        with pytest.raises(ValueError, match="not Hermitian bit for bit"):
            round_trip(blocks)
    # ... and the NumPy tier, which holds the blocks, takes them all
    numpy_tier = get_backend("numpy")
    for blocks in cases.values():
        held = numpy_tier.clover_pack(lambda c: blocks[c], lattice, blocks.dtype)
        assert held.tobytes() == blocks.tobytes()


@pytest.mark.parametrize("precision", [None, SINGLE, HALF],
                         ids=["double", "single", "half"])
def test_lanes_regions_and_casts_equal_those_of_the_blocks(precision):
    """``take_lanes`` / ``restrict_to_regions`` / ``restrict_to_block`` /
    ``stored`` of a packed operator hold the pack of what the NumPy
    tier's hold — regions that wrap round the lattice included.  A lane
    stack is not restricted again, on either tier."""
    geom = Geometry((4, 4, 4, 8))
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=7)
    ref, comp = (
        WilsonCloverOperator(gauge, mass=0.1, csw=1.0, boundary=PHYSICAL, kernel=k)
        for k in ("numpy", "c")
    )
    backend = comp._backend

    def same(packed_op, blocks_op):
        lanes = () if blocks_op.lanes is None else (blocks_op.lanes,)
        lattice = lanes + blocks_op.geometry.shape
        expected = blocks_op._chiral
        assert packed_op._chiral.shape == packed_shape(lattice)
        got = blocks_of(backend, packed_op._chiral, lattice)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    same(comp, ref)
    same(comp.stored(precision), ref.stored(precision))
    origins = [(0, 0, 0, 0), (2, 0, 2, 4), (-1, 3, -2, 6), (3, 3, 3, 7)]
    stacks = [
        op.restrict_to_regions(origins, (2, 4, 2, 4), (0, 2), precision=precision)
        for op in (comp, ref)
    ]
    same(*stacks)
    same(*(s.take_lanes([3, 1]) for s in stacks))
    for s in stacks:
        with pytest.raises(ValueError, match="lane stack"):
            s.restrict_to_regions([(0, 0, 0, 0), (0, 2, 0, 2)], (2, 2, 2, 2), (1, 3))
    part = BlockPartition(geom, ProcessGrid((1, 2, 1, 2)))
    same(*(op.restrict_to_block(part, 3) for op in (comp, ref)))
    assert comp.clover.tobytes() == ref.clover.tobytes()


@pytest.mark.parametrize("dtype", DTYPES, ids=["c128", "c64"])
def test_the_two_loop_shapes_agree_on_the_same_case(dtype):
    """Four (T = 1) slices of 81 sites, once side by side as lanes — each
    lane one unit starting on a block: W sites at a time — and once stacked
    along T with the T links zeroed and the T boundary cut — units of 81
    sites starting at 81, 162, 243: a site at a time.  The extents pick the
    loop; the arithmetic is one, and so are the bits."""
    rng = np.random.default_rng(11)
    slices, space = 4, (9, 3, 3)  # (Z, Y, X)
    links = random_complex(rng, (2, 4, 3, 3, slices) + space, dtype)
    links[:, 3] = 0  # no hop along T
    chiral = hermitian(rng, (slices,) + space, dtype)
    xs = random_complex(rng, (4, 3, slices) + space, dtype)
    conditions = ("antiperiodic", "periodic", "zero", "zero")

    def on(lattice):
        """The same arrays read as living on ``lattice``."""
        op = bare_operator(
            links.reshape((2, 4, 3, 3) + lattice), conditions, "c",
            chiral.reshape((2, 6, 6) + lattice), mass=0.3,
        )
        x = site_major(xs.reshape((4, 3) + lattice))
        return [op._apply_sites(x, rounding).tobytes()
                for rounding in ((None, HALF) if dtype is np.complex64 else (None,))]

    as_lanes = on((slices, 1) + space)
    stacked = on((slices,) + space)
    assert as_lanes == stacked
