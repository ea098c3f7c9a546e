"""The compiled tier's bit-identity grid, fast lane: a deterministic walk
that meets every extent, boundary, fill and batch/lane shape at least once
per dtype — the hop core and the whole compiled ``M x`` in every storage
(``_c_grid.assert_case``; the hypothesis cross-product is
``tests/properties/test_property_c_kernel.py``) —, then re-entrancy."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from _c_grid import (
    CONDITIONS,
    DTYPES,
    FILLS,
    STORAGES,
    assert_case,
    bare_operator,
    field,
    hermitian,
    needs_c,
    random_links,
    same_bits,
    site_major,
)
from repro.kernels import get_backend

pytestmark = needs_c

#: (dims (X, Y, Z, T), batch, lanes): every extent of the grid on every
#: axis, the unit growing through Z and T or not, all four stackings.
SHAPES = [
    ((4, 4, 4, 4), 0, 0),
    ((8, 8, 8, 8), 0, 0),
    ((1, 2, 3, 4), 0, 0),
    ((6, 8, 1, 3), 2, 0),
    ((3, 1, 6, 2), 0, 3),
    ((2, 3, 4, 1), 5, 2),
    ((8, 6, 3, 2), 1, 1),
    ((2, 2, 2, 2), 3, 4),
]


@pytest.mark.parametrize("dtype", DTYPES, ids=["c128", "c64"])
@pytest.mark.parametrize("dims, batch, lanes", SHAPES)
def test_grid_walk(dims, batch, lanes, dtype):
    for i, fill in enumerate(FILLS):
        for j in range(3):
            # each axis meets each boundary as the walk goes round
            conditions = tuple(CONDITIONS[(i + j + mu) % 3] for mu in range(4))
            assert_case(dims, dtype, conditions, batch, lanes, fill, seed=i + j)


@pytest.mark.parametrize("dtype", DTYPES, ids=["c128", "c64"])
@pytest.mark.parametrize("fill", ["point", "negative-zero", "zero"])
def test_cold_links_conjugated_in_registers(dtype, fill):
    """Links whose imaginary parts are zeros of both signs, as a cold
    configuration's are, under point and signed-zero fields: both
    compiled entries, which conjugate ``U(x - mu)`` in registers, equal
    the NumPy body, which multiplies by the held daggers, and read no
    daggered link."""
    rng = np.random.default_rng(7)
    lattice = (2, 4, 3, 4)
    links = random_links(rng, lattice, dtype)
    links[0].imag = np.where(rng.integers(0, 2, links[0].shape) == 0, 0.0, -0.0)
    np.conjugate(np.swapaxes(links[0], 1, 2), out=links[1])
    blind = links.copy()
    blind[1] = np.nan
    conditions = ("periodic", "antiperiodic", "zero", "periodic")
    chiral = hermitian(rng, lattice, dtype)
    ops = {k: bare_operator(links, conditions, k, chiral) for k in ("numpy", "c")}
    backend = get_backend("c")
    xs = field(rng, (4, 3) + lattice, dtype, fill)
    expected = ops["numpy"]._hop_sites(xs, False)
    for held in (links, blind):
        got = backend.wilson_hop_sites(held, xs, False, ops["c"].boundary)
        assert same_bits(got, expected)
    x = site_major(xs)
    expected = ops["numpy"]._apply_sites(x, None)
    for held in (links, blind):
        got = backend.wilson_apply_sites(
            held, ops["c"]._chiral, ops["c"].diagonal_coefficient, x, False,
            ops["c"].boundary, None, None,
        )
        assert same_bits(got, expected)


@pytest.mark.parametrize("dtype", DTYPES, ids=["c128", "c64"])
def test_four_threads_at_once_equal_the_serial_results(dtype):
    """The calls release the GIL and the kernels keep no shared mutable
    state: ``threads``-backend ranks apply concurrently — the bare hop
    core and the whole matrix in the dtype's last storage (half, for
    complex64)."""
    rng = np.random.default_rng(3)
    lattice = (4, 6, 4, 8)
    links = random_links(rng, lattice, dtype)
    chiral = hermitian(rng, lattice, dtype)
    op = bare_operator(
        links, ("periodic", "zero", "antiperiodic", "periodic"), "c", chiral
    )
    rounding = STORAGES[dtype][-1]
    fields = [field(rng, (4, 3) + lattice, dtype, "dense") for _ in range(4)]

    def both(xs):
        return op._hop_sites(xs, False), op._apply_sites(site_major(xs), rounding)

    serial = [both(x) for x in fields]
    results = [[] for _ in fields]

    def work(i):
        for _ in range(25):
            results[i].append(both(fields[i]))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    for expected, got in zip(serial, results):
        assert len(got) == 25
        assert all(
            g.tobytes() == e.tobytes() for pair in got for g, e in zip(pair, expected)
        )
