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
    random_complex,
    site_major,
)

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
def test_four_threads_at_once_equal_the_serial_results(dtype):
    """The calls release the GIL and the kernels keep no shared mutable
    state: ``threads``-backend ranks apply concurrently — the bare hop
    core and the whole matrix in the dtype's last storage (half, for
    complex64)."""
    rng = np.random.default_rng(3)
    lattice = (4, 6, 4, 8)
    links = random_complex(rng, (2, 4, 3, 3) + lattice, dtype)
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
