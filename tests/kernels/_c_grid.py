"""One case of the compiled tier's bit-identity grid, shared by the fast
deterministic subset (``test_c_kernel_grid.py``) and the hypothesis
cross-product (``tests/properties/test_property_c_kernel.py``).

The lattice-last hop core and the packed tail are driven directly on
arrays — random "links" and "clover blocks" of any extents, 1 and odd
included, which no ``Geometry`` would take — through a bare operator that
carries only what ``_hop_sites`` reads.  Comparisons are on the bytes, so
the sign of a zero counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dirac import BoundarySpec, WilsonCloverOperator
from repro.dirac.clover import apply_chiral_sites
from repro.kernels import get_backend

EXTENTS = (1, 2, 3, 4, 6, 8)
CONDITIONS = ("periodic", "antiperiodic", "zero")
FILLS = ("dense", "point", "zero", "negative-zero")
DTYPES = (np.complex128, np.complex64)

needs_c = pytest.mark.skipif(
    not get_backend("c").available,
    reason=f"compiled tier unavailable: {get_backend('c').unavailable_reason}",
)


def bare_operator(links, conditions, kernel):
    """What ``_hop_sites`` reads of an operator, and nothing else."""
    op = object.__new__(WilsonCloverOperator)
    op._links_soa = links
    op.boundary = BoundarySpec(tuple(conditions))
    op._backend = get_backend(kernel)
    return op


def random_complex(rng, shape, dtype):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)


def field(rng, shape, dtype, fill):
    if fill == "zero":
        return np.zeros(shape, dtype)
    if fill == "point":
        x = np.zeros(shape, dtype)
        x[(0,) * len(shape)] = 1.0
        return x
    x = random_complex(rng, shape, dtype)
    if fill == "negative-zero":
        # Zeros of both signs in both parts, scattered through the field.
        parts = x.view(x.real.dtype)
        where = rng.integers(0, 4, parts.shape)
        parts[where == 0] = -0.0
        parts[where == 1] = 0.0
    return x


def assert_case(dims, dtype, conditions, batch, lanes, fill, seed=0):
    """C hop core == NumPy body, C tail == NumPy tail, and every lane of a
    batched C apply == its single-RHS apply, on one generated case.
    ``dims`` is (X, Y, Z, T); ``batch`` / ``lanes`` 0 leave the axis out."""
    rng = np.random.default_rng(seed)
    lattice = tuple(reversed(dims))
    lane_axes = ((lanes,) if lanes else ()) + lattice
    batch_axes = ((batch,) if batch else ()) + lane_axes
    links = random_complex(rng, (2, 4, 3, 3) + lane_axes, dtype)
    xs = field(rng, (4, 3) + batch_axes, dtype, fill)
    ops = {k: bare_operator(links, conditions, k) for k in ("numpy", "c")}
    batched = bool(batch)

    if any(c == "antiperiodic" and n == 1 for c, n in zip(conditions, dims)):
        for op in ops.values():
            with pytest.raises(ValueError, match="exceeds extent"):
                op._hop_sites(xs, batched)
        return
    expected = ops["numpy"]._hop_sites(xs, batched)
    got = get_backend("c").wilson_hop_sites(
        links, xs, batched, ops["c"].boundary
    )
    assert got is not None, "the C entry refused a contiguous same-dtype case"
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    assert ops["c"]._hop_sites(xs, batched).tobytes() == expected.tobytes()
    for lane in range(batch):
        single = ops["c"]._hop_sites(np.ascontiguousarray(xs[:, :, lane]), False)
        assert single.tobytes() == got[:, :, lane].tobytes()

    diagonal = 4.0 + 0.1 * (seed % 7)
    for chiral in (None, random_complex(rng, (2, 6, 6) + lane_axes, dtype)):
        tail = expected.copy()
        tail *= -0.5
        tail += diagonal * xs
        if chiral is not None:
            apply_chiral_sites(chiral, xs, tail, batched)
        out = expected.copy()
        assert get_backend("c").wilson_site_tail(out, xs, diagonal, chiral)
        assert out.tobytes() == tail.tobytes()
