"""The repository's one reduction order, on every tier: the NumPy
``lane_reduce`` (the no-compiler reduction) is its first version byte for
byte, the compiled one is the NumPy one, and the batched family's
complex128 reductions take it whatever the host BLAS.

Odd site counts (a partial last slot round), rows of one site, one and
twelve components, both dtypes; dense fills, NaN and infinities of both
signs, and zeros of both signs in both parts — a sum's sign survives only
where every term it adds keeps it.  The results are compared as bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from _lane_reduce_oracle import previous_lane_reduce
from repro.kernels import get_backend
from repro.linalg import blas

#: (rows, sites, components): odd counts, one site, and an 8^4 half row.
SHAPES = [(1, 1, 12), (3, 5, 12), (2, 13, 3), (4, 27, 1), (2, 9, 12), (1, 2048, 12)]
FILLS = ("dense", "nan", "inf", "signed-zero")
DTYPES = {"c128": np.complex128, "c64": np.complex64}


def fields(shape, dtype, fill, seed):
    rng = np.random.default_rng(seed)
    x, y = (
        (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
        for _ in "xy"
    )
    for v in (x, y):
        parts = v.view(v.real.dtype)
        where = rng.integers(0, 8, parts.shape)
        if fill == "nan":
            parts[where == 0] = np.nan
        elif fill == "inf":
            parts[where == 0] = np.inf
            parts[where == 1] = -np.inf
        elif fill == "signed-zero":
            parts[where < 3] = -0.0
            parts[where == 3] = 0.0
    if fill == "signed-zero":
        x[0] = complex(-0.0, -0.0)  # a row whose every term is a signed zero
    return x, y


def cases():
    for shape in SHAPES:
        for dtype in DTYPES:
            for fill in FILLS:
                yield shape, dtype, fill


def ids(case):
    shape, dtype, fill = case
    return f"{'x'.join(map(str, shape))}-{dtype}-{fill}"


@pytest.mark.parametrize("case", list(cases()), ids=ids)
def test_numpy_order_is_its_first_version(case):
    shape, dtype, fill = case
    x, y = fields(shape, DTYPES[dtype], fill, seed=sum(shape))
    with np.errstate(invalid="ignore", over="ignore"):
        for other in (None, y):
            got = blas.lane_reduce(x, other, site_axes=1)
            want = previous_lane_reduce(x, other, site_axes=1)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", list(cases()), ids=ids)
def test_compiled_order_is_the_numpy_one(case):
    c = get_backend("c")
    if not c.available:
        pytest.skip(f"no compiled tier: {c.unavailable_reason}")
    shape, dtype, fill = case
    x, y = fields(shape, DTYPES[dtype], fill, seed=sum(shape) + 1)
    wilson = shape[2] == 12
    for other in (None, y):
        with np.errstate(invalid="ignore", over="ignore"):
            want = blas.lane_reduce(x, other, site_axes=1)
        got = c.lane_reduce(x, other, shape[2])
        assert got is not None, "the compiled tier declined"
        assert got.tobytes() == want.tobytes()
        if wilson:  # the layout does not enter: the same rows, Wilson-shaped
            lead = x.shape[:2]
            got = blas.lane_order(
                x.reshape(lead + (4, 3)),
                None if other is None else other.reshape(lead + (4, 3)),
            )
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", list(DTYPES))
def test_rows_without_site_axes(dtype):
    """A ``(rows, n)`` field under the Wilson space's two site axes: all but
    the row axis are one site's components, on every tier."""
    x, y = fields((3, 40), DTYPES[dtype], "dense", seed=7)
    want = previous_lane_reduce(x[:, None], y[:, None], site_axes=1)
    assert blas.lane_reduce(x, y).tobytes() == want.tobytes()
    assert blas.lane_order(x, y).tobytes() == want.tobytes()


def test_batched_family_takes_the_order():
    """``bcdot`` / ``bnorm2`` / ``brdot`` of complex128 fields are the
    order's; of complex64 ones, ``np.vecdot``'s (the host BLAS)."""
    x, y = fields((3, 2, 4, 4, 2, 4, 3), np.complex128, "dense", seed=3)
    assert blas.bcdot(x, y).tobytes() == blas.lane_reduce(x, y).tobytes()
    assert blas.bnorm2(x).tobytes() == blas.lane_reduce(x).tobytes()
    assert blas.brdot(x, y).tobytes() == blas.lane_reduce(x, y).real.tobytes()
    lo, hi = x.astype(np.complex64), y.astype(np.complex64)
    flat = lo.reshape(3, -1), hi.reshape(3, -1)
    assert blas.bcdot(lo, hi).tobytes() == np.vecdot(*flat).astype(
        np.complex128
    ).tobytes()
