"""One case of the compiled tier's bit-identity grid, shared by the fast
deterministic subset (``test_c_kernel_grid.py``) and the hypothesis
cross-product (``tests/properties/test_property_c_kernel.py``).

The lattice-last hop core and the whole compiled ``M x`` (layout change,
storage rounding, hops, site-diagonal tail) are driven directly on arrays
— random "links" and Hermitian "clover blocks" of any extents, 1 and odd
included, which no ``Geometry`` would take — through a bare operator that
carries only what ``_hop_sites`` / ``_apply_sites`` read: the clover term
in the form its tier holds (the blocks on ``numpy``, Hermitian-packed in
site vectors on ``c``: both loop shapes of the compiled body are met, the
W-wide one where the walk's unit is a multiple of W and the
site-at-a-time one on the odd extents).  The links' daggered half is the
conjugate of the forward half, as every operator holds it; the compiled
entries never read it, which every case checks with a daggered half of
NaNs.  Comparisons are on the
bytes, so the sign of a zero counts; NaNs compare by position (which of
two NaN operands an instruction hands on is the compiler's choice).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dirac import BoundarySpec, WilsonCloverOperator
from repro.kernels import get_backend
from repro.precision import DOUBLE, HALF, SINGLE, quantize_half

EXTENTS = (1, 2, 3, 4, 6, 8)
CONDITIONS = ("periodic", "antiperiodic", "zero")
FILLS = ("dense", "point", "zero", "negative-zero", "nan", "inf")
DTYPES = (np.complex128, np.complex64)
#: What ``_apply_sites`` is handed as its rounding, per operator dtype:
#: none, and the storages that live in that dtype.
STORAGES = {np.complex128: (None, DOUBLE), np.complex64: (None, SINGLE, HALF)}

needs_c = pytest.mark.skipif(
    not get_backend("c").available,
    reason=f"compiled tier unavailable: {get_backend('c').unavailable_reason}",
)


def bare_operator(links, conditions, kernel, chiral=None, mass=0.1):
    """What ``_hop_sites`` and ``_apply_sites`` read of an operator, and
    nothing else; ``chiral`` is the clover blocks ``(2, 6, 6) + lattice``."""
    op = object.__new__(WilsonCloverOperator)
    op._links_soa = links
    op.lanes = links.shape[4] if links.ndim == 9 else None
    op.mass = mass
    op.boundary = BoundarySpec(tuple(conditions))
    op._backend = op._form = get_backend(kernel)
    hold(op, chiral)
    return op


def hold(op, blocks):
    """Give ``op`` the clover blocks, in the form its tier holds."""
    op._chiral = blocks if blocks is None else op._form.clover_pack(
        lambda c: blocks[c], blocks.shape[3:], blocks.dtype
    )


def blocks_of(backend, held, lattice):
    """The blocks ``(2, 6, 6) + lattice`` a tier's held form stands for."""
    return np.stack([backend.clover_chirality(held, lattice, c) for c in (0, 1)])


def hermitian(rng, lattice, dtype):
    """Random Hermitian clover blocks ``(2, 6, 6) + lattice``: ``a + a^H``,
    made contiguous (the sum is not)."""
    a = random_complex(rng, (2, 6, 6) + lattice, dtype)
    return np.ascontiguousarray(a + np.conj(np.swapaxes(a, 1, 2)))


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes, NaNs matched by position."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    a, b = (np.ascontiguousarray(v).view(v.real.dtype) for v in (a, b))
    nan = np.isnan(a)
    return (
        np.array_equal(nan, np.isnan(b))
        and np.where(nan, 0, a).tobytes() == np.where(nan, 0, b).tobytes()
    )


def random_complex(rng, shape, dtype):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)


def random_links(rng, lane_axes, dtype):
    """Random lattice-last links ``(2, 4, 3, 3) + lane_axes`` whose daggered
    half is what :func:`repro.dirac.base.lattice_last_links` holds —
    ``[1, mu, b, a] = conj([0, mu, a, b])`` — as the compiled stencil reads
    only the forward half and conjugates in registers."""
    links = random_complex(rng, (2, 4, 3, 3) + lane_axes, dtype)
    np.conjugate(np.swapaxes(links[0], 1, 2), out=links[1])
    return links


def field(rng, shape, dtype, fill):
    if fill == "zero":
        return np.zeros(shape, dtype)
    if fill == "point":
        x = np.zeros(shape, dtype)
        x[(0,) * len(shape)] = 1.0
        return x
    x = random_complex(rng, shape, dtype)
    parts = x.view(x.real.dtype)
    if fill == "negative-zero":
        # Zeros of both signs in both parts, scattered through the field.
        where = rng.integers(0, 4, parts.shape)
        parts[where == 0] = -0.0
        parts[where == 1] = 0.0
    elif fill in ("nan", "inf"):
        # A few poisoned reals (infinities of both signs) among finite ones.
        where = rng.integers(0, 40, parts.shape)
        parts[where == 0] = np.nan if fill == "nan" else np.inf
        parts[where == 1] = np.nan if fill == "nan" else -np.inf
    return x


def site_major(xs):
    """A lattice-last field ``(4, 3, ...)`` as the caller's ``(..., 4, 3)``."""
    return np.ascontiguousarray(np.moveaxis(xs, (0, 1), (-2, -1)))


def assert_case(dims, dtype, conditions, batch, lanes, fill, seed=0):
    """C hop core == NumPy body; the whole compiled ``M x`` == the NumPy
    ``_apply_sites`` in every storage of the dtype, with and without a
    clover term, and on a complex64 field under the complex128 operator;
    every lane of a batched C result == its single-RHS one; a clover term
    that is not Hermitian refused by name; the C quantiser ==
    ``quantize_half`` in both layouts — on one generated case.
    ``dims`` is (X, Y, Z, T); ``batch`` / ``lanes`` 0 leave the axis out."""
    with np.errstate(invalid="ignore"):  # the nan / inf fills
        _assert_case(dims, dtype, conditions, batch, lanes, fill, seed)


def _assert_case(dims, dtype, conditions, batch, lanes, fill, seed):
    rng = np.random.default_rng(seed)
    lattice = tuple(reversed(dims))
    lane_axes = ((lanes,) if lanes else ()) + lattice
    batch_axes = ((batch,) if batch else ()) + lane_axes
    links = random_links(rng, lane_axes, dtype)
    xs = field(rng, (4, 3) + batch_axes, dtype, fill)
    ops = {k: bare_operator(links, conditions, k) for k in ("numpy", "c")}
    backend = get_backend("c")
    batched = bool(batch)
    x = site_major(xs)

    if any(c == "antiperiodic" and n == 1 for c, n in zip(conditions, dims)):
        for op in ops.values():
            with pytest.raises(ValueError, match="exceeds extent"):
                op._hop_sites(xs, batched)
            with pytest.raises(ValueError, match="exceeds extent"):
                op._apply_sites(x, None)
        return
    # The compiled entries read the forward links only: a daggered half of
    # NaNs gives the same bytes.
    blind = links.copy()
    blind[1] = np.nan
    expected = ops["numpy"]._hop_sites(xs, batched)
    got = backend.wilson_hop_sites(links, xs, batched, ops["c"].boundary)
    assert got is not None, "the C entry refused a contiguous same-dtype case"
    assert same_bits(got, expected)
    assert same_bits(
        backend.wilson_hop_sites(blind, xs, batched, ops["c"].boundary), expected
    )
    assert same_bits(ops["c"]._hop_sites(xs, batched), expected)
    for lane in range(batch):
        single = ops["c"]._hop_sites(np.ascontiguousarray(xs[:, :, lane]), False)
        assert same_bits(single, got[:, :, lane])

    mass = 0.1 * (seed % 7)
    fields = [x] + ([x.astype(np.complex64)] if dtype is np.complex128 else [])
    for chiral in (None, hermitian(rng, lane_axes, dtype)):
        for op in ops.values():
            hold(op, chiral)
            op.mass = mass
        for rounding in STORAGES[dtype]:
            for y in fields:
                expected = ops["numpy"]._apply_sites(y, rounding)
                got = backend.wilson_apply_sites(
                    links, ops["c"]._chiral, 4.0 + mass, y, batched,
                    ops["c"].boundary, rounding, None,
                )
                assert got is not None, "the C entry refused the case"
                assert got.dtype == y.dtype and same_bits(got, expected)
                assert same_bits(
                    backend.wilson_apply_sites(
                        blind, ops["c"]._chiral, 4.0 + mass, y, batched,
                        ops["c"].boundary, rounding, None,
                    ),
                    expected,
                )
                assert same_bits(ops["c"]._apply_sites(y, rounding), expected)
                for lane in range(batch):
                    assert same_bits(
                        ops["c"]._apply_sites(y[lane], rounding), got[lane]
                    )

    # What the packed form cannot represent is refused, not rounded off.
    with pytest.raises(ValueError, match="not Hermitian"):
        hold(ops["c"], random_complex(rng, (2, 6, 6) + lane_axes, dtype))

    if dtype is np.complex64:
        for array, leading in ((x, False), (xs, True)):
            got = backend.quantize_half(array, leading)
            assert got is not None
            assert same_bits(got, quantize_half(array, leading=leading))
