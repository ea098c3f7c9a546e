"""The half format rounds a rounded field to itself.

GCR's loop (:func:`repro.solvers.multirhs.batched_gcr`) rounds ``p_k`` to
the inner precision before its inner matvec and ``A p_k`` after it, and
hands the operator ``p_k`` as it is: a second pair of roundings around the
matvec moves no bit.  For the half format that rests on one fact about a
site's scale.  A site of maximum magnitude ``s`` is rounded to ``q u``,
``q`` an integer in ``[-32767, 32767]`` and ``u = fl(s / 32767)``, its
largest component to ``32767 u``; the second rounding takes ``s' =
fl(32767 u)`` as the site's maximum, and ``fl(s' / 32767) == u`` makes its
unit the first one's, so every ``q`` comes back.  That round trip is checked
below over every float32 of several binades, those whose unit is subnormal
among them.

It fails on one ``s`` only, the largest float32: there
``fl(32767 u)`` overflows, so the first rounding already writes an
infinity.  Two more kinds of site round differently a second time:

- a site whose unit underflows to zero (``s`` below about ``2**-135``) is
  rounded to zeros signed as its components, and the second rounding writes
  ``+0`` where the first wrote ``-0``.  Every value is the same.  An
  operator's non-zero results do not depend on the sign of a zero it reads,
  and the rounding after it writes every zero it is handed as ``+0``, so
  ``A p_k`` keeps its bits;
- a site with a NaN takes the scale 1, and components beyond ``2**22 /
  32767`` in magnitude are not integers of it: they move by an ulp.

In the last two cases, and at the overflow, the site holds an infinity or a
NaN, so a GCR lane through it is poisoned (its norms are not finite) either
way.  Both quantisers are checked, the compiled one and NumPy's, in both
layouts: site-major ``(..., 4, 3)`` and lattice-last ``(4, 3, ...)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import get_backend
from repro.precision import quantize_half

C = get_backend("c")


def numpy_quantiser(x, leading):
    return quantize_half(x, leading=leading)


def compiled_quantiser(x, leading):
    out = C.quantize_half(x, leading=leading)
    assert out is not None, "the compiled quantiser declined the field"
    return out


QUANTISERS = {"numpy": numpy_quantiser, "c": compiled_quantiser}
needs_c = pytest.mark.skipif(
    not C.available, reason=f"compiled tier unavailable: {C.unavailable_reason}"
)


@pytest.fixture(params=["numpy", pytest.param("c", marks=needs_c)])
def quantiser(request):
    return QUANTISERS[request.param]


@pytest.fixture(params=["site-major", "lattice-last"])
def layout(request):
    return request.param == "lattice-last"


def sites(rng, n, scale):
    """``n`` random Wilson sites ``(n, 4, 3)``, each scaled by ``scale``."""
    x = rng.standard_normal((n, 4, 3)) + 1j * rng.standard_normal((n, 4, 3))
    return (x * np.asarray(scale).reshape(-1, 1, 1)).astype(np.complex64)


def hard_field(rng):
    """Sites of every kind the second rounding must keep: scales from
    subnormal sites whose unit is still subnormal (``2**-133``) to
    ``2**100``; zero sites, of either sign; sites below ``2**-135`` with no
    negative component; sites with a NaN among small components, and with
    infinities of either sign."""
    scaled = sites(rng, 512, 2.0 ** rng.uniform(-133, 100, 512))
    zeros = np.zeros((8, 4, 3), np.complex64)
    zeros.view(np.float32)[::2] = -0.0
    tiny = np.abs(sites(rng, 8, 2.0**-140).view(np.float32)).view(np.complex64)
    nan = sites(rng, 16, 8.0)
    nan.view(np.float32)[:, 1, 3] = np.nan
    nan.view(np.float32)[::2, 3, 0] = -np.nan
    inf = sites(rng, 16, 1.0)
    inf.view(np.float32)[:, 2, 1] = np.inf
    inf.view(np.float32)[::2, 0, 4] = -np.inf
    return np.concatenate([scaled, zeros, tiny, nan, inf])


def in_layout(x, leading):
    return np.ascontiguousarray(np.moveaxis(x, (-2, -1), (0, 1))) if leading else x


def site_major(x, leading):
    return np.ascontiguousarray(np.moveaxis(x, (0, 1), (-2, -1))) if leading else x


def test_a_rounded_field_rounds_to_itself(quantiser, layout):
    x = in_layout(hard_field(np.random.default_rng(45)), layout)
    with np.errstate(invalid="ignore", over="ignore"):
        once = quantiser(x, layout)
        twice = quantiser(once, layout)
    assert twice.dtype == once.dtype == np.complex64
    assert twice.tobytes() == once.tobytes()


@needs_c
def test_the_quantisers_agree(layout):
    x = in_layout(hard_field(np.random.default_rng(7)), layout)
    with np.errstate(invalid="ignore", over="ignore"):
        assert (numpy_quantiser(x, layout).tobytes()
                == compiled_quantiser(x, layout).tobytes())


def binade(e: int) -> np.ndarray:
    """Every positive float32 in ``[2**e, 2**(e + 1))``: 2**23 of them in a
    normal binade, fewer in a subnormal one."""
    lo = np.float32(2.0**e).view(np.uint32)
    # the last binade ends where the infinity starts
    hi = np.float32(2.0 ** (e + 1) if e < 127 else np.inf).view(np.uint32)
    return np.arange(lo, hi, dtype=np.uint32).view(np.float32)


#: [2**-140, 2**-139): subnormal maxima whose unit underflows to 0;
#: [2**-130, 2**-129), [2**-120, 2**-119) and [2**-112, 2**-111): subnormal
#: units, of subnormal and of normal maxima; then ordinary binades, and the
#: last one.
BINADES = (-140, -130, -120, -112, -1, 0, 17, 100, 127)


@pytest.mark.parametrize("e", BINADES)
def test_the_site_max_round_trip(e):
    """``fl(fl(32767 fl(s / 32767)) / 32767) == fl(s / 32767)`` for every
    float32 ``s`` of the binade, in chunks; in the last binade the one
    failure is the ``s`` where ``fl(32767 u)`` overflows."""
    s = binade(e)
    c = np.float32(32767)
    failures = []
    with np.errstate(over="ignore", under="ignore"):
        for lo in range(0, len(s), 1 << 21):
            chunk = s[lo:lo + (1 << 21)]
            unit = chunk / c
            back = c * unit
            assert unit.dtype == back.dtype == np.float32
            wrong = (back / c) != unit
            failures.extend(chunk[wrong])
            assert np.isinf(back[wrong]).all()
    if e == 127:
        assert failures == [np.finfo(np.float32).max]
    else:
        assert not failures


def test_what_a_second_rounding_changes(quantiser, layout):
    """The three kinds of site the module docstring names: each differs
    from itself rounded again only as said there."""
    rng = np.random.default_rng(3)
    top = np.finfo(np.float32).max
    tiny = sites(rng, 4, 2.0**-140)  # signed components, unit 0
    overflow = sites(rng, 4, 0.1)
    overflow.view(np.float32)[:, 0, 0] = top
    nan = sites(rng, 4, 1e4)
    nan.view(np.float32)[:, 1, 1] = np.nan
    x = in_layout(np.concatenate([tiny, overflow, nan]), layout)
    with np.errstate(invalid="ignore", over="ignore"):
        once = quantiser(x, layout)
        twice = quantiser(once, layout)
    once, twice = (site_major(v, layout) for v in (once, twice))
    parts = once.view(np.float32), twice.view(np.float32)
    # the tiny sites: the same values, each zero now +0
    assert np.array_equal(once[:4], twice[:4])
    assert np.signbit(parts[0][:4]).any() and not np.signbit(parts[1][:4]).any()
    assert twice[:4].tobytes() != once[:4].tobytes()
    # the other two: not finite after the first rounding already
    assert not np.isfinite(parts[0][4:8]).all(axis=(1, 2)).any()
    assert not np.isfinite(parts[0][8:]).all(axis=(1, 2)).any()
