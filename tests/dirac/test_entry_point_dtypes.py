"""Every public operator entry point returns the dtype it was given: a
complex64 field must not be silently promoted (and computed) in double by
a complex128 table — gamma5, the clover matrices, the even-odd site
matrices, a numpy scalar — on any path, batched or not."""

import numpy as np
import pytest

from repro.dirac import (
    AsqtadOperator,
    EvenOddPreconditionedWilson,
    NaiveStaggeredOperator,
    WilsonCloverOperator,
)

_STENCILS = ("wilson", "wilson_clover", "staggered", "asqtad")
_COMPOSITES = ("normal(wilson_clover)", "normal(asqtad)", "shifted(wilson_clover)")
CASES = [
    (name, entry)
    for name in _STENCILS
    for entry in (
        "apply", "apply_dagger", "dslash", "apply_hopping", "apply_site_diagonal"
    )
] + [
    (name, entry) for name in _COMPOSITES for entry in ("apply", "apply_dagger")
] + [
    ("eo(wilson_clover)", entry)
    for entry in ("apply", "apply_dagger", "prepare_rhs", "reconstruct")
]


@pytest.fixture(scope="module")
def operators(weak_gauge):
    clover = WilsonCloverOperator(weak_gauge, 0.1, 1.0)
    asqtad = AsqtadOperator.from_gauge(weak_gauge, 0.1)
    return {
        "wilson": WilsonCloverOperator(weak_gauge, 0.1, 0.0),
        "wilson_clover": clover,
        "staggered": NaiveStaggeredOperator(weak_gauge, 0.1),
        "asqtad": asqtad,
        "normal(wilson_clover)": clover.normal(),
        "normal(asqtad)": asqtad.normal(),
        "shifted(wilson_clover)": clover.shifted(0.25),
        "eo(wilson_clover)": EvenOddPreconditionedWilson(clover),
    }


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128], ids=["c64", "c128"])
@pytest.mark.parametrize("batch", [0, 2], ids=["single", "batched"])
@pytest.mark.parametrize("name,entry", CASES)
def test_entry_point_returns_input_dtype(operators, name, entry, batch, dtype, rng):
    op = operators[name]
    shape = op.geometry.shape + ((4, 3) if op.nspin == 4 else (3,))
    if batch:
        shape = (batch,) + shape
    x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
    if entry in ("prepare_rhs", "reconstruct"):
        # The even-odd conversions take a full-lattice source: prepare_rhs
        # returns its even half-lattice field, reconstruct(x_e, b) the full
        # solution.
        full = shape[: bool(batch)] + op.wilson.geometry.shape + (4, 3)
        b = (rng.standard_normal(full) + 1j * rng.standard_normal(full)).astype(dtype)
        out = op.prepare_rhs(b) if entry == "prepare_rhs" else op.reconstruct(x, b)
        assert out.shape == (x.shape if entry == "prepare_rhs" else b.shape)
    else:
        out = getattr(op, entry)(x)
        assert out.shape == x.shape
    assert out.dtype == np.dtype(dtype)
