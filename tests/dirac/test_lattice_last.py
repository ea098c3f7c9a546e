"""The lattice-last NumPy stencils are bit-identical to the lattice-first
formulation they replaced (``_aos_oracle.py``): transposes and slice-writes
only move data, so the per-site IEEE operation sequence is unchanged.

Fast lane: every operator x boundary x dtype at 4^4, plus the asymmetric
and ghost-padded shapes on the boundaries that exercise every branch of the
shift.  The full cross-product runs as a hypothesis property
(``tests/properties/test_property_lattice_last.py``, ``slow``).
"""

import numpy as np
import pytest

from _aos_oracle import (
    BOUNDARIES,
    DIMS,
    DTYPES,
    OPERATORS,
    assert_bit_identical,
)

from repro.lattice.geometry import shift_sites
from repro.kernels import get_backend
from repro.lattice import Geometry

_DTYPE_IDS = [np.dtype(d).name for d in DTYPES]


@pytest.mark.parametrize("dtype", DTYPES, ids=_DTYPE_IDS)
@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("kind", OPERATORS)
def test_hopping_term_matches_lattice_first_oracle(kind, boundary, dtype):
    assert_bit_identical(kind, DIMS[0], BOUNDARIES[boundary], dtype)


@pytest.mark.parametrize("dtype", DTYPES, ids=_DTYPE_IDS)
@pytest.mark.parametrize("boundary", ["periodic", "zero-2"])
@pytest.mark.parametrize("dims", DIMS[1:], ids=["asymmetric", "ghost-padded"])
@pytest.mark.parametrize("kind", OPERATORS)
def test_asymmetric_and_padded_shapes(kind, dims, boundary, dtype):
    assert_bit_identical(kind, dims, BOUNDARIES[boundary], dtype)


@pytest.mark.skipif(not get_backend("c").available, reason="no compiled tier")
@pytest.mark.parametrize("dtype", DTYPES, ids=_DTYPE_IDS)
@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("dims", DIMS, ids=["4^4", "asymmetric", "ghost-padded"])
def test_compiled_tier_matches_lattice_first_oracle(dims, boundary, dtype):
    """The oracle once more with ``kernel="c"`` named: the compiled hop
    core against the lattice-first formulation directly, not through the
    NumPy body it stands in for (single and batched; a complex64 field on
    these complex128 links is the core's fall-through case)."""
    for batch in (0, 3):
        assert_bit_identical(
            "wilson_clover", dims, BOUNDARIES[boundary], dtype, batch=batch,
            kernel="c",
        )


@pytest.mark.parametrize("dtype", DTYPES, ids=_DTYPE_IDS)
@pytest.mark.parametrize("kind", ["staggered", "asqtad"])
def test_batched_staggered_shares_the_kernel(kind, dtype):
    """The staggered stencil has no GEMM path: a leading multi-RHS axis
    runs through the same lattice-last body."""
    assert_bit_identical(kind, DIMS[0], BOUNDARIES["zero-2"], dtype, batch=3)


@pytest.mark.parametrize("boundary", ["periodic", "antiperiodic", "zero"])
@pytest.mark.parametrize("steps", [+1, -1, +3, -3, +4, -5])
def test_shift_sites_equals_geometry_shift(steps, boundary, rng):
    """Two slice-writes reproduce ``np.roll`` + patch, including the
    whole-extent shifts a 4-site direction sees under the 3-hop stencil."""
    geom = Geometry((4, 4, 4, 4))
    src = rng.normal(size=(2, 3) + geom.shape)
    aos = np.moveaxis(src, (0, 1), (-2, -1))
    for mu in range(4):
        if boundary == "antiperiodic" and abs(steps) >= 4:
            with pytest.raises(ValueError, match="exceeds extent"):
                shift_sites(np.empty_like(src), src, 5 - mu, steps, boundary)
            continue
        expected = geom.shift(aos, mu, steps, boundary=boundary)
        got = shift_sites(np.empty_like(src), src, 5 - mu, steps, boundary)
        assert np.array_equal(np.moveaxis(got, (0, 1), (-2, -1)), expected)
