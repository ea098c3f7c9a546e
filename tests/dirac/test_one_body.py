"""One representation and one apply on the packing tiers (PR 22): the
clover term is built as its chiral blocks with the bits of the dense build
it retires, and ``M x`` through the one lattice-last body stays within a
budget of the dense three-pass form kept in ``_dense_oracle.py``."""

import numpy as np
import pytest

from _dense_oracle import BUDGET, dense_clover_field, dense_matrix

from repro.dirac import PHYSICAL, WilsonCloverOperator
from repro.dirac.clover import (
    build_clover_blocks,
    build_clover_field,
    chiral_blocks,
)
from repro.kernels import available_backends
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.precision import DOUBLE

GEOM = Geometry((4, 4, 4, 8))
PACKING = list(available_backends("wilson", packed=True))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_chiral_build_has_the_bits_of_the_dense_one(seed):
    gauge = GaugeField.weak(GEOM, epsilon=0.25, rng=seed)
    dense = dense_clover_field(gauge, 1.3)
    blocks = build_clover_blocks(gauge, 1.3)
    assert np.array_equal(blocks, chiral_blocks(dense))
    assert blocks.tobytes() == np.ascontiguousarray(chiral_blocks(dense)).tobytes()
    assert np.array_equal(build_clover_field(gauge, 1.3), dense)
    # bitwise Hermitian, imaginary diagonal exactly zero
    assert np.array_equal(blocks, np.conj(np.swapaxes(blocks, 1, 2)))


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64],
                         ids=["c128", "c64"])
@pytest.mark.parametrize("kernel", PACKING)
def test_one_apply_stays_within_the_budget_of_the_dense_form(kernel, dtype):
    for seed in (0, 1, 2):
        gauge = GaugeField.weak(GEOM, epsilon=0.25, rng=seed)
        op = WilsonCloverOperator(
            gauge, mass=0.1, csw=1.0, boundary=PHYSICAL, kernel=kernel
        )
        dense = dense_clover_field(gauge, 1.0)
        for batch in (0, 3):
            shape = ((batch,) if batch else ()) + GEOM.shape + (4, 3)
            x = SpinorField.random(GEOM, rng=seed + 10).data
            x = np.broadcast_to(x, shape).astype(dtype)
            got, expected = op.apply(x), dense_matrix(op, dense, x)
            assert got.dtype == expected.dtype == dtype
            moved = np.linalg.norm(got - expected) / np.linalg.norm(expected)
            assert 0 < moved <= BUDGET[np.dtype(dtype)]


@pytest.mark.parametrize("kernel", PACKING)
def test_no_dense_branch_and_double_storage_is_the_operator_itself(kernel):
    gauge = GaugeField.weak(GEOM, epsilon=0.25, rng=0)
    op = WilsonCloverOperator(gauge, mass=0.1, csw=1.0, kernel=kernel)
    assert op._chiral is build_clover_blocks(gauge, 1.0, op._form)
    double = op.stored(DOUBLE)
    assert double._chiral is op._chiral and double._links_soa is op._soa_links()
    x = SpinorField.random(GEOM, rng=4).data
    assert double.apply(x).tobytes() == op.apply(x).tobytes()
    # The dense field is a derived form, expanded for whoever asks.
    assert np.array_equal(op.clover, dense_clover_field(gauge, 1.0))
    assert op.clover is not op.clover and double.clover is None
    # ... on every tier: the reference one borrows the form the host's
    # fast tier keeps, and reads the blocks out of it.
    ref = WilsonCloverOperator(gauge, mass=0.1, csw=1.0, kernel="numpy_ref")
    assert ref._chiral is build_clover_blocks(gauge, 1.0, ref._form)
    assert ref._form is WilsonCloverOperator(gauge, csw=1.0)._form
    assert np.array_equal(ref.clover, op.clover)
    moved = np.linalg.norm(ref.apply(x) - op.apply(x)) / np.linalg.norm(op.apply(x))
    assert 0 < moved <= BUDGET[np.dtype(np.complex128)]
