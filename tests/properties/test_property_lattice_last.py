"""The full bit-identity matrix of the lattice-last stencils against the
lattice-first oracle: every operator family x any per-direction boundary
combination x dtype x lattice shape x random field, with and without a
batch axis.  The fast lane runs a deterministic subset
(``tests/dirac/test_lattice_last.py``)."""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

_spec = importlib.util.spec_from_file_location(
    "_aos_oracle", Path(__file__).parents[1] / "dirac" / "_aos_oracle.py"
)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

_BCS = st.sampled_from(["periodic", "antiperiodic", "zero"])


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(oracle.OPERATORS),
    dims=st.sampled_from(oracle.DIMS),
    conditions=st.tuples(_BCS, _BCS, _BCS, _BCS),
    dtype=st.sampled_from(oracle.DTYPES),
    seed=st.integers(0, 10**6),
    batch=st.sampled_from([0, 0, 2]),
)
def test_lattice_last_is_bit_identical(kind, dims, conditions, dtype, seed, batch):
    oracle.assert_bit_identical(kind, dims, conditions, dtype, seed, batch)
