"""The compiled tier's bit-identity grid as a generated cross-product:
unequal extents from {1, 2, 3, 4, 6, 8} per axis x dtype x each axis's
boundary x {single, batch, block lanes, batch x lanes} x dense / point /
all-zero / negative-zero-seeded / NaN- / Inf-seeded inputs — C hop core ==
``_hop_sites``; the whole compiled ``M x`` == the NumPy ``_apply_sites``
in every storage of the dtype (none / double / single / half), with and
without a clover term, and on a complex64 field under the complex128
operator; every batched lane == its single-RHS apply; the C quantiser ==
``quantize_half`` in both layouts (``tests/kernels/_c_grid.py``; the fast
lane walks a deterministic subset in
``tests/kernels/test_c_kernel_grid.py``)."""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

_spec = importlib.util.spec_from_file_location(
    "_c_grid", Path(__file__).parents[1] / "kernels" / "_c_grid.py"
)
grid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(grid)

_EXTENT = st.sampled_from(grid.EXTENTS)
_BC = st.sampled_from(grid.CONDITIONS)


@grid.needs_c
@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(
    dims=st.tuples(_EXTENT, _EXTENT, _EXTENT, _EXTENT),
    dtype=st.sampled_from(grid.DTYPES),
    conditions=st.tuples(_BC, _BC, _BC, _BC),
    batch=st.integers(0, 5),
    lanes=st.sampled_from([0, 0, 1, 3]),
    fill=st.sampled_from(grid.FILLS),
    seed=st.integers(0, 10**6),
)
def test_compiled_core_and_tail_are_bit_identical(
    dims, dtype, conditions, batch, lanes, fill, seed
):
    grid.assert_case(dims, dtype, conditions, batch, lanes, fill, seed)
