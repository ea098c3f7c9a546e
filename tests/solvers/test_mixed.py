"""Mixed-precision defect correction (reliable updates)."""

import numpy as np
import pytest

from repro.precision import DOUBLE, HALF, SINGLE
from repro.solvers import mixed_precision_bicgstab, mixed_precision_cg
from repro.solvers.space import STAGGERED_SPACE, WILSON_SPACE


class TestMixedBiCGstab:
    def test_single_inner_reaches_double_accuracy(self, wilson, b_wilson):
        """The central mixed-precision claim: low-precision iterations +
        high-precision corrections give full accuracy (ref. [3])."""
        res = mixed_precision_bicgstab(
            wilson.apply, b_wilson, SINGLE, tol=1e-10
        )
        assert res.converged
        assert res.residual < 1e-10
        assert res.restarts >= 2  # it really did cycle

    def test_half_inner(self, wilson, b_wilson):
        res = mixed_precision_bicgstab(
            wilson.apply, b_wilson, HALF, tol=1e-8, inner_tol=1e-2
        )
        assert res.converged
        assert res.residual < 1e-8

    def test_more_cycles_for_lower_precision(self, wilson, b_wilson):
        hi = mixed_precision_bicgstab(wilson.apply, b_wilson, SINGLE, tol=1e-9)
        lo = mixed_precision_bicgstab(
            wilson.apply, b_wilson, HALF, tol=1e-9, inner_tol=1e-2
        )
        assert lo.restarts >= hi.restarts


class TestMixedCG:
    def test_staggered_normal_system(self, staggered_normal, b_staggered):
        res = mixed_precision_cg(
            staggered_normal.apply, b_staggered, SINGLE, tol=1e-10,
            space=STAGGERED_SPACE,
        )
        assert res.converged
        assert res.residual < 1e-10

    def test_warm_start(self, staggered_normal, b_staggered):
        first = mixed_precision_cg(
            staggered_normal.apply, b_staggered, SINGLE, tol=1e-6,
            space=STAGGERED_SPACE,
        )
        refined = mixed_precision_cg(
            staggered_normal.apply, b_staggered, SINGLE, x0=first.x,
            tol=1e-11, space=STAGGERED_SPACE,
        )
        assert refined.converged
        assert refined.iterations <= first.iterations + 50

    def test_zero_rhs(self, staggered_normal, b_staggered):
        res = mixed_precision_cg(
            staggered_normal.apply, np.zeros_like(b_staggered), SINGLE
        )
        assert res.converged


def rounded_apply(op, x, precision):
    """``op.apply`` on ``x`` rounded to ``precision``, its result rounded
    again: a matvec in a reduced storage precision."""
    rounded = WILSON_SPACE.convert(x, precision)
    return WILSON_SPACE.convert(op.apply(rounded), precision)


class TestRoundedApply:
    def test_double_is_transparent(self, wilson, b_wilson):
        out = rounded_apply(wilson, b_wilson, DOUBLE)
        assert np.array_equal(out, wilson.apply(b_wilson))

    def test_single_rounds(self, wilson, b_wilson):
        out = rounded_apply(wilson, b_wilson, SINGLE)
        assert out.dtype == np.complex64
        ref = wilson.apply(b_wilson)
        assert np.abs(out - ref).max() < 1e-4 * np.abs(ref).max()

    def test_half_rounds_more(self, wilson, b_wilson):
        half = rounded_apply(wilson, b_wilson, HALF)
        single = rounded_apply(wilson, b_wilson, SINGLE)
        ref = wilson.apply(b_wilson)
        assert np.abs(half - ref).max() > np.abs(single - ref).max()
