"""Flexible restarted mixed-precision GCR (Algorithm 1)."""

import numpy as np
import pytest

from repro.precision import DOUBLE, HALF, SINGLE
from repro.solvers import gcr, mr
from repro.solvers.space import WILSON_SPACE


class TestPlainGCR:
    def test_converges_unpreconditioned(self, wilson, b_wilson):
        res = gcr(wilson.apply, b_wilson, tol=1e-9, kmax=16, maxiter=400)
        assert res.converged
        assert res.residual < 1e-8

    def test_true_residual(self, wilson, b_wilson):
        res = gcr(wilson.apply, b_wilson, tol=1e-9, kmax=16, maxiter=400)
        r = b_wilson - wilson.apply(res.x)
        rel = np.linalg.norm(r) / np.linalg.norm(b_wilson)
        assert rel == pytest.approx(res.residual, rel=1e-4)

    def test_restart_counting(self, wilson, b_wilson):
        res = gcr(wilson.apply, b_wilson, tol=1e-9, kmax=4, maxiter=400)
        assert res.converged
        assert res.restarts >= res.iterations // 4

    def test_small_kmax_still_converges(self, wilson, b_wilson):
        res = gcr(wilson.apply, b_wilson, tol=1e-8, kmax=2, maxiter=600)
        assert res.converged

    def test_zero_rhs(self, wilson, b_wilson):
        res = gcr(wilson.apply, np.zeros_like(b_wilson))
        assert res.converged and res.iterations == 0

    def test_initial_guess(self, wilson, b_wilson):
        sol = gcr(wilson.apply, b_wilson, tol=1e-10, maxiter=400).x
        res = gcr(wilson.apply, b_wilson, x0=sol, tol=1e-8)
        assert res.converged and res.iterations == 0

    def test_maxiter(self, wilson, b_wilson):
        res = gcr(wilson.apply, b_wilson, tol=1e-14, maxiter=5, kmax=4)
        assert res.iterations == 5
        assert not res.converged


class TestPreconditionedGCR:
    def test_mr_preconditioner_reduces_iterations(self, wilson, b_wilson):
        """A few MR sweeps as a (flexible) preconditioner must cut the
        Krylov iteration count — the mechanism GCR-DD exploits."""

        def precond(r):
            return mr(wilson.apply, r, steps=4).x

        plain = gcr(wilson.apply, b_wilson, tol=1e-8, maxiter=400)
        pre = gcr(
            wilson.apply, b_wilson, preconditioner=precond, tol=1e-8, maxiter=400
        )
        assert pre.converged
        assert pre.iterations < plain.iterations

    def test_nonlinear_preconditioner_tolerated(self, wilson, b_wilson):
        calls = [0]

        def flaky_precond(r):
            calls[0] += 1
            steps = 3 if calls[0] % 2 else 5  # deliberately non-fixed
            return mr(wilson.apply, r, steps=steps).x

        res = gcr(
            wilson.apply, b_wilson, preconditioner=flaky_precond,
            tol=1e-8, maxiter=400,
        )
        assert res.converged


def rounded(apply, precision):
    """``apply`` with its argument and its result rounded to ``precision``
    (what GCR's loop already does around its inner matvec)."""
    def inner(x):
        x = WILSON_SPACE.convert(x, precision)
        return WILSON_SPACE.convert(apply(x), precision)

    return inner


class TestMixedPrecision:
    """The inner matvec is the operator itself: the loop rounds ``p_k``
    and ``A p_k`` to the inner precision."""

    def test_single_inner(self, wilson, b_wilson):
        res = gcr(
            wilson.apply, b_wilson, inner_precision=SINGLE,
            outer_precision=DOUBLE, tol=1e-10, maxiter=600,
        )
        assert res.converged
        assert res.residual < 1e-9  # outer restarts recover full accuracy

    def test_half_inner_reaches_single_accuracy(self, wilson, b_wilson):
        res = gcr(
            wilson.apply, b_wilson, inner_precision=HALF,
            outer_precision=SINGLE, tol=1e-6, delta=0.1, maxiter=800,
        )
        assert res.converged
        assert res.residual < 2e-6

    @pytest.mark.parametrize("inner", [SINGLE, HALF], ids=lambda p: p.name)
    def test_rounding_around_the_inner_matvec_again_moves_no_bit(
        self, wilson, b_wilson, inner
    ):
        """Rounding the inner matvec's argument and result once more (as
        a precision wrapper around the operator did) gives the same
        solve, bit for bit: each format rounds a rounded field to
        itself."""
        kwargs = dict(inner_precision=inner, outer_precision=SINGLE,
                      tol=1e-6, kmax=8, maxiter=300)
        bare = gcr(wilson.apply, b_wilson, **kwargs)
        again = gcr(wilson.apply, b_wilson,
                    inner_op=rounded(wilson.apply, inner), **kwargs)
        assert bare.x.tobytes() == again.x.tobytes()
        assert bare.residual_history == again.residual_history

    def test_tolerance_clamped_to_outer_precision(self, wilson, b_wilson):
        """Asking single-precision GCR for 1e-12 must not spin forever:
        the effective tolerance is clamped to the representable level."""
        res = gcr(
            wilson.apply, b_wilson, outer_precision=SINGLE,
            inner_precision=SINGLE, tol=1e-14, maxiter=500,
        )
        assert res.converged
        assert res.residual < 5e-6

    def test_delta_forces_early_restarts(self, wilson, b_wilson):
        tight = gcr(wilson.apply, b_wilson, tol=1e-8, delta=0.5, kmax=32,
                    maxiter=400)
        loose = gcr(wilson.apply, b_wilson, tol=1e-8, delta=1e-6, kmax=32,
                    maxiter=400)
        assert tight.converged and loose.converged
        assert tight.restarts >= loose.restarts


class TestResidualHistory:
    def test_history_ends_with_true_residual(self, wilson, b_wilson):
        """The recomputed high-precision residual of every restart is part
        of the history: the last entry is the solver's reported (true)
        residual, not the drifted inner-precision estimate."""
        res = gcr(wilson.apply, b_wilson, tol=1e-8, kmax=8, maxiter=400)
        assert res.converged
        assert res.residual_history[-1] == pytest.approx(res.residual)

    def test_history_counts_restart_entries(self, wilson, b_wilson):
        """One entry for the initial residual, one per Krylov step, and one
        per high-precision restart recompute."""
        res = gcr(wilson.apply, b_wilson, tol=1e-8, kmax=8, maxiter=400)
        assert len(res.residual_history) == 1 + res.iterations + res.restarts

    def test_restart_entries_are_high_precision(self, wilson, b_wilson):
        """With a single-precision inner solver, the iterated estimates
        drift below what the true residual can reach; the appended restart
        values must match an independent recomputation."""
        res = gcr(
            wilson.apply, b_wilson, inner_precision=SINGLE,
            tol=1e-6, kmax=8, maxiter=400,
        )
        assert res.converged
        r = b_wilson - wilson.apply(res.x)
        rel = np.linalg.norm(r) / np.linalg.norm(b_wilson)
        assert res.residual_history[-1] == pytest.approx(rel, rel=1e-6)
