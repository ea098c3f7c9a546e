"""Failure injection: solvers must terminate and report honestly when the
operator or data misbehaves (no silent hangs, no false convergence)."""

import numpy as np
import pytest

from repro.solvers import (
    batched_bicgstab,
    batched_cg,
    batched_gcr,
    batched_mr,
    bicgstab,
    cg,
    gcr,
    mr,
)


@pytest.fixture()
def b(rng):
    return rng.standard_normal(512) + 1j * rng.standard_normal(512)


class TestNaNPropagation:
    def _nan_op(self, x):
        out = x.copy()
        out[0] = np.nan
        return out

    def test_cg_terminates_and_reports_failure(self, b):
        res = cg(self._nan_op, b, tol=1e-8, maxiter=20)
        assert not res.converged
        assert res.iterations <= 20

    def test_bicgstab_terminates(self, b):
        res = bicgstab(self._nan_op, b, tol=1e-8, maxiter=20)
        assert not res.converged

    def test_gcr_terminates(self, b):
        res = gcr(self._nan_op, b, tol=1e-8, kmax=4, maxiter=20)
        assert not res.converged


class Poisoning:
    """A well-conditioned operator (single vectors, or batches with the
    right-hand sides along the leading axis) that writes ``value`` into
    its ``at``-th application — into lane ``lane`` only of a batch, or
    into all of them.  ``hermitian`` makes it positive definite, for CG."""

    def __init__(self, at, value=np.nan, lane=None, hermitian=False):
        self.at, self.value, self.lane = at, value, lane
        self.hermitian = hermitian
        self.calls = 0

    def __call__(self, x):
        out = 2.0 * x + 0.3 * np.roll(x, 1, axis=-1)
        if self.hermitian:
            out += 0.3 * np.roll(x, -1, axis=-1)
        if self.calls == self.at:
            out[(..., 0) if self.lane is None else (self.lane, 0)] = self.value
        self.calls += 1
        return out


class TestNonFiniteExit:
    """A NaN or Inf produced by the operator ends the solve (the lane)
    within the iteration that met it, ``converged=False`` and
    ``extras["breakdown"] == "non-finite"`` — never a run to ``maxiter``
    under ``RuntimeWarning``s — on the reductions the solver makes
    anyway.  (A frozen lane's own vectors stay poisoned and NumPy's
    complex arithmetic flags them while its batch-mates finish: cleaning
    them would be the extra pass this does without.)"""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("at", [0, 1, 4, 5])
    def test_bicgstab_stops_in_the_iteration_that_met_it(self, b, at, value):
        clean = bicgstab(Poisoning(at=-1), b, tol=1e-10, maxiter=2000)
        assert clean.converged and clean.extras["breakdown"] is False
        assert clean.iterations > at // 2 + 1
        op = Poisoning(at, value)
        res = bicgstab(op, b, tol=1e-10, maxiter=2000)
        assert not res.converged
        assert res.extras["breakdown"] == "non-finite"
        # two applications an iteration, plus the true residual at the end
        assert res.iterations <= at // 2 + 1 and op.calls <= at + 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_non_finite_right_hand_side_stops_at_once(self, b):
        b[3] = np.inf
        op = Poisoning(at=-1)
        res = bicgstab(op, b, tol=1e-10, maxiter=2000)
        assert not res.converged and res.extras["breakdown"] == "non-finite"
        assert res.iterations == 0 and op.calls == 1

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("lane, at", [(0, 0), (2, 1), (1, 4), (3, 5)])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_batched_lane_freezes_and_mates_keep_their_bits(
        self, rng, lane, at, value
    ):
        batch = rng.standard_normal((4, 512)) + 1j * rng.standard_normal((4, 512))
        clean = batched_bicgstab(Poisoning(at=-1), batch, tol=1e-10, maxiter=2000)
        assert clean.converged.all() and not clean.extras["breakdown"].any()
        op = Poisoning(at, value, lane)
        res = batched_bicgstab(op, batch, tol=1e-10, maxiter=2000)
        mates = [i for i in range(4) if i != lane]
        assert not res.converged[lane] and res.converged[mates].all()
        assert list(res.extras["breakdown"]) == [
            "non-finite" if i == lane else False for i in range(4)
        ]
        assert res.iterations[lane] <= at // 2 + 1
        assert np.array_equal(res.iterations[mates], clean.iterations[mates])
        assert res.x[mates].tobytes() == clean.x[mates].tobytes()
        assert np.array_equal(res.residuals[mates], clean.residuals[mates])
        # ... and the batch ended with its mates, not at maxiter
        assert op.calls == 2 * clean.iterations[mates].max() + 1

    # -- the other Krylov loops: the same exit on their own reductions ----
    # (solver, its keywords, the operator's, applications per iteration)
    SCALAR = {
        "cg": (cg, dict(tol=1e-10, maxiter=2000), dict(hermitian=True)),
        "gcr": (gcr, dict(tol=1e-10, kmax=4, maxiter=2000), {}),
        "mr": (mr, dict(steps=40), {}),
    }
    BATCHED = {
        "cg": (batched_cg, dict(tol=1e-10, maxiter=2000), dict(hermitian=True)),
        "gcr": (batched_gcr, dict(tol=1e-10, kmax=4, maxiter=2000), {}),
        "mr": (batched_mr, dict(steps=40), {}),
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("at", [0, 1, 4, 9])
    @pytest.mark.parametrize("name", SCALAR)
    def test_cg_gcr_mr_stop_in_the_iteration_that_met_it(self, b, name, at, value):
        solver, how, kind = self.SCALAR[name]
        plain = Poisoning(at=-1, **kind)
        clean = solver(plain, b, **how)
        assert clean.converged and clean.extras["breakdown"] is False
        assert plain.calls > at + 3
        op = Poisoning(at, value, **kind)
        res = solver(op, b, **how)
        assert not res.converged
        assert res.extras["breakdown"] == "non-finite"
        # one application an iteration; GCR spends one more per restart
        # before the poisoned one and, with CG, one on the true residual
        # at the end
        assert op.calls <= at + 2 + (at // 4 if name == "gcr" else 0)
        assert op.calls < plain.calls
        # ... and the solution is the last good one, not a field of NaNs
        assert np.isfinite(res.x).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", SCALAR)
    def test_cg_gcr_mr_stop_at_once_on_a_non_finite_right_hand_side(self, b, name):
        solver, how, kind = self.SCALAR[name]
        b[3] = np.inf
        op = Poisoning(at=-1, **kind)
        res = solver(op, b, **how)
        assert not res.converged and res.extras["breakdown"] == "non-finite"
        assert op.calls <= 1

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("lane, at", [(0, 0), (2, 1), (1, 4), (3, 5)])
    @pytest.mark.parametrize("name", BATCHED)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_batched_cg_gcr_mr_freeze_the_lane_and_mates_keep_their_bits(
        self, rng, name, lane, at, value
    ):
        solver, how, kind = self.BATCHED[name]
        batch = rng.standard_normal((4, 512)) + 1j * rng.standard_normal((4, 512))
        mates = [i for i in range(4) if i != lane]
        # GCR's restart points are the batch's: its mates are held to
        # their own three-lane solve, the others to the clean batch of four.
        alone = name == "gcr"
        plain = Poisoning(at=-1, **kind)
        clean = solver(plain, batch[mates] if alone else batch, **how)
        assert clean.converged.all() and not clean.extras["breakdown"].any()
        kept = slice(None) if alone else mates
        op = Poisoning(at, value, lane, **kind)
        res = solver(op, batch, **how)
        assert not res.converged[lane] and res.converged[mates].all()
        assert list(res.extras["breakdown"]) == [
            "non-finite" if i == lane else False for i in range(4)
        ]
        assert res.x[mates].tobytes() == clean.x[kept].tobytes()
        assert np.array_equal(res.iterations[mates], clean.iterations[kept])
        assert np.array_equal(res.residuals[mates], clean.residuals[kept])
        # ... and the batch ended with its mates, not at maxiter
        assert op.calls == plain.calls

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_all_lanes_poisoned_ends_the_batch(self, rng):
        batch = rng.standard_normal((3, 512)) + 0j
        op = Poisoning(at=2)
        res = batched_bicgstab(op, batch, tol=1e-10, maxiter=2000)
        assert not res.converged.any() and op.calls <= 5
        assert list(res.extras["breakdown"]) == ["non-finite"] * 3


class TestSingularOperators:
    def test_cg_on_singular_operator_terminates_unconverged(self, b):
        """A rank-deficient PSD operator cannot be solved for a right-hand
        side with nullspace components; CG must terminate (breakdown or
        maxiter) and report failure, never claim convergence."""
        import warnings

        def projector(x):
            out = x.copy()
            out[256:] = 0  # annihilates half the space
            return out

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = cg(projector, b, tol=1e-10, maxiter=50)
        assert not res.converged
        assert res.iterations <= 50

    def test_zero_operator(self, b):
        res = bicgstab(lambda x: np.zeros_like(x), b, tol=1e-8, maxiter=10)
        assert not res.converged
        assert res.extras.get("breakdown", False)

    def test_mr_with_zero_operator_stops(self, b):
        res = mr(lambda x: np.zeros_like(x), b, steps=10)
        assert res.matvecs <= 1  # Ar = 0 -> immediate exit
        assert not np.any(res.x)


class TestHonestReporting:
    def test_unconverged_residual_is_true_residual(self, b):
        """Even on failure, the reported residual reflects b - A x."""

        def slow_op(x):
            return 1e-3 * x + x  # well-conditioned but we give few iters

        res = cg(slow_op, b, tol=1e-14, maxiter=1)
        r = b - slow_op(res.x)
        rel = np.linalg.norm(r) / np.linalg.norm(b)
        assert res.residual == pytest.approx(rel, rel=1e-6)

    def test_history_length_matches_iterations(self, b):
        res = cg(lambda x: 2 * x + 0.1 * np.roll(x, 1), b, tol=1e-10,
                 maxiter=100)
        # initial entry + one per iteration
        assert len(res.residual_history) == res.iterations + 1

    def test_gcr_breakdown_no_progress_exits(self, b):
        """An operator whose Krylov space collapses immediately must not
        loop to maxiter."""

        res = gcr(lambda x: np.zeros_like(x), b, tol=1e-8, maxiter=1000)
        assert not res.converged
        assert res.iterations < 10


class TestInputHygiene:
    def test_solvers_do_not_mutate_rhs(self, b):
        before = b.copy()
        cg(lambda x: 2 * x, b, tol=1e-10, maxiter=50)
        bicgstab(lambda x: 2 * x, b, tol=1e-10, maxiter=50)
        gcr(lambda x: 2 * x, b, tol=1e-10, maxiter=50)
        mr(lambda x: 2 * x, b, steps=5)
        assert np.array_equal(b, before)

    def test_solvers_do_not_mutate_x0(self, b, rng):
        x0 = rng.standard_normal(512) + 0j
        before = x0.copy()
        cg(lambda x: 2 * x, b, x0=x0, tol=1e-10, maxiter=50)
        bicgstab(lambda x: 2 * x, b, x0=x0, tol=1e-10, maxiter=50)
        assert np.array_equal(x0, before)
