"""A finished lane leaves the batch: ``batched_bicgstab`` and ``batched_cg``
against the frozen-lane loops they replaced (``_frozen_lane_oracle``).

Every lane whose vectors stay finite gets the oracle's bits — solution,
iterations, residual history, convergence, breakdown reason — and the
solve makes the oracle's matvecs and reductions; only the flops fall, to
the lanes actually applied.  A lane that went non-finite keeps the ``x``
it had when it left: the oracle's on that lane alone (riding frozen, its
NaNs kept spreading into ``x`` for as long as its mates iterated).
"""

from __future__ import annotations

import numpy as np
import pytest

import _frozen_lane_oracle as oracle
from repro.lattice import SpinorField
from repro.solvers import batched_bicgstab, batched_cg
from repro.util.counters import tally

SOLVERS = {
    "bicgstab": (batched_bicgstab, oracle.batched_bicgstab),
    "cg": (batched_cg, oracle.batched_cg),
}


def run(solver, op, b, **how):
    with tally() as t:
        res = solver(op, b, **how)
    return res, t


def assert_matches(op, b, name, nonfinite=(), **how):
    """The retiring loop against the oracle on ``b``; the lanes in
    ``nonfinite`` hold their ``x`` to the oracle's on that lane alone."""
    retiring, frozen = SOLVERS[name]
    got, t_got = run(retiring, op, b, **how)
    want, t_want = run(frozen, op, b, **how)
    assert got.matvecs == want.matvecs
    assert (t_got.reductions, t_got.local_reductions) == (
        t_want.reductions, t_want.local_reductions)
    assert t_got.flops <= t_want.flops
    assert np.array_equal(got.iterations, want.iterations)
    assert np.array_equal(got.converged, want.converged)
    assert list(got.extras["breakdown"]) == list(want.extras["breakdown"])
    assert len(got.residual_history) == len(want.residual_history)
    for row, expected in zip(got.residual_history, want.residual_history):
        assert np.array_equal(row, expected, equal_nan=True)
    finite = [i for i in range(len(b)) if i not in nonfinite]
    assert got.x[finite].tobytes() == want.x[finite].tobytes()
    assert np.array_equal(got.residuals[finite], want.residuals[finite])
    for lane in nonfinite:
        alone = frozen(op, b[lane:lane + 1], **{
            k: v[lane:lane + 1] if k == "x0" else v for k, v in how.items()})
        assert got.x[lane].tobytes() == alone.x[0].tobytes()
    return got, t_got, t_want


# ----------------------------------------------------------------------
# the lattice operators the two loops serve: Wilson-clover (BiCGstab) and
# the staggered normal operator (CG)
# ----------------------------------------------------------------------
@pytest.fixture()
def systems(wilson, staggered_normal, geom):
    return {"bicgstab": (wilson.apply, 4), "cg": (staggered_normal.apply, 1),
            "geom": geom}


def sources(geom, nspin, width, seed=0):
    """``width`` lanes that finish at different iterations: random fields
    of growing size, and a point source every third lane."""
    lanes = []
    for i in range(width):
        if i % 3 == 2:
            lanes.append(SpinorField.point_source(
                geom, (i % 4, 0, 1, 2), spin=0, color=i % 3, nspin=nspin).data)
        else:
            lanes.append((1.0 + i) * SpinorField.random(
                geom, nspin=nspin, rng=seed + i).data)
    return np.stack(lanes)


@pytest.mark.parametrize("width", [1, 4, 12])
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_widths(systems, name, width):
    op, nspin = systems[name]
    b = sources(systems["geom"], nspin, width)
    got, t_got, t_want = assert_matches(op, b, name, tol=1e-8, maxiter=500)
    assert got.all_converged
    if len(set(got.iterations)) > 1:  # someone left early: fewer flops
        assert t_got.flops < t_want.flops


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_a_zero_lane(systems, name):
    op, nspin = systems[name]
    b = sources(systems["geom"], nspin, 4)
    b[1] = 0.0
    got, _, _ = assert_matches(op, b, name, tol=1e-8, maxiter=500)
    assert got.iterations[1] == 0 and got.converged[1]
    assert not got.x[1].any()


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_a_lane_converged_before_the_first_iteration(systems, name):
    op, nspin = systems[name]
    b = sources(systems["geom"], nspin, 4)
    solved = SOLVERS[name][0](op, b[2:3], tol=1e-10, maxiter=500).x
    x0 = np.zeros_like(b)
    x0[2] = solved[0]
    got, _, _ = assert_matches(op, b, name, x0=x0, tol=1e-8, maxiter=500)
    assert got.iterations[2] == 0 and got.converged[2]


@pytest.mark.parametrize("name", sorted(SOLVERS))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_lane(systems, name):
    op, nspin = systems[name]
    b = sources(systems["geom"], nspin, 4)
    b[3, 1, 2, 3, 0] = np.nan
    got, _, _ = assert_matches(op, b, name, nonfinite=(3,), tol=1e-8,
                               maxiter=500)
    assert not got.converged[3] and got.converged[:3].all()


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_a_maxiter_bound_run(systems, name):
    op, nspin = systems[name]
    b = sources(systems["geom"], nspin, 12)
    b[5] = 0.0  # one lane leaves before the first iteration
    got, _, _ = assert_matches(op, b, name, tol=1e-8, maxiter=6)
    assert (got.iterations[np.arange(12) != 5] == 6).all()
    assert not got.converged[np.arange(12) != 5].any()


# ----------------------------------------------------------------------
# breakdown and a non-finite value met mid-solve, on a diagonal operator
# whose every lane is on its own (no index into the batch)
# ----------------------------------------------------------------------
N = 512
#: Positive on the first half, its mirror image on the second: dyadic
#: values, so ``sum(d)`` is exactly 0 in any order.
DIAGONAL = np.concatenate([1.0 + (np.arange(N // 2) % 32) / 32] * 2)
DIAGONAL[N // 2:] *= -1.0


def diagonal(x):
    """``d * x``, and NaN wherever an entry of ``x`` is beyond 1e100."""
    out = DIAGONAL * x
    out[np.abs(x) > 1e100] = np.nan
    return out


def toy_lanes(width, rng):
    """Lanes living on the positive half, where ``diagonal`` is definite;
    lane ``i`` has ``16 * (i + 1)`` entries, so lanes converge at
    different iterations."""
    b = np.zeros((width, N), dtype=np.complex128)
    for i in range(width):
        n = min(16 * (i + 1), N // 2)
        b[i, :n] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return b


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_a_broken_down_lane(rng, name):
    """All ones: the first pivot is ``sum(d) == 0`` exactly (BiCGstab's
    ``r_hat . A p``, CG's ``p . A p``)."""
    b = toy_lanes(6, rng)
    b[2] = 1.0
    got, _, _ = assert_matches(diagonal, b, name, tol=1e-10, maxiter=500)
    assert got.extras["breakdown"][2] is True and not got.converged[2]
    assert got.converged[np.arange(6) != 2].all()
    assert len(set(got.iterations)) > 2


@pytest.mark.parametrize("name", sorted(SOLVERS))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_lane_that_meets_a_nan_mid_solve(rng, name):
    b = toy_lanes(6, rng)
    b[4, 7] = 2e100  # finite, but its image under the operator is NaN
    got, _, _ = assert_matches(diagonal, b, name, nonfinite=(4,), tol=1e-10,
                               maxiter=500)
    assert got.extras["breakdown"][4] == "non-finite"
    assert got.iterations[4] <= 1
    assert got.converged[np.arange(6) != 4].all()


def test_every_apply_after_a_lane_leaves_runs_on_the_live_lanes(rng):
    widths = []

    def spy(x):
        widths.append(len(x))
        return diagonal(x)

    b = toy_lanes(6, rng)
    res = batched_bicgstab(spy, b, tol=1e-10, maxiter=500)
    live = [int((res.iterations > k).sum()) for k in range(res.iterations.max())]
    # two applications an iteration on the lanes still iterating, then the
    # true residual on the whole batch
    assert widths == [n for n in live for _ in range(2)] + [6]
