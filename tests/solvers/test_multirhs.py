"""Batched multi-RHS Krylov solvers.

The contract: each right-hand side in a batch follows the same iteration
it would follow alone (to rounding) — identical per-lane iteration
counts and matching solutions for CG/BiCGstab/MR.  Batched GCR shares
its restart points across the batch, so there the contract is weaker:
every lane's final residual meets the tolerance.
"""

import numpy as np
import pytest

from repro.dirac.staggered import AsqtadOperator, StaggeredNormalOperator
from repro.dirac.wilson import WilsonCloverOperator
from repro.gauge.asqtad import build_asqtad_links
from repro.lattice import SpinorField
from repro.precision import SINGLE
from repro.solvers import (
    BatchedArraySpace,
    batched_bicgstab,
    batched_cg,
    batched_defect_correction,
    batched_gcr,
    batched_mr,
    bicgstab,
    cg,
    mr,
)
from repro.solvers.space import STAGGERED_SPACE, WILSON_SPACE
from repro.util.counters import tally

B = 3
TOL = 1e-8


@pytest.fixture()
def wilson_op(weak_gauge):
    return WilsonCloverOperator(weak_gauge, mass=0.2, csw=1.0)


@pytest.fixture()
def normal_op(weak_gauge):
    links = build_asqtad_links(weak_gauge)
    return StaggeredNormalOperator(AsqtadOperator(links, mass=0.2))


@pytest.fixture()
def wilson_batch(geom44):
    return np.stack(
        [SpinorField.random(geom44, rng=300 + i).data for i in range(B)]
    )


@pytest.fixture()
def staggered_batch(geom44):
    return np.stack(
        [SpinorField.random(geom44, nspin=1, rng=400 + i).data for i in range(B)]
    )


class TestBatchedCG:
    def test_matches_scalar_per_lane(self, normal_op, staggered_batch):
        res = batched_cg(
            normal_op.apply, staggered_batch, tol=TOL,
            space=BatchedArraySpace(site_axes=1),
        )
        assert res.all_converged
        for i in range(B):
            ref = cg(normal_op.apply, staggered_batch[i], tol=TOL,
                     space=STAGGERED_SPACE)
            assert res.iterations[i] == ref.iterations
            rel = np.linalg.norm(res.x[i] - ref.x) / np.linalg.norm(ref.x)
            assert rel < 1e-10

    def test_one_reduction_serves_all_lanes(self, normal_op, staggered_batch):
        with tally() as tb:
            batched_cg(normal_op.apply, staggered_batch, tol=TOL,
                       space=BatchedArraySpace(site_axes=1))
        scalar_total = 0
        for i in range(B):
            with tally() as t1:
                cg(normal_op.apply, staggered_batch[i], tol=TOL,
                   space=STAGGERED_SPACE)
            scalar_total += t1.reductions
        # The batched solve needs about one lane's worth of reductions
        # (it runs until the slowest lane converges), not B lanes' worth.
        assert tb.reductions <= scalar_total // B + 5
        assert tb.reductions < scalar_total


class TestBatchedBiCGstab:
    def test_matches_scalar_per_lane(self, wilson_op, wilson_batch):
        res = batched_bicgstab(
            wilson_op.apply, wilson_batch, tol=TOL, space=BatchedArraySpace()
        )
        assert res.all_converged
        for i in range(B):
            ref = bicgstab(wilson_op.apply, wilson_batch[i], tol=TOL,
                           space=WILSON_SPACE)
            assert res.iterations[i] == ref.iterations
            rel = np.linalg.norm(res.x[i] - ref.x) / np.linalg.norm(ref.x)
            assert rel < 1e-9

    def test_a_lane_of_twelve_is_the_lane_alone_and_of_four(
            self, wilson_op, geom44):
        """One propagator's sources — point and dense alternating, as the
        serve benchmark mixes them — solved twelve wide, four wide and
        one at a time: the same bits, the same iteration counts; the
        width decides only how long every lane rides along."""
        sources = np.stack([
            SpinorField.point_source(geom44, (0, 0, 0, 0), spin=i // 3,
                                     color=i % 3).data
            if i % 2 == 0 else SpinorField.random(geom44, rng=300 + i).data
            for i in range(12)
        ])

        def solved(batch):
            res = batched_bicgstab(wilson_op.apply, batch, tol=TOL,
                                   space=BatchedArraySpace())
            assert res.all_converged
            return res

        wide = solved(sources)
        for start in range(0, 12, 4):
            four = solved(sources[start:start + 4])
            assert four.x.tobytes() == wide.x[start:start + 4].tobytes()
            assert np.array_equal(four.iterations,
                                  wide.iterations[start:start + 4])
        for i in range(12):
            alone = solved(sources[i:i + 1])
            assert alone.x[0].tobytes() == wide.x[i].tobytes(), f"lane {i}"
            assert alone.iterations[0] == wide.iterations[i]

    def test_zero_lane_is_benign(self, wilson_op, wilson_batch):
        batch = wilson_batch.copy()
        batch[1] = 0.0
        res = batched_bicgstab(
            wilson_op.apply, batch, tol=TOL, space=BatchedArraySpace()
        )
        assert res.all_converged
        assert np.all(res.x[1] == 0.0)
        assert res.iterations[1] == 0


class TestBatchedMR:
    def test_matches_scalar_per_lane(self, wilson_op, wilson_batch):
        """Every lane is the scalar solver's iterate bit for bit, in the
        field's own dtype (a zero lane takes the scalar early exit)."""
        for dtype in (np.complex128, np.complex64):
            batch = wilson_batch.astype(dtype)
            batch[1] = 0.0
            for omega in (1.0, 0.9):
                res = batched_mr(
                    wilson_op.apply, batch, steps=8, omega=omega,
                    space=BatchedArraySpace(),
                )
                assert res.x.dtype == dtype
                for i in range(B):
                    ref = mr(wilson_op.apply, batch[i], steps=8, omega=omega,
                             space=WILSON_SPACE)
                    assert ref.x.dtype == dtype
                    assert np.array_equal(res.x[i], ref.x)
                    assert res.iterations[i] == ref.iterations
                    assert res.residuals[i] == ref.residual
                    lane_history = [float(h[i]) for h in res.residual_history]
                    n = len(ref.residual_history)
                    assert lane_history[:n] == ref.residual_history


class TestBatchedGCR:
    def test_all_lanes_meet_tolerance(self, wilson_op, wilson_batch):
        res = batched_gcr(
            wilson_op.apply, wilson_batch, tol=1e-7, kmax=8,
            space=BatchedArraySpace(),
        )
        assert res.all_converged
        for i in range(B):
            r = wilson_batch[i] - wilson_op.apply(res.x[i])
            rel = np.linalg.norm(r) / np.linalg.norm(wilson_batch[i])
            assert rel < 1e-6


class TestBatchedDefectCorrection:
    def test_mixed_precision_refinement(self, wilson_op, wilson_batch):
        res = batched_defect_correction(
            wilson_op.apply, wilson_batch, batched_bicgstab, SINGLE,
            tol=1e-9, space=BatchedArraySpace(),
        )
        assert res.all_converged
        assert res.restarts >= 1
        assert np.all(res.residuals < 1e-9)


class TestBatchedResult:
    def test_split_produces_scalar_results(self, wilson_op, wilson_batch):
        res = batched_bicgstab(
            wilson_op.apply, wilson_batch, tol=TOL, space=BatchedArraySpace()
        )
        parts = res.split()
        assert len(parts) == B
        for i, p in enumerate(parts):
            assert p.converged
            assert p.iterations == res.iterations[i]
            assert np.array_equal(p.x, res.x[i])
            assert p.residual == pytest.approx(float(res.residuals[i]))
