"""Replaying measured runs through the performance model."""

import numpy as np
import pytest

from rank_stack import on_ranks, rank_space
from repro.comm import CommLog, ProcessGrid
from repro.comm.traffic import CommEvent
from repro.dirac import WilsonCloverOperator
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.multigpu import HaloExchanger
from repro.perfmodel.device import M2050
from repro.perfmodel.interconnect import InterconnectSpec
from repro.perfmodel.kernels import KernelModel, OperatorKind
from repro.perfmodel.replay import ReplayedSolve, replay_comm, replay_solve
from repro.precision import SINGLE
from repro.util.counters import tally

NET = InterconnectSpec()


class TestReplayComm:
    def _log(self, sizes_by_src):
        log = CommLog()
        for src, nbytes in sizes_by_src:
            log.add(CommEvent(src=src, dst=(src + 1) % 4, mu=3, sign=1,
                              nbytes=nbytes))
        return log

    def test_empty_log(self):
        assert replay_comm(CommLog(), NET, 4) == 0.0

    def test_busiest_rank_sets_time(self):
        balanced = self._log([(0, 1 << 20), (1, 1 << 20)])
        skewed = self._log([(0, 1 << 20), (0, 1 << 20)])
        assert replay_comm(skewed, NET, 4) > replay_comm(balanced, NET, 4)

    def test_monotone_in_bytes(self):
        small = self._log([(0, 1 << 10)])
        big = self._log([(0, 1 << 22)])
        assert replay_comm(big, NET, 4) > replay_comm(small, NET, 4)

    def test_kind_filter(self):
        log = CommLog()
        log.add(CommEvent(0, 1, 3, 1, 1 << 20, kind="gauge"))
        assert replay_comm(log, NET, 2, kind="spinor") == 0.0
        assert replay_comm(log, NET, 2, kind=None) > 0.0

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            replay_comm(CommLog(), NET, 0)


class TestReplaySolve:
    @pytest.fixture(scope="class")
    def measured(self):
        """A real distributed solve with full instrumentation: the tally
        of the rank programs, plus the per-message ledger of its spinor
        traffic (one exchange per operator application, logged by the
        single-thread exchanger driver)."""
        from repro.solvers import gcr

        geom = Geometry((4, 4, 4, 8))
        gauge = GaugeField.weak(geom, epsilon=0.25, rng=717)
        grid = ProcessGrid((1, 1, 2, 2))
        b = SpinorField.random(geom, rng=5).data

        def body(op, b_loc):
            res = gcr(op.apply, b_loc, tol=1e-6, maxiter=300,
                      space=rank_space(op))
            return res.converged

        with tally() as t:
            partition, converged = on_ranks(
                "wilson_clover", gauge, 0.2, grid, b, csw=1.0, body=body
            )
        assert all(converged)
        log = CommLog()
        exchanger = HaloExchanger(partition, log=log)
        blocks = partition.split(b)
        for _ in range(t.operator_applications["dist_wilson_clover"]):
            exchanger.exchange_spinor(blocks)
        return t, log, geom

    def test_replay_produces_breakdown(self, measured):
        t, log, geom = measured
        kernel = KernelModel(OperatorKind.WILSON_CLOVER, SINGLE, 12)
        local_sites = 32**3 * 256 // 4  # modeled deployment: 4 Edge GPUs
        out = replay_solve(
            t, kernel, M2050, NET, local_sites, n_ranks=4, log=log,
            operator_names=("dist_wilson_clover",),
        )
        assert isinstance(out, ReplayedSolve)
        assert out.operator_time > 0
        assert out.reduction_time > 0
        assert out.comm_time > 0
        assert out.total == pytest.approx(
            out.operator_time + out.blas_time + out.reduction_time
            + out.comm_time
        )

    def test_operator_time_dominates_at_large_local_volume(self, measured):
        t, log, geom = measured
        kernel = KernelModel(OperatorKind.WILSON_CLOVER, SINGLE, 12)
        out = replay_solve(
            t, kernel, M2050, NET, 32**3 * 32, n_ranks=4, log=log,
            operator_names=("dist_wilson_clover",),
        )
        assert out.operator_time > out.reduction_time

    def test_scales_with_local_volume(self, measured):
        t, log, geom = measured
        kernel = KernelModel(OperatorKind.WILSON_CLOVER, SINGLE, 12)
        small = replay_solve(t, kernel, M2050, NET, 1 << 15, 4,
                             operator_names=("dist_wilson_clover",))
        large = replay_solve(t, kernel, M2050, NET, 1 << 20, 4,
                             operator_names=("dist_wilson_clover",))
        assert large.operator_time > 10 * small.operator_time
