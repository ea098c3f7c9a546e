"""Replaying measured runs through the performance model."""

import pytest

from rank_stack import on_ranks, rank_space
from repro.comm import ProcessGrid
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.perfmodel.device import M2050
from repro.perfmodel.interconnect import InterconnectSpec
from repro.perfmodel.kernels import KernelModel, OperatorKind
from repro.perfmodel.replay import ReplayedSolve, replay_comm, replay_solve
from repro.precision import SINGLE
from repro.trace import TraceEvent, tracing
from repro.util.counters import tally

NET = InterconnectSpec()


def _send(src, nbytes, field="spinor"):
    """A ``send`` span as the halo engine emits it."""
    return TraceEvent(
        name="send", kind="comm", start=0.0, duration=0.0, rank=src,
        stream="comm T+",
        args={"mu": 3, "sign": 1, "dst": (src + 1) % 4, "nbytes": nbytes,
              "batch": 1, "field": field},
    )


class TestReplayComm:
    def _sends(self, sizes_by_src):
        return [_send(src, nbytes) for src, nbytes in sizes_by_src]

    def test_empty_log(self):
        assert replay_comm([], NET, 4) == 0.0

    def test_busiest_rank_sets_time(self):
        balanced = self._sends([(0, 1 << 20), (1, 1 << 20)])
        skewed = self._sends([(0, 1 << 20), (0, 1 << 20)])
        assert replay_comm(skewed, NET, 4) > replay_comm(balanced, NET, 4)

    def test_monotone_in_bytes(self):
        small = self._sends([(0, 1 << 10)])
        big = self._sends([(0, 1 << 22)])
        assert replay_comm(big, NET, 4) > replay_comm(small, NET, 4)

    def test_kind_filter(self):
        events = [_send(0, 1 << 20, field="gauge")]
        assert replay_comm(events, NET, 2, field="spinor") == 0.0
        assert replay_comm(events, NET, 2, field=None) > 0.0

    def test_only_send_spans_are_charged(self):
        recv = TraceEvent(name="recv", kind="comm", start=0.0, duration=1.0,
                          rank=0, args={"mu": 3, "sign": 1, "src": 1})
        sends = [_send(0, 1 << 20)]
        assert replay_comm(sends + [recv], NET, 2) == replay_comm(sends, NET, 2)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            replay_comm([], NET, 0)


class TestReplaySolve:
    @pytest.fixture(scope="class")
    def measured(self):
        """A real distributed solve with full instrumentation: the tally
        of the rank programs, plus its trace, whose ``send`` spans are
        the per-message ledger of its halo traffic."""
        from repro.solvers import gcr

        geom = Geometry((4, 4, 4, 8))
        gauge = GaugeField.weak(geom, epsilon=0.25, rng=717)
        grid = ProcessGrid((1, 1, 2, 2))
        b = SpinorField.random(geom, rng=5).data

        def body(op, b_loc):
            res = gcr(op.apply, b_loc, tol=1e-6, maxiter=300,
                      space=rank_space(op))
            return res.converged

        with tally() as t, tracing() as tr:
            _, converged = on_ranks(
                "wilson_clover", gauge, 0.2, grid, b, csw=1.0, body=body
            )
        assert all(converged)
        return t, tr.events, geom

    def test_send_spans_are_the_tally_messages(self, measured):
        """Every point-to-point message of the solve is one ``send`` span,
        sized as the tally charged it (the rest are allreduce shares)."""
        t, events, geom = measured
        sends = [ev for ev in events if ev.name == "send"]
        spinor = [ev for ev in sends if ev.args["field"] == "spinor"]
        # One exchange per operator application: 4 ranks x 2 dims x 2 faces.
        applications = t.operator_applications["dist_wilson_clover"]
        assert len(spinor) == applications * 4 * 2 * 2
        allreduce_messages = t.messages - len(sends)
        assert allreduce_messages == t.reductions * 4

    def test_replay_produces_breakdown(self, measured):
        t, events, geom = measured
        kernel = KernelModel(OperatorKind.WILSON_CLOVER, SINGLE, 12)
        local_sites = 32**3 * 256 // 4  # modeled deployment: 4 Edge GPUs
        out = replay_solve(
            t, kernel, M2050, NET, local_sites, n_ranks=4, events=events,
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
        t, events, geom = measured
        kernel = KernelModel(OperatorKind.WILSON_CLOVER, SINGLE, 12)
        out = replay_solve(
            t, kernel, M2050, NET, 32**3 * 32, n_ranks=4, events=events,
            operator_names=("dist_wilson_clover",),
        )
        assert out.operator_time > out.reduction_time

    def test_scales_with_local_volume(self, measured):
        t, events, geom = measured
        kernel = KernelModel(OperatorKind.WILSON_CLOVER, SINGLE, 12)
        small = replay_solve(t, kernel, M2050, NET, 1 << 15, 4,
                             operator_names=("dist_wilson_clover",))
        large = replay_solve(t, kernel, M2050, NET, 1 << 20, 4,
                             operator_names=("dist_wilson_clover",))
        assert large.operator_time > 10 * small.operator_time
