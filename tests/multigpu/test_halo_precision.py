"""Reduced-precision ghost-zone communication."""

import numpy as np
import pytest

from rank_stack import build_rank_op, rank_apply, rank_jobs, rank_space
from repro.comm import ProcessGrid
from repro.comm.backends import run_rank_programs
from repro.dirac import WilsonCloverOperator
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.multigpu import BlockPartition, HaloExchanger
from repro.multigpu.halo import halo_logical_nbytes
from repro.precision import HALF, SINGLE
from repro.trace import tracing


@pytest.fixture(scope="module")
def geom():
    return Geometry((4, 4, 4, 8))


@pytest.fixture(scope="module")
def gauge(geom):
    return GaugeField.weak(geom, epsilon=0.25, rng=606)


def send_bytes(part, x, precision):
    """The ``nbytes`` of each ``send`` span of one spinor exchange."""
    ex = HaloExchanger(part, depth=1, precision=precision)
    with tracing() as tr:
        ex.exchange_spinor(part.split(x))
    return [ev.args["nbytes"] for ev in tr.events if ev.name == "send"]


class TestHaloPrecision:
    def test_logged_bytes_shrink(self, geom, rng):
        part = BlockPartition(geom, ProcessGrid((1, 1, 1, 2)))
        x = SpinorField.random(geom, rng=rng).data
        sizes = {}
        for name, prec in [("double", None), ("single", SINGLE), ("half", HALF)]:
            sizes[name] = send_bytes(part, x, prec)[0]
        assert sizes["single"] == sizes["double"] // 2
        # Half = int16 mantissas (a quarter of the double payload) PLUS one
        # float32 norm per face site — the per-site scale of the fixed-point
        # format is real traffic and must be modeled.
        t_face_sites = 4 * 4 * 4
        assert sizes["half"] == sizes["double"] // 4 + t_face_sites * 4

    def test_modeled_face_bytes_match_helper(self, geom, rng):
        """The traced wire bytes equal halo_logical_nbytes of the face."""
        part = BlockPartition(geom, ProcessGrid((1, 1, 1, 2)))
        x = SpinorField.random(geom, rng=rng).data
        face = np.empty((4, 4, 4, 1, 4, 3), dtype=np.complex128)
        for prec in (SINGLE, HALF):
            expected = halo_logical_nbytes(face, prec, site_axes=2)
            sizes = send_bytes(part, x, prec)
            assert sizes and all(n == expected for n in sizes)

    def test_gauge_faces_not_quantized(self, geom, rng):
        part = BlockPartition(geom, ProcessGrid((1, 1, 1, 2)))
        ex = HaloExchanger(part, depth=1, precision=HALF)
        u = GaugeField.hot(geom, rng=rng)
        padded = ex.exchange_gauge(part.split(u.data, lead=1))
        # Gauge ghosts are exchanged once per solve, in full precision.
        # Block 0 covers t=0..3; its backward-t ghost wraps to global t=7.
        ghost = padded[0][(slice(None),) + ex.layout.ghost_slices(3, -1)]
        interior_src = u.data[:, 7, ...]
        assert np.abs(np.squeeze(ghost, axis=1) - interior_src).max() == 0

    def test_half_halo_error_bounded(self, geom, gauge, rng):
        """The distributed operator with half-precision halos matches the
        serial operator to the fixed-point format's accuracy."""
        serial = WilsonCloverOperator(gauge, mass=0.1, csw=1.0)
        x = SpinorField.random(geom, rng=rng).data
        out = rank_apply(
            "wilson_clover", gauge, 0.1, ProcessGrid((1, 1, 2, 2)), x,
            csw=1.0, halo_precision=HALF,
        )
        ref = serial.apply(x)
        err = np.abs(out - ref).max()
        assert 0 < err < 1e-3 * np.abs(ref).max()

    def test_solver_converges_with_half_halos(self, geom, gauge, rng):
        """Mixed-precision logic tolerates quantized ghosts: a distributed
        solve with half halos still reaches single-level accuracy."""
        from repro.solvers import gcr

        def program(comm, job):
            # Quantized-halo operator builds the Krylov space; the exact
            # one computes the restart residuals (the QUDA pattern).
            exact = build_rank_op(comm, job)
            quantized = build_rank_op(comm, job, halo_precision=HALF)
            (b,) = job.fields
            res = gcr(
                exact.apply, b, inner_op=quantized.apply, tol=1e-6,
                maxiter=400, space=rank_space(exact),
            )
            return res.converged, res.residual

        b = SpinorField.random(geom, rng=rng).data
        partition, jobs = rank_jobs(
            "wilson_clover", gauge, 0.2, ProcessGrid((1, 1, 1, 2)), b, csw=1.0
        )
        outcomes = run_rank_programs(program, partition.n_ranks, jobs)
        for outcome in outcomes:
            converged, residual = outcome.value
            assert converged
            assert residual < 2e-6
