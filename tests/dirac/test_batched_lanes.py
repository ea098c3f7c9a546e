"""The batch axis is lanes of the one single-RHS body — bit for bit.

(a) A batched Wilson stencil equals the stacked single-RHS applications
under ``np.array_equal``, over boundaries x dtypes x lattice shapes.
(b) Through ``solve()``, a lane's solution does not depend on the batch
shape: not on the batch size, not on what the other lanes hold, not on
the lane's position — for every configuration the serve daemon can
coalesce.  This is the property that lets the daemon batch whatever
arrived together without padding to a canonical shape.
"""

import numpy as np
import pytest

from _aos_oracle import BOUNDARIES, DTYPES

from repro.comm.grid import choose_grid
from repro.core.api import SolveRequest, solve
from repro.dirac import BoundarySpec, WilsonCloverOperator
from repro.dirac.evenodd import EvenOddPreconditionedWilson, to_parity
from repro.gauge.asqtad import build_asqtad_links
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.precision import HALF, SINGLE

B = 3


@pytest.fixture(scope="module", params=[(4, 4, 4, 4), (4, 4, 6, 8)], ids=str)
def periodic_op(request):
    gauge = GaugeField.weak(Geometry(request.param), epsilon=0.3, rng=11)
    return WilsonCloverOperator(gauge, mass=0.1, csw=1.1)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("bc", list(BOUNDARIES))
def test_batched_wilson_equals_stacked(periodic_op, bc, dtype):
    op = periodic_op.with_boundary(BoundarySpec(BOUNDARIES[bc]))
    rng = np.random.default_rng(5)
    shape = (B,) + op.geometry.shape + (4, 3)
    x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
    eo = EvenOddPreconditionedWilson(op)
    for fn in (op.apply, op.apply_dagger, op.dslash, eo.apply):
        if fn == eo.apply:  # the Schur complement takes the even sites
            x = to_parity(x, 0)
        got = fn(x)
        assert got.dtype == np.dtype(dtype)
        assert np.array_equal(got, np.stack([fn(lane) for lane in x])), fn


# ----------------------------------------------------------------------
# (b) batch-shape independence through solve()
# ----------------------------------------------------------------------
GEOM = Geometry((4, 4, 4, 4))
GRID = choose_grid(4, (3, 2, 1, 0), GEOM.dims)

WILSON = dict(operator="wilson_clover", mass=0.1, csw=1.0, method="bicgstab")
ASQTAD = dict(operator="asqtad", mass=0.1, method="cg")
#: Every (operator, knobs) shape the serve daemon coalesces into a batch.
SERVED = {
    "wilson": WILSON,
    "wilson-even_odd": dict(WILSON, even_odd=True),
    "wilson-single": dict(WILSON, inner_precision=SINGLE),
    "wilson-half": dict(WILSON, inner_precision=HALF),
    "wilson-even_odd-single": dict(WILSON, even_odd=True, inner_precision=SINGLE),
    "asqtad": ASQTAD,
    "asqtad-single": dict(ASQTAD, inner_precision=SINGLE),
    "asqtad-schwarz": dict(ASQTAD, precond="schwarz", grid=GRID),
    "asqtad-multisplit": dict(ASQTAD, precond="multisplit", grid=GRID),
}


@pytest.fixture(scope="module")
def gauges():
    gauge = GaugeField.weak(GEOM, epsilon=0.3, rng=101)
    return {"wilson_clover": gauge, "asqtad": build_asqtad_links(gauge)}


@pytest.mark.parametrize("config", [
    # The two preconditioned CG configurations cost ~13 s each.
    pytest.param(name, marks=pytest.mark.slow) if "precond" in knobs else name
    for name, knobs in SERVED.items()
])
def test_lane_is_independent_of_batch_shape(gauges, config):
    knobs = SERVED[config]
    nspin = 4 if knobs["operator"] == "wilson_clover" else 1
    lanes = [SpinorField.random(GEOM, nspin=nspin, rng=40 + i).data for i in range(12)]
    zero = np.zeros_like(lanes[0])

    def lane0(batch, at=0):
        res = solve(SolveRequest(
            gauge=gauges[knobs["operator"]], rhs=np.stack(batch), tol=1e-8, **knobs
        ))
        assert np.all(res.converged)
        return np.asarray(res.x)[at]

    want = lane0(lanes[:4])
    for size in (1, 2, 3, 6, 12):  # 12: the daemon's default group
        assert np.array_equal(lane0(lanes[:size]), want), f"B={size}"
    assert np.array_equal(lane0([lanes[0], zero, zero, zero]), want), "zero mates"
    assert np.array_equal(lane0([lanes[1], lanes[2], lanes[0]], at=2), want), "position"
