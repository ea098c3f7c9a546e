"""BiCGstab's three fused steps on the even-odd Schur system are the
composed calls they stand for, bit for bit and count for count.

An iteration of ``batched_bicgstab`` is three steps of the space
(``solvers/space.py``): the new direction and its apply with ``(r_hat,
v)``; the half step and its apply with ``(t, s)`` and ``|t|^2``; the
closing updates with ``(r_hat, r)`` and ``|r|^2``.  Where the operator is
the compiled tier's bound Schur form each is ONE call
(``repro_schur_direction`` / ``_update``, ``repro_closing_reduce``); the
space's own calls — an update pass, ``op(p)``, the reductions — are the
reference.  The fused steps on the ``c`` tier must give the bytes of the
composed calls on the ``numpy`` tier (NumPy stencil, NumPy updates, the
NumPy reduction order) and the tally of the composed calls on the ``c``
tier; and the same fused calls in a child process allowed one CPU, where
no helper thread starts, must give their bytes too.

Half-X rows of odd length, rows of one site, antiperiodic T, 4x4x4x8 and
8^4; batches of 1 (the single right-hand side: the loop's batch of one),
3 and 12; a dense fill and one with NaNs; lanes the loop froze (their
coefficients are zeros: ``p = r``, ``s = r``, ``x`` kept) among live ones.
Results cross the pipe as digests of their bytes, NaNs by position.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os

import numpy as np
import pytest

from _c_grid import field, needs_c
from repro import GaugeField, Geometry
from repro.dirac import BoundarySpec, EvenOddPreconditionedWilson, WilsonCloverOperator
from repro.kernels.c_backend import solve_team
from repro.solvers.space import BatchedArraySpace
from repro.util.counters import tally

pytestmark = needs_c

LATTICES = {
    "6x4x2x4": ((6, 4, 2, 4), ("periodic",) * 3 + ("antiperiodic",)),
    "2x4x4x2": ((2, 4, 4, 2), ("antiperiodic", "periodic", "zero", "periodic")),
    "4x4x4x8": ((4, 4, 4, 8), ("periodic",) * 3 + ("antiperiodic",)),
    "8^4": ((8, 8, 8, 8), ("periodic",) * 4),
}
BATCHES = (1, 3, 12)
FILLS = ("dense", "nan")
STEPS = ("direction", "update", "closing")

_operators = {}


def operator(lattice, kernel):
    """The complex128 Schur operator of ``lattice`` on ``kernel``, built
    once a process."""
    key = lattice, kernel
    if key not in _operators:
        dims, conditions = LATTICES[lattice]
        gauge = GaugeField.weak(Geometry(dims), epsilon=0.3, rng=sum(dims))
        _operators[key] = EvenOddPreconditionedWilson(WilsonCloverOperator(
            gauge, mass=0.05, csw=1.2, boundary=BoundarySpec(conditions),
            kernel=kernel,
        ))
    return _operators[key]


def cases():
    for lattice in LATTICES:
        for batch in BATCHES:
            for fill in FILLS:
                for frozen in ((False, True) if batch > 1 else (False,)):
                    yield lattice, batch, fill, frozen


def case_id(case):
    lattice, batch, fill, frozen = case
    return f"{lattice}-{batch}-{fill}" + ("-frozen" if frozen else "")


def digest(a) -> str:
    parts = np.ascontiguousarray(a).view(np.asarray(a).real.dtype)
    nan = np.isnan(parts)
    h = hashlib.sha256(f"{a.dtype} {a.shape}".encode())
    h.update(nan.tobytes())
    h.update(np.where(nan, 0, parts).tobytes())
    return h.hexdigest()


def lanewise(rng, live):
    """Per-lane complex coefficients, 0 on the lanes ``live`` leaves out
    (as ``multirhs._lanewise`` gives them)."""
    values = rng.standard_normal(len(live)) + 1j * rng.standard_normal(len(live))
    return np.where(live, values, 0.0)


@contextlib.contextmanager
def counted(eo):
    """Count the bound form's fused calls, and fail on one it declines."""
    bound, seen = eo._schur, dict.fromkeys(STEPS, 0)

    def spy(step):
        real = getattr(type(bound), step)

        def call(*args):
            out = real(bound, *args)
            assert out is not None, f"the bound {step} step declined"
            seen[step] += 1
            return out

        return call

    for step in STEPS:
        setattr(bound, step, spy(step))
    try:
        yield seen
    finally:
        for step in STEPS:
            delattr(bound, step)


def iteration(case, kernel, fused):
    """One iteration's three steps on the case's fields: the digest of
    every vector and reduction, and the tally's counts."""
    lattice, batch, fill, frozen = case
    eo = operator(lattice, kernel)
    rng = np.random.default_rng(batch + len(lattice) + len(fill) + frozen)
    shape = (batch,) + eo.geometry.shape + (4, 3)
    p, r, v, r_hat, x = (field(rng, shape, np.complex128, fill) for _ in range(5))
    live = np.ones(batch, bool)
    if frozen:
        live[1::3] = False
    beta, omega, alpha, omega_new = (lanewise(rng, live) for _ in range(4))
    target = eo if fused else eo.apply
    space = BatchedArraySpace()
    with tally() as t, np.errstate(invalid="ignore", over="ignore"):
        p, v, denom = space.bicgstab_direction_apply(
            target, p, r, v, beta, np.where(live, -omega, 0.0), r_hat
        )
        s, t_s, t2, ts = space.bicgstab_update_apply(target, r, v, -alpha)
        ts = space.dot(t_s, s) if ts is None else space.dot(t_s, s, value=ts)
        x, r, r2, rho = space.bicgstab_closing_reduce(
            target, x, p, s, t_s, alpha, omega_new, r_hat
        )
        rho = space.dot(r_hat, r) if rho is None else space.dot(r_hat, r, value=rho)
    out = {
        name: digest(value) for name, value in (
            ("p", p), ("v", v), ("denom", denom), ("s", s), ("t", t_s),
            ("t2", t2), ("ts", ts), ("x", x), ("r", r), ("r2", r2),
            ("rho", rho),
        )
    }
    counts = (t.flops, t.bytes_moved, t.reductions,
              dict(t.operator_applications))
    return out, counts


def fused_all():
    with solve_team():
        return {case: iteration(case, "c", True)[0] for case in cases()}


def _on_one_cpu(conn):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    conn.send(fused_all())
    conn.close()


@pytest.fixture(scope="module")
def one_cpu():
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe(duplex=False)
    worker = ctx.Process(target=_on_one_cpu, args=(child,))
    worker.start()
    got = parent.recv()
    worker.join(timeout=300)
    assert worker.exitcode == 0
    return got


@pytest.mark.parametrize("case", list(cases()), ids=case_id)
def test_fused_is_composed(case):
    """The fused steps (on the solve's team, and each call on its own) are
    the composed calls of the ``numpy`` tier, byte for byte, and record
    what the composed calls of the ``c`` tier record."""
    eo = operator(case[0], "c")
    assert eo.fused_steps is eo
    with counted(eo) as seen:
        with solve_team():
            fused, fused_counts = iteration(case, "c", True)
        alone, _ = iteration(case, "c", True)
    assert seen == dict.fromkeys(STEPS, 2)
    composed, counts = iteration(case, "numpy", False)
    _, c_counts = iteration(case, "c", False)
    assert fused == alone
    for name in fused:
        assert fused[name] == composed[name], name
    assert fused_counts == c_counts


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="fewer than 2 CPUs allowed: the fused steps start no helper",
)
def test_threaded_is_one_cpu(one_cpu):
    threaded = fused_all()
    for case in cases():
        assert threaded[case] == one_cpu[case], case_id(case)


def test_the_composed_calls_where_nothing_binds():
    """An operator with no bound Schur form has no fused steps: the space
    composes its own calls."""
    eo = operator("6x4x2x4", "numpy")
    assert eo.fused_steps is None
    assert BatchedArraySpace()._steps(eo, np.zeros(1, np.complex128)) is None
