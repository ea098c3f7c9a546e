"""Operator state that depends on the gauge configuration alone — the
chiral clover blocks (the one form a configuration keeps of its clover
term), the lattice-last link cache, their storage-dtype casts and the
Schwarz region stacks — is built once per configuration
(``repro.dirac.base.DerivedState``), not once per solve: the analysis
phase is hundreds of solves on one configuration.

Every operator here is pinned to the NumPy tier, whose arrays these are
(where the compiled tier is installed, ``"auto"`` is not NumPy) — but for
the last test, the compiled tier's own ledger: the form is the tier's, and
a ``c`` solve leaves the clover term Hermitian-packed, once, and no
blocks."""

from __future__ import annotations

import collections
import gc
import sys
import threading
import weakref

import numpy as np
import pytest

import repro.dirac.base
import repro.dirac.clover
import repro.dirac.evenodd
import repro.dirac.wilson
from repro import (
    GaugeField, Geometry, ProcessGrid, SolveRequest, SpinorField, solve,
)
from repro.dirac import PHYSICAL, WilsonCloverOperator
from repro.kernels import get_backend
from repro.multigpu import BlockPartition
from repro.precision import DOUBLE, HALF, SINGLE
from repro.serve import SolveService

GEOM = Geometry((4, 4, 4, 8))
GRID = ProcessGrid((1, 1, 2, 2))
CASES = {
    # the default: the even-odd Schur system on half-lattice fields
    "bicgstab": dict(method="bicgstab"),
    "bicgstab-full": dict(method="bicgstab", even_odd=False),
    **{
        f"gcr-dd-{precond}": dict(method="gcr-dd", grid=GRID, precond=precond)
        for precond in ("auto", "ras", "multisplit")
    },
}
LEDGER = ("flops", "bytes_moved", "reductions", "local_reductions",
          "operator_applications")


def weak_gauge(seed=0):
    return GaugeField.weak(GEOM, epsilon=0.25, rng=seed)


def wilson_clover(gauge, csw=1.0, **how):
    return WilsonCloverOperator(
        gauge, mass=0.1, csw=csw, **{"kernel": "numpy", **how}
    )


def run(gauge, kernel="numpy", **how):
    result = solve(SolveRequest(
        operator="wilson_clover", gauge=gauge, mass=0.1, csw=1.0, tol=1e-6,
        kernel=kernel, rhs=SpinorField.random(GEOM, rng=1).data, **how,
    ))
    tally = result.report.to_dict()["tally"]
    return result, {key: tally[key] for key in LEDGER}


@pytest.fixture()
def builds(monkeypatch):
    """Counts of everything that derives an array from the links: the
    link transpose, an operator's region gather, the field strengths
    under the clover build, and the two conversions between the chiral
    blocks and the dense field, neither of which a solve on a packing
    tier has any use for."""
    counts = collections.Counter()

    def spy(module, name):
        inner = getattr(module, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    spy(repro.dirac.wilson, "lattice_last_links")
    spy(repro.dirac.evenodd, "half_links")
    spy(repro.dirac.evenodd, "invert_hermitian_blocks")
    spy(repro.dirac.wilson, "chiral_blocks")
    spy(repro.dirac.wilson, "dense_clover")
    spy(repro.dirac.clover, "dense_clover")
    spy(repro.dirac.base, "stack_regions")
    spy(repro.dirac.clover, "field_strength")
    return counts


def held(state):
    """Every array a state holds, its children's included."""
    for value in state._entries.values():
        if isinstance(value, repro.dirac.base.DerivedState):
            yield from held(value)
        else:
            yield value


@pytest.mark.parametrize("case", sorted(CASES))
def test_second_solve_builds_nothing_and_moves_no_bit(case, builds):
    gauge = weak_gauge()
    first, first_ledger = run(gauge, **CASES[case])
    assert first.converged
    assert builds["field_strength"] == 6
    # The Schur system's links are gathered by parity from the gauge
    # field; the full-lattice cache is never built for it.
    even_odd = case == "bicgstab"
    assert builds["lattice_last_links"] == (not even_odd)
    assert builds["half_links"] == even_odd
    assert builds["invert_hermitian_blocks"] == 2 * even_odd  # per chirality
    if not case.startswith("bicgstab"):
        assert builds["stack_regions"] >= 2
    assert not builds["chiral_blocks"] and not builds["dense_clover"]
    builds.clear()
    second, second_ledger = run(gauge, **CASES[case])
    assert not builds, dict(builds)
    # One full-precision clover array of the lattice per configuration and
    # csw, and it is the chiral blocks: nothing dense is held.
    arrays = list(held(repro.dirac.base.configuration_state(gauge)))
    assert not [a for a in arrays if a.shape[-2:] == (12, 12)]
    assert len([a for a in arrays if a.dtype == np.complex128
                and a.shape == (2, 6, 6) + GEOM.shape]) == 1
    fresh, fresh_ledger = run(gauge.copy(), **CASES[case])
    assert first.x.tobytes() == second.x.tobytes() == fresh.x.tobytes()
    assert first_ledger == second_ledger == fresh_ledger
    assert first.iterations == second.iterations == fresh.iterations


def test_a_first_solve_reports_the_set_up_it_paid():
    """The clover build is a timed leaf: in the first solve's kernel
    seconds, absent from the second's (which builds nothing); the asqtad
    links likewise where ``solve`` builds them from the thin links."""
    gauge = weak_gauge()

    def leaves(**request):
        result = solve(SolveRequest(gauge=gauge, mass=0.1, tol=1e-6, **request))
        return result.report.to_dict()["tally"]["kernel_seconds"]

    wilson = dict(operator="wilson_clover", csw=1.0, kernel="numpy",
                  rhs=SpinorField.random(GEOM, rng=1).data)
    assert leaves(**wilson)["clover_build"] > 0
    assert "clover_build" not in leaves(**wilson)
    staggered = dict(operator="asqtad",
                     rhs=SpinorField.random(GEOM, nspin=1, rng=1).data)
    assert leaves(**staggered)["asqtad_links"] > 0


def test_second_batch_of_a_live_service_builds_nothing(builds):
    def payload(seed):
        return {
            "operator": "wilson_clover", "mass": 0.1, "csw": 1.0, "tol": 1e-6,
            "kernel": "numpy",
            "gauge": {"kind": "weak", "dims": [4, 4, 4, 4],
                      "epsilon": 0.25, "seed": 3},
            "rhs": {"kind": "random", "seed": seed},
        }

    service = SolveService(max_batch=2, max_wait=0.05)
    tickets = [service.submit(payload(seed)) for seed in (1, 2)]
    service.start()
    try:
        first = [t.result(timeout=120) for t in tickets]
        # a served Wilson-clover BiCGstab solve is an even-odd one
        assert builds["half_links"] == 1
        assert builds["field_strength"] == 6
        builds.clear()
        second = [
            t.result(timeout=120)
            for t in [service.submit(payload(seed)) for seed in (1, 2)]
        ]
    finally:
        service.shutdown()
    assert not builds, dict(builds)
    assert service.stats()["batches_total"] == 2
    for a, b in zip(first, second):
        assert a.converged and a.x.tobytes() == b.x.tobytes()


def derived_arrays(gauge):
    """What a GCR-DD solve takes from the store, by name."""
    op = wilson_clover(gauge, boundary=PHYSICAL)
    stack = op.restrict_to_blocks(BlockPartition(GEOM, GRID), precision=HALF)
    whole = op.stored(HALF)
    return {
        "chiral": op._chiral, "links": op._soa_links(),
        "links_c64": whole._links_soa, "chiral_c64": whole._chiral,
        "block_links": stack._links_soa, "block_chiral": stack._chiral,
    }


def test_in_place_link_update_rebuilds_and_a_no_op_does_not(builds):
    gauge = weak_gauge()
    before = derived_arrays(gauge)
    gauge.data[...] *= 1
    builds.clear()
    same = derived_arrays(gauge)
    assert not builds, dict(builds)
    assert all(same[name] is before[name] for name in before)

    np.copyto(gauge.data, weak_gauge(seed=3).data)
    after = derived_arrays(gauge)
    expected = derived_arrays(gauge.copy())
    for name in before:
        assert after[name] is not before[name]
        assert not np.array_equal(after[name], before[name])
        assert after[name].tobytes() == expected[name].tobytes()
    changed, _ = run(gauge, **CASES["gcr-dd-auto"])
    reference, _ = run(gauge.copy(), **CASES["gcr-dd-auto"])
    assert changed.x.tobytes() == reference.x.tobytes()


def test_entries_die_with_the_gauge():
    gauge = weak_gauge()
    handed_out = [weakref.ref(a) for a in derived_arrays(gauge).values()]
    gc.collect()
    assert all(ref() is not None for ref in handed_out)
    del gauge
    gc.collect()
    assert all(ref() is None for ref in handed_out)


def test_a_configuration_keeps_one_coefficient_and_one_blocking():
    """``csw`` and the blocking are client request fields and a daemon
    pins its gauges: a sweep over either must not pile up fields.  The
    state keeps the arrays of the last one asked for."""
    gauge = weak_gauge()

    def taken(csw, grid):
        op = wilson_clover(gauge, csw)
        stack = op.restrict_to_blocks(BlockPartition(GEOM, grid), precision=HALF)
        arrays = (op._chiral, op.stored(HALF)._chiral,
                  stack._links_soa, stack._chiral)
        return [weakref.ref(a) for a in arrays]

    first = taken(1.0, GRID)
    other_csw = taken(1.5, GRID)
    gc.collect()
    clover, chiral, block_links, block_chiral = first
    assert clover() is chiral() is block_chiral() is None
    assert block_links() is not None  # the links know no csw
    assert all(ref() is not None for ref in other_csw)
    other_grid = taken(1.5, ProcessGrid((1, 2, 2, 1)))
    gc.collect()
    assert other_csw[2]() is other_csw[3]() is None
    assert other_csw[0]() is other_grid[0]() is not None
    assert all(ref() is not None for ref in other_grid)


def test_a_rounded_operator_derives_privately():
    """A packed operator's arrays are rounded to its storage: a cast of
    them, or a stack gathered from them, stays with that operator and
    never lands among the configuration's."""
    gauge = weak_gauge()
    partition = BlockPartition(GEOM, GRID)
    op = wilson_clover(gauge)
    single = op.stored(SINGLE)
    twice = single.stored(DOUBLE)
    assert twice._links_soa.dtype == np.complex128
    assert np.array_equal(twice._links_soa, single._links_soa)
    coarse = single.restrict_to_blocks(partition, precision=DOUBLE)

    again = wilson_clover(gauge)
    double = again.stored(DOUBLE)
    # Double storage is the working operator's own arrays.
    assert double._links_soa is again._soa_links()
    assert double._chiral is again._chiral
    stack = again.restrict_to_blocks(partition, precision=DOUBLE)
    assert not np.array_equal(stack._links_soa, coarse._links_soa)
    assert stack._links_soa.tobytes() == wilson_clover(
        gauge.copy()
    ).restrict_to_blocks(partition, precision=DOUBLE)._links_soa.tobytes()


def test_with_boundary_carries_nothing_attached_to_the_instance():
    """What ``stored`` attaches lazily to an operator instance was built
    for that operator's boundary: a ``with_boundary`` copy shares links,
    clover and state, and none of that."""
    gauge = weak_gauge()
    for kernel in ("numpy", "numpy_ref"):
        op = wilson_clover(gauge, kernel=kernel)
        op.stored(HALF)
        for source in (op, op.stored(HALF)):
            cut = source.with_boundary(op.boundary.with_dirichlet((2, 3)))
            assert "_stored" not in vars(cut)
            assert cut.storage == source.storage and cut.kernel == kernel
            assert cut._soa_links() is source._soa_links()
            assert cut.stored(HALF).boundary == cut.boundary != op.boundary
            x = SpinorField.random(GEOM, rng=5).data
            fresh = wilson_clover(
                gauge.copy(), kernel=kernel, boundary=cut.boundary
            ).stored(source.storage)
            assert cut.apply(x).tobytes() == fresh.apply(x).tobytes()


def test_handed_out_arrays_are_read_only():
    for name, array in derived_arrays(weak_gauge()).items():
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0


def test_a_foreign_clover_field_stays_out_of_the_configuration():
    """An operator handed a clover field (a slice of a globally built
    one) derives privately: the next operator on the same gauge gets the
    configuration's own arrays."""
    gauge = weak_gauge()
    foreign = 2.0 * wilson_clover(gauge).clover
    private = wilson_clover(gauge, clover=foreign)
    assert np.array_equal(private.clover, foreign)
    private_half = private.stored(HALF)
    own = wilson_clover(gauge)
    assert not np.array_equal(own.clover, foreign)
    assert np.array_equal(private_half._chiral, 2.0 * own.stored(HALF)._chiral)
    assert private_half._links_soa is not own.stored(HALF)._links_soa


def test_threads_constructing_at_once_share_one_set_of_arrays():
    gauge = weak_gauge()
    n_threads = 6
    results, barrier = [None] * n_threads, threading.Barrier(n_threads)

    def construct(i):
        barrier.wait(timeout=60)
        results[i] = derived_arrays(gauge)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=construct, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    expected = derived_arrays(gauge.copy())
    for name, array in expected.items():
        for got in results:
            assert got[name] is results[0][name]
            assert np.shares_memory(got[name], results[0][name])
            assert not got[name].flags.writeable
        assert results[0][name].tobytes() == array.tobytes()


@pytest.mark.skipif(
    not get_backend("c").available, reason="this host cannot build the tier"
)
@pytest.mark.parametrize("case", ["bicgstab", "bicgstab-full", "gcr-dd-auto"])
def test_a_compiled_solve_keeps_the_clover_term_packed_and_once(
    case, builds, monkeypatch
):
    """The compiled tier's ledger: one clover array per configuration and
    ``csw`` of 72 reals a site (Hermitian-packed: half the blocks' bytes),
    the Schwarz region stack likewise in its storage dtype, nothing ``(2,
    6, 6, ...)`` and nothing dense; the second solve builds, packs and
    expands nothing (an even-odd one's conversions are compiled passes
    over the held parity terms); every bit and count is the NumPy
    tier's."""
    backend = type(get_backend("c"))
    for hook in ("clover_pack", "clover_regions", "clover_cast",
                 "clover_chirality", "clover_parity"):
        inner = getattr(backend, hook)
        monkeypatch.setattr(
            backend, hook,
            lambda *a, _inner=inner, _hook=hook, **k: (
                builds.update([_hook]), _inner(*a, **k))[1],
        )
    gauge = weak_gauge()
    first, first_ledger = run(gauge, "c", **CASES[case])
    assert first.converged
    # The even-odd solve gathers the packed term of each parity (kept)
    # and packs C_oo^-1 from the odd sites' blocks expanded a chirality
    # at a time (dropped after): its two expansions.  The conversions
    # around each solve read the held terms where they lie.
    even_odd = case == "bicgstab"
    assert builds["field_strength"] == 6
    assert builds["clover_pack"] == (2 if even_odd else 1)
    assert builds["clover_parity"] == 2 * even_odd
    assert builds["clover_regions"] == (not case.startswith("bicgstab"))
    assert builds["clover_chirality"] == 2 * even_odd
    assert not builds["dense_clover"]
    builds.clear()
    second, second_ledger = run(gauge, "c", **CASES[case])
    assert dict(builds) == {}, dict(builds)
    arrays = list(held(repro.dirac.base.configuration_state(gauge)))
    assert not [a for a in arrays if a.shape[-2:] == (12, 12)]
    assert not [a for a in arrays if a.shape[:3] == (2, 6, 6)]
    reals = [a for a in arrays if a.dtype.kind == "f"]
    if even_odd:  # the term, then A_ee, A_oo and C_oo^-1 on half the sites
        assert [a.size for a in reals] == [72 * GEOM.volume] + [36 * GEOM.volume] * 3
        assert all(a.dtype == np.float64 for a in reals)
    else:
        assert all(a.size == 72 * GEOM.volume for a in reals)
        assert [a.dtype for a in reals] == (
            [np.float64] if case == "bicgstab-full" else [np.float64, np.float32]
        )
    reference, reference_ledger = run(gauge.copy(), "numpy", **CASES[case])
    assert first.x.tobytes() == second.x.tobytes() == reference.x.tobytes()
    assert first_ledger == second_ledger == reference_ledger
    assert first.iterations == second.iterations == reference.iterations
