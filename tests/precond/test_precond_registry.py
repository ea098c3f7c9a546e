"""The preconditioner registry: resolution, priorities, capability
matrix, and the protocol contract of every registered entry."""

import numpy as np
import pytest

from repro.comm import ProcessGrid
from repro.dirac import (
    AsqtadOperator,
    NaiveStaggeredOperator,
    StaggeredNormalOperator,
    WilsonCloverOperator,
)
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.multigpu import BlockPartition
from repro.precond import (
    PrecondSettings,
    PrecondUnavailableError,
    availability_note,
    capability_matrix,
    precond_choices,
    precond_names,
    resolve_precond,
)


#: kind -> (the registry's operator family, build the operator).
OPERATORS = {
    "wilson_clover": ("wilson", lambda g: WilsonCloverOperator(g, mass=0.2, csw=1.0)),
    "staggered": ("staggered", lambda g: NaiveStaggeredOperator(g, 0.2)),
    "asqtad_normal": ("staggered", lambda g: StaggeredNormalOperator(
        AsqtadOperator.from_gauge(g, 0.2), 0.05)),
}


@pytest.fixture(scope="module", params=sorted(OPERATORS))
def system(request):
    """Each operator family the entries claim, on one partition."""
    geom = Geometry((4, 4, 4, 8))
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=31)
    family, build = OPERATORS[request.param]
    part = BlockPartition(geom, ProcessGrid((1, 1, 2, 2)))
    return geom, family, build(gauge), part


class TestRegistry:
    def test_names_ordered_by_priority(self):
        names = precond_names()
        assert names[0] == "schwarz"
        assert names[-1] == "none"
        assert set(names) == {"schwarz", "ras", "multisplit", "none"}

    def test_choices_lead_with_auto(self):
        choices = precond_choices()
        assert choices[0] == "auto"
        assert set(choices[1:]) == set(precond_names())

    def test_auto_resolves_to_schwarz(self):
        assert resolve_precond("auto", operator="wilson").name == "schwarz"
        assert (
            resolve_precond("auto", operator="wilson", spmd=True).name
            == "schwarz"
        )

    def test_explicit_names_resolve(self):
        for name in precond_names():
            entry = resolve_precond(name, operator="wilson")
            assert entry.name == name

    def test_unknown_name_carries_choices(self):
        with pytest.raises(PrecondUnavailableError) as err:
            resolve_precond("ilu", operator="wilson")
        assert "auto" in err.value.choices
        assert "schwarz" in err.value.choices

    def test_spmd_filters_rank_global_entries(self):
        for name in ("ras", "multisplit"):
            with pytest.raises(PrecondUnavailableError) as err:
                resolve_precond(name, operator="wilson", spmd=True)
            assert set(err.value.choices) >= {"auto", "schwarz", "none"}

    def test_capability_matrix_covers_every_entry(self):
        rows = {row["name"]: row for row in capability_matrix()}
        assert set(rows) == set(precond_names())
        schwarz = rows["schwarz"]
        assert schwarz["available"] and schwarz["spmd"] and schwarz["batched"]
        assert not rows["ras"]["spmd"]
        assert rows["ras"]["overlapping"]
        assert rows["multisplit"]["overlapping"]
        for row in rows.values():
            assert {"priority", "operators", "dtypes"} <= set(row)

    def test_availability_note_lists_names(self):
        note = availability_note()
        assert note.startswith("preconditioners:")
        for name in precond_names():
            assert name in note


class TestEntryBuilds:
    @pytest.mark.parametrize("name", ["schwarz", "ras", "multisplit"])
    def test_built_preconditioner_reduces_error(self, system, name):
        """Every registry build must hand back a callable that is a
        useful approximate inverse on its partition."""
        geom, family, op, part = system
        entry = resolve_precond(name, operator=family)
        k = entry.build(op, part, PrecondSettings(steps=6))
        x = SpinorField.random(geom, nspin=op.nspin, rng=41).data
        z = k(op.apply(x))
        assert np.linalg.norm(z - x) < np.linalg.norm(x)

    def test_none_builds_to_none(self, system):
        geom, family, op, part = system
        entry = resolve_precond("none", operator=family)
        assert entry.build(op, part, PrecondSettings()) is None

    def test_settings_thread_through(self, system):
        """steps/overlap from PrecondSettings must reach the built
        object (the CLI and API rely on this plumbing)."""
        geom, family, op, part = system
        entry = resolve_precond("multisplit", operator=family)
        k = entry.build(op, part, PrecondSettings(steps=3, overlap=0))
        assert k.mr_steps == 3
        assert k.overlap == 0
