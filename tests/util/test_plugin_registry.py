"""The registry contract, run against both instances of
``repro.util.registry.Registry`` (kernel backends and preconditioners);
the per-family suites cover what each family registers."""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.kernels.registry import KERNELS
from repro.precond.registry import PRECONDS


@pytest.fixture(params=[KERNELS, PRECONDS], ids=["kernels", "precond"])
def registry(request):
    """Each instance, its global entries snapshotted around the test."""
    saved = dict(request.param.entries)
    yield request.param
    request.param.entries.clear()
    request.param.entries.update(saved)


def _Fake(registry, name, priority, reason=None):
    template = next(iter(registry.entries.values())).capabilities
    return SimpleNamespace(
        name=name, priority=priority,
        available=reason is None, unavailable_reason=reason,
        capabilities=dataclasses.replace(template, operators=("wilson",)),
        supports=lambda operator=None: operator in (None, "wilson"),
    )


def test_auto_follows_priority_among_usable_entries(registry):
    for name in ("auto", ""):
        with pytest.raises(ValueError, match="invalid .* name"):
            registry.register(_Fake(registry, name, 99))
    registry.register(_Fake(registry, "broken", 2000, reason="no dep"))
    registry.register(_Fake(registry, "turbo", 1000))
    assert registry.choices() == ("auto", "broken", "turbo") + registry.names()[2:]
    usable = registry.available("wilson")
    assert usable[0] == "turbo" and "broken" not in usable
    assert registry.resolve("auto", operator="wilson").name == "turbo"
    assert registry.resolve("auto", operator="staggered").name != "turbo"
    with pytest.raises(registry.error, match="does not support") as err:
        registry.resolve("turbo", operator="staggered")
    assert "turbo" not in err.value.choices
    with pytest.raises(registry.error, match="not available.*no dep") as err:
        registry.resolve("broken", operator="wilson")
    assert err.value.choices == ("auto",) + usable
    assert "broken (unavailable: no dep)" in registry.availability_note()


def test_matrix_has_one_column_per_capability_field(registry):
    rows = registry.capability_matrix()
    assert [row["name"] for row in rows] == list(registry.names())
    for row in rows:
        caps = dataclasses.asdict(registry.get(row["name"]).capabilities)
        for key, value in caps.items():
            assert row[key] == (
                list(value) if isinstance(value, tuple) else value
            )
