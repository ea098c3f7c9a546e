"""Kernel-backend registry: resolution order, fallback, error shapes."""

from __future__ import annotations

import pytest

from repro.kernels import (
    KernelBackend,
    KernelCapabilities,
    KernelUnavailableError,
    available_backends,
    availability_note,
    backend_names,
    capability_matrix,
    get_backend,
    kernel_choices,
    register_backend,
    resolve_kernel,
)
from repro.kernels import registry as registry_mod


@pytest.fixture()
def scratch_registry():
    """Snapshot/restore the global registry around mutation tests."""
    entries = registry_mod.KERNELS.entries
    saved = dict(entries)
    yield entries
    entries.clear()
    entries.update(saved)


class _Fake(KernelBackend):
    capabilities = KernelCapabilities(operators=("wilson",))
    available, unavailable_reason = True, None  # plain attributes here

    def __init__(self, name, priority, available=True, reason=None):
        self.name, self.priority = name, priority
        self.available = available
        self.unavailable_reason = None if available else reason


class TestRegistryContents:
    def test_builtin_backends_registered(self):
        names = backend_names()
        assert "numpy" in names and "numpy_ref" in names
        assert "c" in names  # registered even where it cannot be built

    def test_names_in_resolution_order(self):
        names = backend_names()
        prios = [get_backend(n).priority for n in names]
        assert prios == sorted(prios, reverse=True)
        assert names.index("c") < names.index("numpy")
        assert names.index("numpy") < names.index("numpy_ref")

    def test_kernel_choices_lead_with_auto(self):
        choices = kernel_choices()
        assert choices[0] == "auto"
        assert set(choices[1:]) == set(backend_names())

    def test_register_rejects_reserved_names(self):
        with pytest.raises(ValueError):
            register_backend(_Fake("auto", 99))
        with pytest.raises(ValueError):
            register_backend(_Fake("", 99))

    def test_capability_matrix_mirrors_registry(self):
        rows = {row["name"]: row for row in capability_matrix()}
        assert set(rows) == set(backend_names())
        np_row = rows["numpy"]
        assert np_row["available"] is True
        assert np_row["operators"] == ["wilson", "staggered"]
        assert np_row["batched"] and np_row["split"]
        ref_row = rows["numpy_ref"]
        assert ref_row["operators"] == ["wilson"]
        c_row = rows["c"]
        assert c_row["operators"] == ["wilson"] and c_row["packed"]
        assert c_row["available"] == get_backend("c").available
        assert (c_row["unavailable_reason"] is None) == c_row["available"]

    def test_capability_matrix_names_the_missing_compiler(
        self, missing_compiler
    ):
        (c_row,) = (r for r in capability_matrix() if r["name"] == "c")
        assert c_row["available"] is False
        assert "no C compiler" in c_row["unavailable_reason"]
        assert "/nonexistent/bin/cc" in c_row["unavailable_reason"]
        assert "c (unavailable: no C compiler" in availability_note()

    def test_availability_note_names_every_backend(self):
        note = availability_note()
        for name in backend_names():
            assert name in note


class TestResolution:
    def test_auto_resolves_to_highest_priority_available(self):
        resolved = resolve_kernel("auto", operator="wilson")
        assert resolved.name == available_backends("wilson")[0]
        assert resolved.available

    def test_explicit_numpy(self):
        assert resolve_kernel("numpy", operator="wilson").name == "numpy"
        assert resolve_kernel("numpy", operator="staggered").name == "numpy"

    def test_unknown_kernel_error_carries_choices(self):
        with pytest.raises(KernelUnavailableError) as exc:
            resolve_kernel("cuda", operator="wilson")
        assert "cuda" in str(exc.value)
        assert exc.value.choices[0] == "auto"
        assert "numpy" in exc.value.choices

    def test_family_mismatch_rejected(self):
        with pytest.raises(KernelUnavailableError) as exc:
            resolve_kernel("numpy_ref", operator="staggered")
        assert "staggered" in str(exc.value)
        assert "numpy_ref" not in exc.value.choices

    def test_unavailable_backend_rejected_with_reason(self, missing_compiler):
        with pytest.raises(KernelUnavailableError) as exc:
            resolve_kernel("c", operator="wilson")
        assert "not available" in str(exc.value)
        assert "no C compiler" in str(exc.value)
        assert exc.value.choices == ("auto", "numpy", "numpy_ref")
        assert resolve_kernel("auto", operator="wilson").name == "numpy"

    def test_auto_skips_unavailable_high_priority(self, scratch_registry):
        register_backend(
            _Fake("broken", 1000, available=False, reason="no dep")
        )
        resolved = resolve_kernel("auto", operator="wilson")
        assert resolved.name != "broken"
        assert resolved.available

    def test_auto_prefers_new_available_high_priority(self, scratch_registry):
        register_backend(_Fake("turbo", 1000))
        assert resolve_kernel("auto", operator="wilson").name == "turbo"
        # ...but only for the families it serves.
        assert (
            resolve_kernel("auto", operator="staggered").name != "turbo"
        )


class TestOperatorIntegration:
    def test_wilson_records_resolved_kernel(self, weak_gauge):
        from repro.dirac import WilsonCloverOperator

        op = WilsonCloverOperator(weak_gauge, mass=0.1, kernel="auto")
        assert op.kernel == resolve_kernel("auto", "wilson").name
        ref = WilsonCloverOperator(weak_gauge, mass=0.1, kernel="numpy_ref")
        assert ref.kernel == "numpy_ref"

    def test_staggered_records_resolved_kernel(self, weak_gauge):
        from repro.dirac import NaiveStaggeredOperator

        op = NaiveStaggeredOperator(weak_gauge, mass=0.1, kernel="numpy")
        assert op.kernel == "numpy"

    def test_wilson_rejects_staggered_only_kernel(
        self, weak_gauge, scratch_registry
    ):
        class _StagOnly(_Fake):
            capabilities = KernelCapabilities(operators=("staggered",))

        register_backend(_StagOnly("stag_only", 5))
        from repro.dirac import WilsonCloverOperator

        with pytest.raises(KernelUnavailableError):
            WilsonCloverOperator(weak_gauge, mass=0.1, kernel="stag_only")

