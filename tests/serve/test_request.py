"""ServiceRequest: validation errors, fingerprints, rhs materialization."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.lattice import Geometry, SpinorField
from repro.serve.errors import RequestValidationError
from repro.serve.request import (
    ServiceRequest,
    decode_array,
    encode_array,
    pack_inline_rhs,
)


def payload(**overrides):
    doc = {
        "operator": "wilson_clover",
        "mass": -0.1,
        "gauge": {"kind": "weak", "dims": [4, 4, 4, 4], "seed": 3},
        "rhs": {"kind": "random", "seed": 1},
    }
    doc.update(overrides)
    return doc


class TestValidation:
    def test_unknown_operator_names_field_and_choices(self):
        with pytest.raises(RequestValidationError) as exc:
            ServiceRequest.from_wire(payload(operator="domain_wall"))
        err = exc.value
        assert err.field == "operator"
        assert err.choices == ["wilson_clover", "asqtad"]
        assert "operator" in str(err) and "wilson_clover" in str(err)

    def test_unknown_method_lists_operator_methods(self):
        with pytest.raises(RequestValidationError) as exc:
            ServiceRequest.from_wire(payload(method="gcr-dd"))
        assert exc.value.field == "method"
        assert "bicgstab" in exc.value.choices

    def test_missing_mass_is_required(self):
        doc = payload()
        del doc["mass"]
        with pytest.raises(RequestValidationError) as exc:
            ServiceRequest.from_wire(doc)
        assert exc.value.field == "mass"
        assert "required" in str(exc.value)

    def test_odd_dims_rejected(self):
        with pytest.raises(RequestValidationError) as exc:
            ServiceRequest.from_wire(
                payload(gauge={"kind": "unit", "dims": [3, 4, 4, 4]})
            )
        assert exc.value.field == "gauge.dims"

    def test_negative_tol_rejected(self):
        with pytest.raises(RequestValidationError) as exc:
            ServiceRequest.from_wire(payload(tol=-1e-8))
        assert exc.value.field == "tol"

    def test_bad_boundary_lists_choices(self):
        with pytest.raises(RequestValidationError) as exc:
            ServiceRequest.from_wire(payload(boundary=["open"] * 4))
        assert exc.value.field == "boundary"
        assert "antiperiodic" in exc.value.choices

    def test_even_odd_only_for_wilson(self):
        with pytest.raises(RequestValidationError) as exc:
            ServiceRequest.from_wire(
                payload(operator="asqtad", even_odd=True)
            )
        assert exc.value.field == "even_odd"

    def test_even_odd_with_gcr_dd_cannot_be_asked_for(self):
        """``SolveRequest(method="gcr-dd", even_odd=True)`` used to drop
        the flag silently; ``validate_request`` now refuses it naming
        ``even_odd``.  The wire never carries the pair that far: gcr-dd is
        library-only, so the 400 names ``method``, with or without the flag."""
        for extra in ({}, {"even_odd": True}):
            with pytest.raises(RequestValidationError) as exc:
                ServiceRequest.from_wire(payload(method="gcr-dd", **extra))
            assert exc.value.field == "method"
            assert "bicgstab" in exc.value.choices
        assert ServiceRequest.from_wire(payload(even_odd=True)).solve.even_odd

    def test_unknown_kernel_names_field_and_choices(self):
        with pytest.raises(RequestValidationError) as exc:
            ServiceRequest.from_wire(payload(kernel="cuda"))
        assert exc.value.field == "kernel"
        assert "auto" in exc.value.choices

    def test_unavailable_kernel_reports_reason(self, missing_compiler):
        with pytest.raises(RequestValidationError) as exc:
            ServiceRequest.from_wire(payload(kernel="c"))
        assert exc.value.field == "kernel"
        assert "not available" in str(exc.value)
        assert "no C compiler" in str(exc.value)
        assert "numpy" in exc.value.choices and "c" not in exc.value.choices
        assert ServiceRequest.from_wire(payload()).solve.kernel == "numpy"

    def test_error_is_wire_round_trippable(self):
        from repro.serve.errors import error_from_dict

        with pytest.raises(RequestValidationError) as exc:
            ServiceRequest.from_wire(payload(operator="nope"))
        back = error_from_dict(exc.value.to_dict())
        assert isinstance(back, RequestValidationError)
        assert back.field == "operator"
        assert back.choices == exc.value.choices


class TestFingerprint:
    def test_auto_method_coalesces_with_explicit(self):
        auto = ServiceRequest.from_wire(payload())
        explicit = ServiceRequest.from_wire(payload(method="bicgstab"))
        assert auto.fingerprint == explicit.fingerprint

    def test_rhs_does_not_change_fingerprint(self):
        a = ServiceRequest.from_wire(payload())
        b = ServiceRequest.from_wire(
            payload(rhs={"kind": "random", "seed": 99})
        )
        assert a.fingerprint == b.fingerprint

    def test_gauge_spec_changes_fingerprint(self):
        a = ServiceRequest.from_wire(payload())
        b = ServiceRequest.from_wire(
            payload(gauge={"kind": "weak", "dims": [4, 4, 4, 4], "seed": 4})
        )
        assert a.fingerprint != b.fingerprint

    def test_solver_knobs_change_fingerprint(self):
        a = ServiceRequest.from_wire(payload())
        b = ServiceRequest.from_wire(payload(tol=1e-6))
        assert a.fingerprint != b.fingerprint

    def test_kernel_is_resolved_never_auto(self):
        from repro.kernels import resolve_kernel

        req = ServiceRequest.from_wire(payload())
        assert req.solve.kernel != "auto"
        assert req.solve.kernel == resolve_kernel("auto", "wilson").name
        assert req.operator_spec()["kernel"] == req.solve.kernel

    def test_auto_kernel_coalesces_with_explicit_resolved_tier(self):
        from repro.kernels import resolve_kernel

        resolved = resolve_kernel("auto", "wilson").name
        auto = ServiceRequest.from_wire(payload())
        explicit = ServiceRequest.from_wire(payload(kernel=resolved))
        assert auto.fingerprint == explicit.fingerprint

    def test_mixed_kernel_tiers_never_coalesce(self):
        a = ServiceRequest.from_wire(payload(kernel="numpy"))
        b = ServiceRequest.from_wire(payload(kernel="numpy_ref"))
        assert a.fingerprint != b.fingerprint

    def test_fingerprint_is_hashed_once_per_request(self, monkeypatch):
        req = ServiceRequest.from_wire(payload())
        first = req.fingerprint
        monkeypatch.setattr(
            ServiceRequest, "operator_spec",
            lambda self: pytest.fail("fingerprint was recomputed"),
        )
        assert req.fingerprint is first
        # ... per request: a second one hashes for itself.
        monkeypatch.undo()
        assert ServiceRequest.from_wire(payload(tol=1e-3)).fingerprint != first

    def test_delivery_metadata_does_not_change_fingerprint(self):
        a = ServiceRequest.from_wire(payload())
        b = ServiceRequest.from_wire(
            payload(id="x", priority=9, timeout_seconds=5.0,
                    return_solution=True)
        )
        assert a.fingerprint == b.fingerprint


class TestRhsMaterialization:
    def test_random_rhs_is_deterministic(self):
        geo = Geometry((4, 4, 4, 4))
        req = ServiceRequest.from_wire(payload())
        assert np.array_equal(
            req.materialize_rhs(geo), req.materialize_rhs(geo)
        )

    def test_point_source(self):
        geo = Geometry((4, 4, 4, 4))
        req = ServiceRequest.from_wire(
            payload(rhs={"kind": "point", "site": [1, 2, 3, 0],
                         "spin": 1, "color": 2})
        )
        rhs = req.materialize_rhs(geo)
        # Storage is [t, z, y, x, spin, color]; the site is (x, y, z, t).
        assert rhs[0, 3, 2, 1, 1, 2] == 1.0
        assert np.count_nonzero(rhs) == 1

    def test_inline_data_round_trips_bitwise(self):
        geo = Geometry((2, 2, 2, 2))
        field = SpinorField.random(geo, nspin=1, rng=7).data
        # Signed zeros: ``real + 1j * imag`` loses the imaginary -0.0.
        field[0, 0, 0, 0] = [complex(0.0, -0.0), complex(-0.0, 0.0),
                             complex(-0.0, -0.0)]
        nested = encode_array(field)
        for doc in ({"real": nested["real"], "imag": nested["imag"]},
                    nested, encode_array(field, packed=True)):
            req = ServiceRequest.from_wire(
                payload(operator="asqtad",
                        rhs={"kind": "data", **doc},
                        gauge={"kind": "unit", "dims": [2, 2, 2, 2]})
            )
            assert req.materialize_rhs(geo).tobytes() == field.tobytes()

    def test_packed_and_nested_rhs_are_one_request(self):
        """Same array, either form: same lane bits, same coalescing key,
        and a received solution posts back as it came."""
        geo = Geometry((2, 2, 2, 2))
        field = SpinorField.random(geo, nspin=1, rng=7).data
        reqs = [
            ServiceRequest.from_wire(
                payload(operator="asqtad",
                        rhs={"kind": "data", **encode_array(field, packed)},
                        gauge={"kind": "unit", "dims": [2, 2, 2, 2]})
            )
            for packed in (False, True)
        ]
        assert reqs[0].fingerprint == reqs[1].fingerprint
        assert "b64" in reqs[1].rhs and "real" not in reqs[1].rhs
        assert (reqs[0].materialize_rhs(geo).tobytes()
                == reqs[1].materialize_rhs(geo).tobytes()
                == field.tobytes())

    @pytest.mark.parametrize("spec, field", [
        ({"real": [[1.0, float("nan")]]}, "rhs.real"),
        ({"real": [[1.0, 2.0]], "imag": [[0.0, float("inf")]]}, "rhs.imag"),
        ({"real": [[1.0, 2.0]], "imag": [[0.0, float("-inf")]]},
         "rhs.imag"),
    ])
    def test_non_finite_inline_data_names_the_part(self, spec, field):
        geo = Geometry((2, 2, 2, 2))
        shape = geo.shape + SpinorField.site_shape(1)
        spec = {k: np.broadcast_to(np.asarray(v).ravel()[-1], shape).tolist()
                for k, v in spec.items()}
        req = ServiceRequest.from_wire(
            payload(operator="asqtad", rhs={"kind": "data", **spec},
                    gauge={"kind": "unit", "dims": [2, 2, 2, 2]})
        )
        with pytest.raises(RequestValidationError) as exc:
            req.materialize_rhs(geo)
        assert exc.value.field == field
        assert "NaN or Infinity" in str(exc.value)

    def test_non_finite_packed_data_names_b64(self):
        geo = Geometry((2, 2, 2, 2))
        field = SpinorField.random(geo, nspin=1, rng=7).data
        field[1, 0, 1, 0, 2] = complex(0.0, np.nan)
        req = ServiceRequest.from_wire(
            payload(operator="asqtad",
                    rhs={"kind": "data", **encode_array(field, packed=True)},
                    gauge={"kind": "unit", "dims": [2, 2, 2, 2]})
        )
        with pytest.raises(RequestValidationError) as exc:
            req.materialize_rhs(geo)
        assert exc.value.field == "rhs.b64"

    def test_packed_data_wrong_lattice_names_shape(self):
        geo = Geometry((4, 4, 4, 4))
        small = SpinorField.random(Geometry((2, 2, 2, 2)), nspin=1, rng=7)
        req = ServiceRequest.from_wire(
            payload(operator="asqtad",
                    gauge={"kind": "unit", "dims": [4, 4, 4, 4]},
                    rhs={"kind": "data",
                         **encode_array(small.data, packed=True)})
        )
        with pytest.raises(RequestValidationError) as exc:
            req.materialize_rhs(geo)
        assert exc.value.field == "rhs.shape"

    def test_data_rhs_needs_one_of_the_two_forms(self):
        with pytest.raises(RequestValidationError) as exc:
            ServiceRequest.from_wire(payload(rhs={"kind": "data",
                                                  "imag": [1.0]}))
        assert exc.value.field == "rhs.real"

    def test_inline_data_wrong_shape_names_field(self):
        geo = Geometry((4, 4, 4, 4))
        req = ServiceRequest.from_wire(
            payload(operator="asqtad",
                    gauge={"kind": "unit", "dims": [4, 4, 4, 4]},
                    rhs={"kind": "data", "real": [[1.0, 2.0]]})
        )
        with pytest.raises(RequestValidationError) as exc:
            req.materialize_rhs(geo)
        assert exc.value.field == "rhs.real"


def _codec_case(name: str, dtype) -> np.ndarray:
    """One input of the codec property matrix, in ``dtype``."""
    rng = np.random.default_rng(5)
    kind = np.dtype(dtype).kind

    def draw(shape):
        x = rng.standard_normal(shape)
        if kind == "c":
            x = x + 1j * rng.standard_normal(shape)
        return x.astype(dtype)

    if name == "contiguous":
        return draw((3, 4, 2))
    if name == "transposed":
        return draw((3, 4, 2)).transpose(2, 0, 1)
    if name == "zero_dim":
        return draw(())
    if name == "empty":
        return draw((0, 3))
    tiny = np.finfo(dtype).smallest_subnormal
    values = {
        "signed_zero": [0.0, -0.0],
        "subnormal": [tiny, -tiny, 3 * tiny],
    }[name]
    if kind == "c":
        values = [complex(a, b) for a in values for b in values]
    return np.array(values, dtype=dtype)


CODEC_CASES = ("contiguous", "transposed", "zero_dim", "empty",
               "signed_zero", "subnormal")
CODEC_DTYPES = (np.float32, np.float64, np.complex64, np.complex128)


class TestArrayCodec:
    def test_json_round_trip_is_bitwise(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        x[0] = [complex(0.0, -0.0), complex(-0.0, 0.0),
                complex(-0.0, -0.0), complex(0.0, 0.0)]
        wire = json.loads(json.dumps(encode_array(x)))
        assert np.array_equal(decode_array(wire), x)
        assert decode_array(wire).tobytes() == x.tobytes()

    @pytest.mark.parametrize("case", CODEC_CASES)
    @pytest.mark.parametrize("dtype", CODEC_DTYPES)
    @pytest.mark.parametrize("packed", [False, True])
    def test_both_forms_are_tobytes_lossless(self, packed, dtype, case):
        x = _codec_case(case, dtype)
        if case == "transposed":
            assert not x.flags.c_contiguous
        wire = json.loads(json.dumps(encode_array(x, packed)))
        back = decode_array(wire)
        want = x.astype(np.complex128)
        assert back.dtype == np.complex128 and back.shape == want.shape
        assert back.tobytes() == want.tobytes()
        assert back.flags.writeable

    def test_one_positional_argument_is_the_nested_form(self):
        x = np.arange(6.0).reshape(2, 3) * (1 - 2j)
        doc = encode_array(x)
        assert set(doc) == {"real", "imag", "shape"}
        assert doc["real"] == x.real.tolist()
        assert doc["imag"] == x.imag.tolist()
        assert doc["shape"] == [2, 3]

    def test_packed_form_carries_the_native_dtype(self):
        for dtype, tag in zip(CODEC_DTYPES, ("<f4", "<f8", "<c8", "<c16")):
            doc = encode_array(np.ones((2, 3), dtype=dtype), packed=True)
            assert set(doc) == {"b64", "dtype", "shape"}
            assert doc["dtype"] == tag
            assert len(doc["b64"]) == 4 * -(-6 * np.dtype(dtype).itemsize // 3)
        # anything else travels as double
        assert encode_array(np.arange(3), packed=True)["dtype"] == "<f8"

    def test_non_finite_values_stay_where_they_are(self):
        """The old ``real + 1j * imag`` made ``nan+nanj`` of ``1+infj``."""
        x = np.array([complex(1.0, np.inf), complex(-np.inf, 2.0),
                      complex(np.nan, 0.0)])
        for packed in (False, True):
            wire = json.loads(json.dumps(encode_array(x, packed)))
            assert decode_array(wire).tobytes() == x.tobytes()

    @pytest.mark.parametrize("key, doc", [
        pytest.param(key, doc, id=f"{key}-{why}") for why, key, doc in [
            ("big_endian", "dtype",
             {"b64": "AAAAAA==", "dtype": ">f4", "shape": [1]}),
            ("numpy_name", "dtype",
             {"b64": "AAAAAA==", "dtype": "float32", "shape": [1]}),
            ("missing", "dtype", {"b64": "AAAAAA==", "shape": [1]}),
            ("bad_alphabet", "b64",
             {"b64": "AA*AAA==", "dtype": "<f4", "shape": [1]}),
            ("bad_padding", "b64",
             {"b64": "AAAAAA", "dtype": "<f4", "shape": [1]}),
            ("not_a_string", "b64", {"b64": 7, "dtype": "<f4", "shape": [1]}),
            ("three_bytes_for_f4", "b64",
             {"b64": "AAAA", "dtype": "<f4", "shape": [1]}),
            ("four_bytes_for_two_f4", "b64",
             {"b64": "AAAAAA==", "dtype": "<f4", "shape": [2]}),
            ("float_entry", "shape",
             {"b64": "AAAAAA==", "dtype": "<f4", "shape": [1.0]}),
            ("negative_entry", "shape",
             {"b64": "AAAAAA==", "dtype": "<f4", "shape": [-1]}),
            ("bool_entry", "shape",
             {"b64": "AAAAAA==", "dtype": "<f4", "shape": [True]}),
            ("not_a_list", "shape",
             {"b64": "AAAAAA==", "dtype": "<f4", "shape": 1}),
            ("missing", "shape", {"b64": "AAAAAA==", "dtype": "<f4"}),
            ("missing", "real", {"imag": [1.0]}),
            ("ragged", "real", {"real": [[1.0, 2.0], [3.0]]}),
            ("not_numeric", "real", {"real": [1.0, "x"]}),
            ("not_numeric", "imag",
             {"real": [1.0, 2.0], "imag": {"a": 1}}),
            ("another_shape", "imag", {"real": [1.0, 2.0], "imag": [1.0]}),
            ("does_not_fit", "shape", {"real": [1.0, 2.0], "shape": [3]}),
            ("string_entry", "shape", {"real": [1.0, 2.0], "shape": ["2"]}),
        ]
    ])
    def test_malformed_array_names_its_key(self, key, doc):
        with pytest.raises(RequestValidationError) as exc:
            decode_array(doc, field="rhs")
        assert exc.value.field == f"rhs.{key}"
        assert f"rhs.{key}" in str(exc.value)

    def test_not_an_object_names_the_array(self):
        with pytest.raises(RequestValidationError) as exc:
            decode_array([1.0, 2.0], field="solution")
        assert exc.value.field == "solution"


GEO2 = Geometry((2, 2, 2, 2))


def inline(operator="asqtad", gauge=None, **rhs):
    """A line with an inline ``rhs`` of the given keys, on 2^4."""
    return payload(operator=operator, id="line-1",
                   gauge=gauge or {"kind": "unit", "dims": [2, 2, 2, 2]},
                   rhs={"kind": "data", **rhs})


def awkward_field(nspin: int) -> np.ndarray:
    """A finite 2^4 field with signed zeros and subnormals in it."""
    field = SpinorField.random(GEO2, nspin=nspin, rng=7).data
    tiny = np.finfo(np.float64).smallest_subnormal
    field.reshape(-1)[:3] = [complex(0.0, -0.0), complex(-0.0, tiny),
                             complex(-tiny, -0.0)]
    return field


class TestPackInlineRhs:
    """What ``ServeClient`` sends in place of a line: a nested inline
    ``rhs`` packed, to the same array on the daemon; anything whose answer
    could depend on the form, as given."""

    @pytest.mark.parametrize("operator, nspin",
                             [("asqtad", 1), ("wilson_clover", 4)])
    def test_a_nested_rhs_is_sent_packed_to_the_same_array(
            self, operator, nspin):
        field = awkward_field(nspin)
        line = inline(operator, **encode_array(field))
        before = json.loads(json.dumps(line))
        sent = pack_inline_rhs(line)
        assert line == before  # the caller's payload is left alone
        assert set(sent["rhs"]) == {"kind", "b64", "dtype", "shape"}
        assert {k: v for k, v in sent.items() if k != "rhs"} == {
            k: v for k, v in line.items() if k != "rhs"}
        got, want = (
            ServiceRequest.from_wire(json.loads(json.dumps(doc)))
            .materialize_rhs(GEO2)
            for doc in (sent, line)
        )
        assert got.tobytes() == want.tobytes() == field.tobytes()

    def test_a_real_part_alone_is_sent_packed(self):
        field = awkward_field(1).real
        sent = pack_inline_rhs(inline(real=field.tolist()))
        assert decode_array(sent["rhs"]).tobytes() == (
            field.astype(np.complex128).tobytes())

    @pytest.mark.parametrize("rhs", [
        {"kind": "data", **encode_array(awkward_field(1), packed=True)},
        {"kind": "point", "site": [1, 0, 1, 0]},
        {"kind": "random", "seed": 4},
    ], ids=["packed", "point", "random"])
    def test_other_lines_go_as_given(self, rhs):
        line = payload(operator="asqtad", rhs=rhs,
                       gauge={"kind": "unit", "dims": [2, 2, 2, 2]})
        assert pack_inline_rhs(line) is line
        without = {k: v for k, v in line.items() if k != "rhs"}
        assert pack_inline_rhs(without) is without

    @pytest.mark.parametrize("line", [
        pytest.param(inline(**encode_array(
            SpinorField.random(Geometry((4, 4, 4, 4)), nspin=1, rng=1).data
        )), id="another_lattice"),
        pytest.param(inline(real=np.ones((2, 2, 2, 2, 4, 3)).tolist()),
                     id="wilson_sites_on_asqtad"),
        pytest.param(inline(real=[[1.0, float("nan")]]), id="nan"),
        pytest.param(inline(**encode_array(awkward_field(1) + [np.inf, 0, 0])),
                     id="infinite"),
        pytest.param(inline(real=[[1.0, 2.0], [3.0]]), id="ragged"),
        pytest.param(inline(real=[1.0, 2.0], imag=[1.0]), id="imag_shape"),
        pytest.param(inline(**encode_array(awkward_field(1)),
                            gauge={"kind": "file", "path": "cfg.npz"}),
                     id="gauge_file"),
        pytest.param(inline(**encode_array(awkward_field(1)),
                            gauge={"kind": "unit", "dims": [2, 2, 2, 3]}),
                     id="odd_dims"),
        pytest.param(inline(**encode_array(awkward_field(1)),
                            gauge=[2, 2, 2, 2]),
                     id="gauge_not_an_object"),
        pytest.param(inline("wilson", **encode_array(awkward_field(1))),
                     id="unknown_operator"),
        pytest.param([{"kind": "data", "real": [1.0]}], id="not_an_object"),
    ])
    def test_lines_whose_answer_could_depend_on_the_form_go_as_given(
            self, line):
        before = json.dumps(line)
        assert pack_inline_rhs(line) is line
        assert json.dumps(line) == before


def asqtad_payload(**overrides):
    doc = {
        "operator": "asqtad",
        "mass": 0.2,
        "gauge": {"kind": "weak", "dims": [4, 4, 4, 4], "seed": 3},
        "rhs": {"kind": "random", "seed": 1},
    }
    doc.update(overrides)
    return doc


class TestPrecond:
    def test_auto_canonicalizes_to_none(self):
        """"auto" on asqtad stays the historical plain-CG path, so it
        must coalesce with an explicit precond="none" request."""
        auto = ServiceRequest.from_wire(asqtad_payload(precond="auto"))
        none = ServiceRequest.from_wire(asqtad_payload(precond="none"))
        default = ServiceRequest.from_wire(asqtad_payload())
        assert auto.solve.precond == "none"
        assert auto.fingerprint == none.fingerprint == default.fingerprint

    def test_mixed_preconds_never_coalesce(self):
        prints = {
            ServiceRequest.from_wire(
                asqtad_payload(precond=name)
            ).fingerprint
            for name in ("none", "schwarz", "multisplit")
        }
        assert len(prints) == 3

    def test_precond_knobs_change_fingerprint(self):
        a = ServiceRequest.from_wire(asqtad_payload(precond="multisplit"))
        b = ServiceRequest.from_wire(
            asqtad_payload(precond="multisplit", precond_steps=6)
        )
        c = ServiceRequest.from_wire(
            asqtad_payload(precond="multisplit", precond_overlap=0)
        )
        assert len({a.fingerprint, b.fingerprint, c.fingerprint}) == 3

    def test_unknown_precond_names_field_and_choices(self):
        with pytest.raises(RequestValidationError) as exc:
            ServiceRequest.from_wire(asqtad_payload(precond="ilu"))
        assert exc.value.field == "precond"
        assert "multisplit" in exc.value.choices

    def test_precond_rejected_for_wilson(self):
        with pytest.raises(RequestValidationError) as exc:
            ServiceRequest.from_wire(payload(precond="multisplit"))
        assert exc.value.field == "precond"

    def test_unfactorable_precond_blocks_rejected(self):
        with pytest.raises(RequestValidationError) as exc:
            ServiceRequest.from_wire(
                asqtad_payload(precond="multisplit", precond_blocks=7)
            )
        assert exc.value.field == "precond_blocks"

    def test_spec_carries_canonical_precond_fields(self):
        req = ServiceRequest.from_wire(
            asqtad_payload(precond="multisplit")
        )
        spec = req.operator_spec()
        assert spec["precond"] == "multisplit"
        assert spec["precond_blocks"] == 4
