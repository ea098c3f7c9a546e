"""Wire-level solve requests: schema, validation, operator fingerprint.

A :class:`ServiceRequest` is the serializable twin of
:class:`repro.core.api.SolveRequest`: instead of holding live
``GaugeField``/``ndarray`` objects it holds *specs* — a gauge spec
(synthetic parameters or a file path) and an rhs spec (seeded random,
point source, or inline data) — so a request can travel over HTTP and
still reconstruct the exact same linear system on the server.

The **operator fingerprint** (:meth:`ServiceRequest.fingerprint`) is the
coalescing key: the sha256 of every solve-defining knob *except* the
right-hand side — the same canonical-JSON discipline as PR 5's
:func:`repro.metrics.config_fingerprint`, extended with the gauge spec
(the in-library fingerprint can assume the caller holds the gauge field;
the wire one cannot).  Two requests with equal fingerprints describe the
same operator, method, tolerances and precisions over the same gauge
configuration, and may therefore ride in one batched multi-RHS solve.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.kernels import KernelUnavailableError, kernel_choices, resolve_kernel
from repro.precision import DOUBLE, HALF, SINGLE, Precision
from repro.precond import (
    PrecondUnavailableError,
    precond_choices,
    resolve_precond,
)
from repro.serve.errors import RequestValidationError

#: Operators the service can coalesce: the two with a batched multi-RHS
#: execution path.  ``asqtad_multishift`` (no batched rhs) and
#: ``gcr-dd`` (needs a live ProcessGrid) stay library-only.
SERVABLE_OPERATORS = ("wilson_clover", "asqtad")

_METHODS = {
    "wilson_clover": ("auto", "bicgstab"),
    "asqtad": ("auto", "cg"),
}
_DEFAULT_METHOD = {"wilson_clover": "bicgstab", "asqtad": "cg"}
_KERNEL_FAMILY = {"wilson_clover": "wilson", "asqtad": "staggered"}

GAUGE_KINDS = ("weak", "hot", "unit", "file")
RHS_KINDS = ("random", "point", "data")
_BOUNDARY = ("periodic", "antiperiodic", "zero")
_PRECISIONS: dict[str, Precision] = {
    "double": DOUBLE,
    "single": SINGLE,
    "half": HALF,
}


def _invalid(field_: str, message: str, choices=None) -> RequestValidationError:
    """A validation error whose message names the field (and choices)."""
    text = f"{field_}: {message}"
    if choices:
        text += f"; valid choices: {', '.join(str(c) for c in choices)}"
    return RequestValidationError(text, field=field_, choices=choices)


def _get_number(payload: dict, field_: str, *, required=False, default=None,
                positive=False, integer=False):
    """Fetch and type-check one numeric field of a wire payload.

    Args:
        payload: The decoded JSON object.
        field_: Key to fetch (used verbatim in error messages).
        required: Raise when the key is absent.
        default: Value when absent (and not required).
        positive: Require the value to be ``> 0``.
        integer: Require an integral value; the return is ``int``.

    Returns:
        The validated number (``int`` or ``float``), or ``default``.

    Raises:
        RequestValidationError: Missing required field, wrong type, or
            non-positive value where ``positive`` is set.
    """
    if field_ not in payload or payload[field_] is None:
        if required:
            raise _invalid(field_, "is required")
        return default
    value = payload[field_]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        kind = "an integer" if integer else "a number"
        raise _invalid(field_, f"must be {kind}, got {value!r}")
    if integer:
        if float(value) != int(value):
            raise _invalid(field_, f"must be an integer, got {value!r}")
        value = int(value)
    if positive and value <= 0:
        raise _invalid(field_, f"must be > 0, got {value!r}")
    return value


def _get_choice(payload: dict, field_: str, choices, *, default=None,
                required=False):
    """Fetch a string field constrained to a closed set of choices.

    Raises:
        RequestValidationError: Missing required field or a value
            outside ``choices`` (the error lists them).
    """
    if field_ not in payload or payload[field_] is None:
        if required:
            raise _invalid(field_, "is required", choices)
        return default
    value = payload[field_]
    if value not in choices:
        raise _invalid(field_, f"unknown value {value!r}", choices)
    return value


def _validate_gauge(spec) -> dict:
    """Normalize and validate the ``gauge`` spec of a wire payload.

    Returns:
        The canonical gauge spec (only the keys its ``kind`` uses).

    Raises:
        RequestValidationError: Unknown kind, missing dims/path, or odd
            lattice extents.
    """
    if not isinstance(spec, dict):
        raise _invalid("gauge", f"must be an object, got {type(spec).__name__}")
    kind = _get_choice(spec, "kind", GAUGE_KINDS, required=True)
    # argparse-style scoped field names for the nested keys
    if kind == "file":
        path = spec.get("path")
        if not isinstance(path, str) or not path:
            raise _invalid("gauge.path", "is required for kind='file'")
        return {"kind": "file", "path": path}
    dims = spec.get("dims")
    if (
        not isinstance(dims, (list, tuple))
        or len(dims) != 4
        or not all(isinstance(d, int) and not isinstance(d, bool) for d in dims)
    ):
        raise _invalid(
            "gauge.dims", f"must be 4 integers (nx, ny, nz, nt), got {dims!r}"
        )
    if any(d < 2 or d % 2 for d in dims):
        raise _invalid(
            "gauge.dims",
            f"extents must be even and >= 2 (even-odd checkerboarding), "
            f"got {dims!r}",
        )
    out = {"kind": kind, "dims": [int(d) for d in dims]}
    if kind == "weak":
        out["epsilon"] = float(
            _get_number(spec, "epsilon", default=0.25, positive=True)
        )
    if kind in ("weak", "hot"):
        out["seed"] = _get_number(spec, "seed", default=0, integer=True)
    return out


def _validate_rhs(spec) -> dict:
    """Normalize and validate the ``rhs`` spec of a wire payload.

    Returns:
        The canonical rhs spec.

    Raises:
        RequestValidationError: Unknown kind or malformed inline data.
    """
    if spec is None:
        return {"kind": "random", "seed": 1}
    if not isinstance(spec, dict):
        raise _invalid("rhs", f"must be an object, got {type(spec).__name__}")
    kind = _get_choice(spec, "kind", RHS_KINDS, required=True)
    if kind == "random":
        return {"kind": "random",
                "seed": _get_number(spec, "seed", default=1, integer=True)}
    if kind == "point":
        out = {"kind": "point"}
        out["spin"] = _get_number(spec, "spin", default=0, integer=True)
        out["color"] = _get_number(spec, "color", default=0, integer=True)
        site = spec.get("site", [0, 0, 0, 0])
        if (
            not isinstance(site, (list, tuple))
            or len(site) != 4
            or not all(isinstance(s, int) and not isinstance(s, bool)
                       for s in site)
        ):
            raise _invalid(
                "rhs.site", f"must be 4 integers (x, y, z, t), got {site!r}"
            )
        out["site"] = [int(s) for s in site]
        return out
    # Either array form of :func:`decode_array`, which decodes it (and
    # names what is wrong with it) in materialize_rhs, off the admission
    # path.
    if spec.get("real") is None and spec.get("b64") is None:
        raise _invalid(
            "rhs.real", "is required for kind='data' (or the packed rhs.b64)"
        )
    out = {"kind": "data"}
    out.update(
        (key, spec[key])
        for key in ("real", "imag", "b64", "dtype", "shape")
        if spec.get(key) is not None
    )
    return out


def _validate_boundary(value) -> list[str]:
    """Validate the per-direction boundary list of a wire payload.

    Raises:
        RequestValidationError: Not a list of 4 valid condition names.
    """
    if value is None:
        return ["periodic"] * 4
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 4
        or not all(b in _BOUNDARY for b in value)
    ):
        raise _invalid(
            "boundary",
            f"must be 4 per-direction conditions, got {value!r}",
            _BOUNDARY,
        )
    return [str(b) for b in value]


@dataclass
class ServiceRequest:
    """One validated, normalized wire request (see the module docstring).

    Everything is canonical by construction: ``method`` is resolved
    (never ``"auto"``), specs carry only the keys their kind uses, and
    numeric knobs are plain Python numbers — so canonical JSON, and
    therefore the fingerprint, is well defined.

    Attributes
    ----------
    id:
        Client-chosen identifier echoed back in the response (the
        service assigns ``req-N`` when absent).
    operator, mass, csw, method, tol, maxiter, even_odd,
    inner_precision, u0, boundary:
        The solve-defining knobs, mirroring
        :class:`repro.core.api.SolveRequest`.
    kernel:
        The *resolved* kernel tier (never ``"auto"``): ``"auto"`` on the
        wire resolves at validation time so the fingerprint pins the
        tier that will actually run — requests resolving to different
        tiers never coalesce into one batched solve.
    precond, precond_steps, precond_overlap, precond_blocks:
        Preconditioner for asqtad CG solves, resolved through the
        :mod:`repro.precond` registry at validation time (never stored
        as ``"auto"``; ``"auto"`` resolves to ``"none"``, preserving
        the plain-CG path bit-for-bit).  All four land in the operator
        fingerprint, so requests asking for different preconditioners
        — or the same one at different steps/overlap/block counts —
        never coalesce into one batched solve.  ``precond_blocks`` is
        the Schwarz block count, factored over the lattice with the
        same heuristic as the CLI.  Wilson-clover serving (BiCGstab)
        accepts only ``"auto"``/``"none"``.
    gauge:
        Canonical gauge spec (``kind`` = weak/hot/unit/file).
    rhs:
        Canonical rhs spec (``kind`` = random/point/data).
    priority:
        Higher runs sooner; ties are FIFO.
    timeout_seconds:
        Queue deadline; the request is evicted with
        :class:`~repro.serve.errors.DeadlineExpiredError` if no batch
        picks it up in time.  ``None`` means no deadline.
    return_solution:
        Include the solution array (either form of
        :func:`encode_array`; the request's ``Accept`` header picks) in
        the wire response.
    """

    id: str | None
    operator: str
    gauge: dict
    rhs: dict
    mass: float
    csw: float = 1.0
    method: str = ""
    tol: float | None = None
    maxiter: int | None = None
    even_odd: bool = False
    inner_precision: str | None = None
    u0: float = 1.0
    kernel: str = "numpy"
    precond: str = "none"
    precond_steps: int | None = None
    precond_overlap: int | None = None
    precond_blocks: int | None = None
    boundary: list[str] = field(default_factory=lambda: ["periodic"] * 4)
    priority: int = 0
    timeout_seconds: float | None = None
    return_solution: bool = False

    @classmethod
    def from_wire(cls, payload) -> "ServiceRequest":
        """Validate a decoded JSON payload into a :class:`ServiceRequest`.

        Args:
            payload: The decoded request object (``dict``).

        Returns:
            The normalized request.

        Raises:
            RequestValidationError: Any malformed field; the error names
                the field and, for closed sets, the valid choices.
        """
        if not isinstance(payload, dict):
            raise _invalid(
                "request", f"must be an object, got {type(payload).__name__}"
            )
        operator = _get_choice(
            payload, "operator", SERVABLE_OPERATORS, required=True
        )
        method = _get_choice(
            payload, "method", _METHODS[operator], default="auto"
        )
        if method == "auto":
            method = _DEFAULT_METHOD[operator]
        # Like method, the kernel tier is resolved here (never stored as
        # "auto") so the operator fingerprint pins the tier that runs.
        kernel = _get_choice(
            payload, "kernel", kernel_choices(), default="auto"
        )
        try:
            kernel = resolve_kernel(kernel, _KERNEL_FAMILY[operator]).name
        except KernelUnavailableError as exc:
            raise _invalid("kernel", str(exc), exc.choices)
        gauge = _validate_gauge(payload.get("gauge"))
        # The preconditioner resolves here too (never stored as "auto"),
        # so the fingerprint pins the entry that runs and mixed-precond
        # requests never coalesce.
        precond = _get_choice(
            payload, "precond", precond_choices(), default="auto"
        )
        precond_steps = precond_overlap = precond_blocks = None
        if operator != "asqtad" and precond not in ("auto", "none"):
            raise _invalid(
                "precond",
                f"unsupported value {precond!r}: only asqtad cg solves "
                "are served with a preconditioner",
                ("auto", "none"),
            )
        if precond == "auto":
            precond = "none"
        if precond != "none":
            try:
                precond = resolve_precond(precond, operator="staggered").name
            except PrecondUnavailableError as exc:
                raise _invalid("precond", str(exc), exc.choices)
            precond_steps = _get_number(
                payload, "precond_steps", positive=True, integer=True
            )
            precond_overlap = _get_number(
                payload, "precond_overlap", integer=True
            )
            if precond_overlap is not None and precond_overlap < 0:
                raise _invalid(
                    "precond_overlap",
                    f"must be >= 0, got {precond_overlap!r}",
                )
            precond_blocks = _get_number(
                payload, "precond_blocks", default=4, positive=True,
                integer=True,
            )
            if gauge.get("dims"):
                from repro.comm.grid import choose_grid

                try:
                    choose_grid(
                        precond_blocks, (3, 2, 1, 0), tuple(gauge["dims"])
                    )
                except ValueError as exc:
                    raise _invalid("precond_blocks", str(exc))
        rid = payload.get("id")
        if rid is not None and not isinstance(rid, str):
            raise _invalid("id", f"must be a string, got {rid!r}")
        even_odd = payload.get("even_odd", False)
        if not isinstance(even_odd, bool):
            raise _invalid("even_odd", f"must be a boolean, got {even_odd!r}")
        if even_odd and operator != "wilson_clover":
            raise _invalid(
                "even_odd", "is only meaningful for operator='wilson_clover'"
            )
        return_solution = payload.get("return_solution", False)
        if not isinstance(return_solution, bool):
            raise _invalid(
                "return_solution",
                f"must be a boolean, got {return_solution!r}",
            )
        return cls(
            id=rid,
            operator=operator,
            gauge=gauge,
            rhs=_validate_rhs(payload.get("rhs")),
            mass=float(_get_number(payload, "mass", required=True)),
            csw=float(_get_number(payload, "csw", default=1.0)),
            method=method,
            tol=_get_number(payload, "tol", positive=True),
            maxiter=_get_number(payload, "maxiter", positive=True,
                                integer=True),
            even_odd=even_odd,
            inner_precision=_get_choice(
                payload, "inner_precision", tuple(_PRECISIONS)
            ),
            u0=float(_get_number(payload, "u0", default=1.0, positive=True)),
            kernel=kernel,
            precond=precond,
            precond_steps=precond_steps,
            precond_overlap=precond_overlap,
            precond_blocks=precond_blocks,
            boundary=_validate_boundary(payload.get("boundary")),
            priority=_get_number(payload, "priority", default=0, integer=True),
            timeout_seconds=_get_number(
                payload, "timeout_seconds", positive=True
            ),
            return_solution=return_solution,
        )

    @property
    def nspin(self) -> int:
        """Spin components per site: 4 (Wilson) or 1 (staggered)."""
        return 4 if self.operator == "wilson_clover" else 1

    def precision_object(self) -> Precision | None:
        """The live :class:`~repro.precision.Precision` for
        ``inner_precision``, or ``None``."""
        if self.inner_precision is None:
            return None
        return _PRECISIONS[self.inner_precision]

    def operator_spec(self) -> dict:
        """The solve-defining knobs — everything except the rhs and the
        delivery metadata (id, priority, deadline, return_solution).

        Returns:
            A canonical JSON-ready dict; equal dicts <=> coalescible
            requests.
        """
        return {
            "operator": self.operator,
            "gauge": self.gauge,
            "mass": self.mass,
            "csw": self.csw if self.operator == "wilson_clover" else None,
            "method": self.method,
            "tol": self.tol,
            "maxiter": self.maxiter,
            "even_odd": self.even_odd,
            "inner_precision": self.inner_precision,
            "u0": self.u0 if self.operator == "asqtad" else None,
            "kernel": self.kernel,
            "precond": self.precond,
            "precond_steps": self.precond_steps,
            "precond_overlap": self.precond_overlap,
            "precond_blocks": self.precond_blocks,
            "boundary": self.boundary,
        }

    @cached_property
    def fingerprint(self) -> str:
        """sha256 of :meth:`operator_spec` canonical JSON — the
        coalescing key (see the module docstring).  Hashed once per
        request: the queue compares it for every entry on every group.
        """
        return hashlib.sha256(
            json.dumps(self.operator_spec(), sort_keys=True).encode()
        ).hexdigest()

    def materialize_rhs(self, geometry) -> np.ndarray:
        """Build the right-hand side array this request's ``rhs`` spec
        describes, on the given lattice.

        Args:
            geometry: The :class:`~repro.lattice.Geometry` of the
                request's gauge configuration.

        Returns:
            A single (unbatched) spinor array of the operator's site
            shape.

        Raises:
            RequestValidationError: Inline data that does not decode
                (see :func:`decode_array`), does not match the lattice
                or holds NaN/Infinity — naming ``rhs.real``,
                ``rhs.imag``, ``rhs.b64``, ``rhs.dtype`` or
                ``rhs.shape`` — or a point-source site/spin/color out
                of range.
        """
        from repro.lattice import SpinorField

        spec = self.rhs
        expected = geometry.shape + SpinorField.site_shape(self.nspin)
        if spec["kind"] == "random":
            return SpinorField.random(
                geometry, nspin=self.nspin, rng=spec["seed"]
            ).data
        if spec["kind"] == "point":
            try:
                return SpinorField.point_source(
                    geometry,
                    tuple(spec["site"]),
                    spin=spec["spin"],
                    color=spec["color"],
                    nspin=self.nspin,
                ).data
            except (IndexError, ValueError) as exc:
                raise _invalid("rhs", f"point source out of range: {exc}")
        data = decode_array(spec, field="rhs")
        if data.shape != expected:
            raise _invalid(
                "rhs.shape" if "shape" in spec else "rhs.real",
                f"shape {list(data.shape)} does not match the lattice; "
                f"expected {list(expected)}",
            )
        if not np.isfinite(data).all():
            if "b64" in spec:
                part = "b64"
            else:
                part = "real" if not np.isfinite(data.real).all() else "imag"
            raise _invalid(
                f"rhs.{part}",
                "holds NaN or Infinity; a right-hand side must be finite",
            )
        return data


#: ``dtype`` tags of the packed array form: little-endian IEEE real and
#: complex, single and double.
PACKED_DTYPES = ("<f4", "<f8", "<c8", "<c16")

#: The media-type parameter that names the packed form: a request asks
#: for it in ``Accept``, the response echoes it in ``Content-Type``.
PACKED_ARRAYS = "arrays=base64"


def encode_array(x: np.ndarray, packed: bool = False) -> dict:
    """Encode a real or complex array for the wire, in one of the two
    self-describing forms :func:`decode_array` reads.

    **Losslessness contract, both forms.**  ``decode_array(
    json.loads(json.dumps(encode_array(x, packed))))`` is
    ``tobytes``-equal to ``x.astype(complex128)`` for float32, float64,
    complex64 and complex128 input of any memory layout — signed zeros,
    subnormals and non-finite values included — so the service's
    bit-reproducibility contract survives the wire.  (Nested: JSON
    floats are ``repr`` encoded, which round-trips ``float64`` exactly.
    Packed: the bytes themselves.  Other dtypes travel as double.)

    Args:
        x: The array.
        packed: ``False`` for nested lists (readable, ~21 bytes a real
            number, every element a boxed Python float on both sides);
            ``True`` for base64 of the buffer (1.33 bytes a byte, no
            per-element work).

    Returns:
        ``{"real": ..., "imag": ..., "shape": [...]}`` with nested
        lists, or ``{"b64": ..., "dtype": ..., "shape": [...]}``: base64
        of the C-contiguous little-endian buffer and its
        :data:`PACKED_DTYPES` tag.
    """
    x = np.asarray(x)
    shape = list(x.shape)
    if not packed:
        return {
            "real": np.real(x).tolist(),
            "imag": np.imag(x).tolist(),
            "shape": shape,
        }
    if x.dtype.kind == "c":
        dtype = "<c8" if x.dtype == np.complex64 else "<c16"
    else:
        dtype = "<f4" if x.dtype == np.float32 else "<f8"
    raw = x.astype(dtype, copy=False).tobytes()
    return {
        "b64": base64.b64encode(raw).decode("ascii"),
        "dtype": dtype,
        "shape": shape,
    }


def _decode_shape(doc: dict, field_: str) -> tuple[int, ...]:
    """The validated ``shape`` entry of a wire array."""
    shape = doc.get("shape")
    if not isinstance(shape, list) or not all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 0
        for n in shape
    ):
        raise _invalid(
            f"{field_}.shape",
            f"must be a list of non-negative integers, got {shape!r}",
        )
    return tuple(shape)


def decode_array(doc: dict, field: str = "array") -> np.ndarray:
    """Inverse of :func:`encode_array`, for either form — the one place
    wire data becomes an array (responses on the client, ``rhs.kind =
    "data"`` on the server).

    Args:
        doc: ``{"b64", "dtype", "shape"}`` (packed) or ``{"real"[,
            "imag"][, "shape"]}`` (nested lists; the nesting gives the
            shape, ``shape`` only disambiguates empty arrays).
        field: Dotted path of ``doc`` in its request, for error messages
            (``"rhs"`` names ``rhs.b64``, ``rhs.real``, ...).

    Returns:
        A fresh, writable complex128 array.

    Raises:
        RequestValidationError: Naming the offending key — an unknown or
            big-endian ``dtype``, invalid base64, a byte length that is
            not ``itemsize x prod(shape)``, a ``shape`` that is not a
            list of non-negative integers or does not fit the data,
            ``real``/``imag`` that are missing, ragged, non-numeric or
            of different shapes.
    """
    if not isinstance(doc, dict):
        raise _invalid(field, f"must be an object, got {type(doc).__name__}")
    if doc.get("b64") is not None:
        dtype = doc.get("dtype")
        if dtype not in PACKED_DTYPES:
            raise _invalid(
                f"{field}.dtype", f"unknown value {dtype!r}", PACKED_DTYPES
            )
        shape = _decode_shape(doc, field)
        try:
            raw = base64.b64decode(doc["b64"], validate=True)
        except (binascii.Error, TypeError, ValueError) as exc:
            raise _invalid(f"{field}.b64", f"not valid base64: {exc}")
        need = np.dtype(dtype).itemsize * math.prod(shape)
        if len(raw) != need:
            raise _invalid(
                f"{field}.b64",
                f"holds {len(raw)} bytes; dtype {dtype} and shape "
                f"{list(shape)} need {need}",
            )
        return (
            np.frombuffer(raw, dtype=dtype).reshape(shape)
            .astype(np.complex128)
        )
    parts = {}
    for key in ("real", "imag"):
        if doc.get(key) is None:
            continue
        try:
            parts[key] = np.asarray(doc[key], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise _invalid(f"{field}.{key}", f"not a numeric array: {exc}")
    if "real" not in parts:
        raise _invalid(f"{field}.real", "is required")
    real, imag = parts["real"], parts.get("imag")
    if imag is not None and imag.shape != real.shape:
        raise _invalid(
            f"{field}.imag",
            f"shape {list(imag.shape)} differs from real's "
            f"{list(real.shape)}",
        )
    # Filled part by part: ``real + 1j * imag`` would turn an imaginary
    # -0.0 into +0.0 and smear a non-finite part into the other.
    out = np.empty(real.shape, dtype=np.complex128)
    out.real = real
    out.imag = 0.0 if imag is None else imag
    if doc.get("shape") is not None:
        shape = _decode_shape(doc, field)
        if math.prod(shape) != out.size:
            raise _invalid(
                f"{field}.shape",
                f"{list(shape)} does not fit the {out.size} elements of "
                f"real (nested shape {list(out.shape)})",
            )
        out = out.reshape(shape)
    return out


def pack_inline_rhs(payload):
    """``payload`` with a nested inline ``rhs`` (``kind="data"`` as
    ``real``/``imag`` lists) re-encoded in the packed form — the daemon
    decodes the two to the same array — for a client to send in its
    place (docs/serving.md, "Arrays on the wire").

    Anything else comes back as given, the object itself: a payload
    that is not an object, an ``rhs`` already packed or not inline, and
    every line whose answer could depend on the form — an array that does
    not decode, holds NaN or Infinity, or whose shape is not the lattice's
    or cannot be known here (an unservable operator, a gauge the client
    cannot size: ``kind="file"`` or invalid).  ``payload`` is never
    mutated.
    """
    rhs = payload.get("rhs") if isinstance(payload, dict) else None
    if not isinstance(rhs, dict) or rhs.get("kind") != "data" \
            or rhs.get("b64") is not None:
        return payload
    operator = payload.get("operator")
    if operator not in SERVABLE_OPERATORS:
        return payload
    try:
        dims = _validate_gauge(payload.get("gauge")).get("dims")
        if dims is None:  # a gauge file: its extents are the daemon's
            return payload
        data = decode_array(rhs, field="rhs")
    except RequestValidationError:
        return payload
    from repro.lattice import Geometry, SpinorField

    nspin = 4 if operator == "wilson_clover" else 1
    if data.shape != Geometry(dims).shape + SpinorField.site_shape(nspin) \
            or not np.isfinite(data).all():
        return payload
    return {**payload, "rhs": {"kind": "data", **encode_array(data, packed=True)}}
