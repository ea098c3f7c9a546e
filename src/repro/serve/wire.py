"""The wire's array codec, and what a client needs to send a request.

Arrays cross the wire in one of two self-describing forms
(docs/serving.md, "Arrays on the wire"): nested ``real``/``imag`` lists
or base64 of the little-endian buffer.  :func:`encode_array` writes
either, :func:`decode_array` reads both, and :func:`pack_inline_rhs`
re-encodes a nested inline ``rhs`` packed before a client sends it.

This module imports NumPy and :mod:`repro.serve.errors` only, so the
client (:mod:`repro.serve.client`) loads no solver; the request schema
(:mod:`repro.serve.request`) builds on it.
"""

from __future__ import annotations

import base64
import binascii
import math

import numpy as np

from repro.serve.errors import RequestValidationError

#: Operators the service can coalesce: the two with a batched multi-RHS
#: execution path.  ``asqtad_multishift`` (no batched rhs) stays
#: library-only.
SERVABLE_OPERATORS = ("wilson_clover", "asqtad")

GAUGE_KINDS = ("weak", "hot", "unit", "file")


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
