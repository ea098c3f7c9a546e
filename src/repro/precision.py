"""Precision emulation: double, single, and QUDA-style 16-bit "half".

QUDA's half precision (Sec. 5 of the paper) is not IEEE fp16 but a custom
16-bit *fixed-point* format: each color-spinor (or gauge link) is stored as
int16 mantissas together with one float scale per site, chosen as the
max-norm of that site's components.  We emulate the format exactly —
quantize to int16 with a per-site scale, then dequantize — so mixed-precision
solvers in this library experience the same rounding behaviour that drives
the paper's reliable-update and early-restart (delta) machinery.

The emulated values are carried in complex64 arrays after the quantization
round-trip; what matters for solver behaviour is the *rounding*, which is
faithful.  Storage sizes for the performance model are taken from
:attr:`Precision.bytes_per_real`, not from the numpy dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_INT16_MAX = 32767.0


@dataclass(frozen=True)
class Precision:
    """A storage precision for lattice fields.

    Attributes
    ----------
    name:
        ``"double"``, ``"single"`` or ``"half"``.
    dtype:
        numpy complex dtype used to carry values of this precision.
    bytes_per_real:
        Storage cost per real number, used by the performance model
        (half stores int16 mantissas: 2 bytes/real plus a per-site scale
        that is amortized into the same figure, as in QUDA's accounting).
    """

    name: str
    dtype: np.dtype
    bytes_per_real: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Precision({self.name})"

    @property
    def eps(self) -> float:
        """Representative relative rounding error of the format."""
        if self.name == "double":
            return float(np.finfo(np.float64).eps)
        if self.name == "single":
            return float(np.finfo(np.float32).eps)
        return 1.0 / _INT16_MAX

    def convert(
        self, array: np.ndarray, site_axes: int = 2, leading: bool = False
    ) -> np.ndarray:
        """Round ``array`` to this precision (returns a new array).

        ``site_axes`` is the number of axes that belong to a single site
        (2 for ``(spin, color)`` spinors or ``(3, 3)`` links, 1 for
        staggered ``(color,)`` spinors); the half format computes one scale
        per site over exactly those axes.  They are the trailing axes, or
        with ``leading=True`` the leading ones (the lattice-last layout
        the stencils run in).
        """
        if self.name == "double":
            return np.ascontiguousarray(array, dtype=np.complex128)
        if self.name == "single":
            return np.ascontiguousarray(array, dtype=np.complex64)
        return quantize_half(array, site_axes=site_axes, leading=leading)


def quantize_half(
    array: np.ndarray, site_axes: int = 2, leading: bool = False
) -> np.ndarray:
    """Emulate QUDA's 16-bit fixed-point storage round-trip.

    Each site's components are divided by the site max-norm (stored as a
    float scale), the real and imaginary parts are rounded to int16, and the
    value is reconstructed.  Zero sites pass through unchanged.

    Runs in one pass over a *real view* of the input — real and imaginary
    parts are just ``2 * components`` reals per site — in the input's own
    real dtype (casting complex128 down first would change the rounding).

    The ``site_axes`` component axes are the trailing ones, or with
    ``leading=True`` the leading ones: a lattice-last field ``(spin, color,
    ..., T, Z, Y, X)`` is rounded where it lies, every pass streaming
    contiguous sites.  Only the site max is taken along other axes; the
    per-element arithmetic — and so every bit — is the trailing form's.
    """
    a = np.ascontiguousarray(array)
    if not np.iscomplexobj(a):
        a = a.astype(np.result_type(a.dtype, np.complex64))
    reals = a.view(a.real.dtype)
    if leading:
        # (component, site re/im pairs): a site's reals are two columns,
        # which share the one scale.
        reals = reals.reshape(math.prod(a.shape[:site_axes]), -1)
        mag = _site_max(np.abs(reals).T).reshape(-1, 2)
        scale = np.repeat(np.maximum(mag[:, 0], mag[:, 1]), 2)
    else:
        site_shape = a.shape[a.ndim - site_axes :]
        reals = reals.reshape(
            a.shape[: a.ndim - site_axes] + (2 * math.prod(site_shape),)
        )
        scale = _site_max(np.abs(reals))
    scale = scale.astype(np.float32)
    safe = np.where(scale > 0, scale, 1.0)
    q = reals / safe
    q *= _INT16_MAX
    np.rint(q, out=q)
    q += 0.0  # the int16 mantissa has no -0
    out = q.astype(np.float32, copy=False)
    out *= safe / _INT16_MAX
    return out.view(np.complex64).reshape(a.shape)


def _site_max(mag: np.ndarray) -> np.ndarray:
    """Max over the short trailing site axis, kept as a length-1 axis.

    The axis is folded in halves with ``np.maximum`` (24 -> 12 -> 6 -> 3
    -> 1): whole-field ufunc passes instead of a reduction whose inner
    loop is only 6-24 elements wide.  ``max`` is exact, so the fold order
    changes no bit, and NaNs propagate exactly as in ``.max()``.
    """
    n = mag.shape[-1]
    while n > 1:
        half = n // 2
        folded = np.maximum(mag[..., :half], mag[..., half : 2 * half])
        if n % 2:
            np.maximum(folded[..., 0], mag[..., -1], out=folded[..., 0])
        mag, n = folded, half
    return mag


DOUBLE = Precision("double", np.dtype(np.complex128), 8)
SINGLE = Precision("single", np.dtype(np.complex64), 4)
HALF = Precision("half", np.dtype(np.complex64), 2)

_BY_NAME = {"double": DOUBLE, "single": SINGLE, "half": HALF}
#: The names :func:`precision` looks up.
PRECISION_NAMES = tuple(_BY_NAME)


def precision(name: "str | Precision") -> Precision:
    """Look a precision up by name (idempotent on Precision instances)."""
    if isinstance(name, Precision):
        return name
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown precision {name!r}; expected double/single/half"
        ) from None


@dataclass(frozen=True)
class PrecisionPolicy:
    """Precisions used by a mixed-precision solver.

    The paper's best Wilson-clover configuration is "single-half-half"
    (Sec. 8.1): GCR restarts in ``outer``, Krylov construction in ``inner``,
    and the Schwarz preconditioner in ``preconditioner``.
    """

    outer: Precision
    inner: Precision
    preconditioner: Precision | None = None

    def __post_init__(self):
        object.__setattr__(self, "outer", precision(self.outer))
        object.__setattr__(self, "inner", precision(self.inner))
        if self.preconditioner is not None:
            object.__setattr__(
                self, "preconditioner", precision(self.preconditioner)
            )

    def label(self) -> str:
        parts = [self.outer.name, self.inner.name]
        if self.preconditioner is not None:
            parts.append(self.preconditioner.name)
        return "-".join(parts)


#: The paper's production Wilson-clover policy (Sec. 8.1).
SINGLE_HALF_HALF = PrecisionPolicy(SINGLE, HALF, HALF)
#: The paper's asqtad policy: double-precision accuracy via single multi-shift
#: plus double-single refinement (Sec. 8.2).
DOUBLE_SINGLE = PrecisionPolicy(DOUBLE, SINGLE)
