"""Wire-level solve requests: schema, validation, operator fingerprint.

A :class:`ServiceRequest` carries the
:class:`repro.core.api.SolveRequest` the service will run, and beside it
the *specs* of what that request holds live — a gauge spec (synthetic
parameters or a file path) and an rhs spec (seeded random, point source,
or inline data) — so a request can travel over HTTP and still
reconstruct the exact same linear system on the server.  The wire checks
types and the serving policy; what a solve accepts is
:func:`repro.core.api.validate_request`'s to say, and whether a
preconditioner takes a batch the :mod:`repro.precond` registry's.

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

import hashlib
import json
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.comm.grid import ProcessGrid, choose_grid
from repro.core.api import (
    DEFAULT_METHOD,
    KERNEL_FAMILY,
    METHODS,
    SolveRequest,
    SolveRequestError,
    resolve_even_odd,
    resolve_request_precond,
    validate_request,
)
from repro.dirac.base import BOUNDARY_CONDITIONS, BoundarySpec
from repro.kernels import KernelUnavailableError, kernel_choices, resolve_kernel
from repro.precision import PRECISION_NAMES, precision
from repro.precond import AUTO, PrecondUnavailableError, precond_choices
# The wire codec and its checks; the codec's names are re-exported here.
from repro.serve.wire import (  # noqa: F401
    GAUGE_KINDS,
    PACKED_ARRAYS,
    PACKED_DTYPES,
    SERVABLE_OPERATORS,
    _get_choice,
    _get_number,
    _invalid,
    _validate_gauge,
    decode_array,
    encode_array,
    pack_inline_rhs,
)

#: Methods the service does not run: ``gcr-dd`` needs a live process
#: grid for its Schwarz blocks.
LIBRARY_ONLY_METHODS = ("gcr-dd",)

RHS_KINDS = ("random", "point", "data")
#: The directions the Schwarz blocks cut, slowest first (as the CLI).
_BLOCK_DIRS = (3, 2, 1, 0)
#: Wire names of the ``SolveRequest`` fields the wire spells otherwise.
_WIRE_FIELD = {"grid": "precond_blocks"}


def block_grid(blocks: int, dims) -> ProcessGrid:
    """The process grid of ``blocks`` Schwarz blocks over a lattice of
    extents ``dims``, factored as the CLI does.

    Raises:
        ValueError: ``blocks`` does not factor over the lattice.
    """
    return choose_grid(blocks, _BLOCK_DIRS, tuple(dims))


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


def _validate_boundary(value) -> BoundarySpec:
    """The :class:`~repro.dirac.base.BoundarySpec` of a wire payload's
    per-direction boundary list.

    Raises:
        RequestValidationError: Not a list of 4 valid condition names.
    """
    if value is None:
        return BoundarySpec()
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 4
        or not all(b in BOUNDARY_CONDITIONS for b in value)
    ):
        raise _invalid(
            "boundary",
            f"must be 4 per-direction conditions, got {value!r}",
            BOUNDARY_CONDITIONS,
        )
    return BoundarySpec(tuple(value))


@dataclass
class ServiceRequest:
    """One validated, normalized wire request (see the module docstring).

    The semantic rules are the library's: :meth:`from_wire` builds the
    :class:`~repro.core.api.SolveRequest` the service will run and hands
    it to :func:`~repro.core.api.validate_request`.  What the wire adds
    is what the library cannot know — the gauge and rhs *specs*, the
    delivery metadata and the serving policy.  Everything is canonical
    by construction (``method``, ``kernel`` and ``precond`` resolved,
    never ``"auto"``; specs carrying only the keys their kind uses), so
    canonical JSON, and therefore the fingerprint, is well defined.

    Attributes
    ----------
    id:
        Client-chosen identifier echoed back in the response (the
        service assigns ``req-N`` when absent).
    gauge:
        Canonical gauge spec (``kind`` = weak/hot/unit/file).
    rhs:
        Canonical rhs spec (``kind`` = random/point/data).
    solve:
        The solve the service runs, ``gauge`` and ``rhs`` left ``None``
        until execution fills them in.  Its ``grid`` is the
        preconditioner's block partition, ``None`` for a gauge file
        (factored on the file's lattice at execution).
    precond_blocks:
        The Schwarz block count ``grid`` was factored from, ``None``
        without a preconditioner.
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
    gauge: dict
    rhs: dict
    solve: SolveRequest
    precond_blocks: int | None = None
    priority: int = 0
    timeout_seconds: float | None = None
    return_solution: bool = False

    @classmethod
    def from_wire(cls, payload) -> "ServiceRequest":
        """Validate a decoded JSON payload into a :class:`ServiceRequest`.

        Checks the wire types and the serving policy here, resolves
        ``"auto"`` with the library's resolvers and lets
        :func:`~repro.core.api.validate_request` judge the solve; a
        served solve is always a batch, so the precond registry must let
        its preconditioner take one.

        Args:
            payload: The decoded request object (``dict``).

        Returns:
            The normalized request.

        Raises:
            RequestValidationError: Any malformed or unservable field;
                the error names the field and, for closed sets, the
                valid choices.
        """
        if not isinstance(payload, dict):
            raise _invalid(
                "request", f"must be an object, got {type(payload).__name__}"
            )
        operator = _get_choice(
            payload, "operator", SERVABLE_OPERATORS, required=True
        )
        methods = tuple(
            m for m in METHODS[operator] if m not in LIBRARY_ONLY_METHODS
        )
        method = _get_choice(payload, "method", methods, default="auto")
        # Like method, the kernel tier is resolved here (never stored as
        # "auto") so the operator fingerprint pins the tier that runs.
        kernel = _get_choice(
            payload, "kernel", kernel_choices(), default="auto"
        )
        try:
            kernel = resolve_kernel(kernel, KERNEL_FAMILY[operator]).name
        except KernelUnavailableError as exc:
            raise _invalid("kernel", str(exc), exc.choices)
        gauge = _validate_gauge(payload.get("gauge"))
        precond = _get_choice(
            payload, "precond", precond_choices(), default="auto"
        )
        precond_steps = precond_overlap = precond_blocks = grid = None
        if precond not in (AUTO, "none"):
            precond_steps = _get_number(payload, "precond_steps",
                                        integer=True)
            precond_overlap = _get_number(payload, "precond_overlap",
                                          integer=True)
            precond_blocks = _get_number(
                payload, "precond_blocks", default=4, positive=True,
                integer=True,
            )
            if gauge.get("dims"):
                try:
                    grid = block_grid(precond_blocks, gauge["dims"])
                except ValueError as exc:
                    raise _invalid("precond_blocks", str(exc))
        rid = payload.get("id")
        if rid is not None and not isinstance(rid, str):
            raise _invalid("id", f"must be a string, got {rid!r}")
        even_odd = payload.get("even_odd", AUTO)
        if not (isinstance(even_odd, bool) or even_odd == AUTO):
            raise _invalid(
                "even_odd", f"must be a boolean or 'auto', got {even_odd!r}"
            )
        return_solution = payload.get("return_solution", False)
        if not isinstance(return_solution, bool):
            raise _invalid(
                "return_solution",
                f"must be a boolean, got {return_solution!r}",
            )
        inner = _get_choice(payload, "inner_precision", PRECISION_NAMES)
        solve = SolveRequest(
            operator=operator,
            gauge=None,
            rhs=None,
            mass=float(_get_number(payload, "mass", required=True)),
            csw=float(_get_number(payload, "csw", default=1.0)),
            method=DEFAULT_METHOD[operator] if method == AUTO else method,
            tol=_get_number(payload, "tol"),
            maxiter=_get_number(payload, "maxiter", integer=True),
            boundary=_validate_boundary(payload.get("boundary")),
            grid=grid,
            even_odd=even_odd,
            inner_precision=None if inner is None else precision(inner),
            u0=float(_get_number(payload, "u0", default=1.0)),
            kernel=kernel,
            precond=precond,
            precond_steps=precond_steps,
            precond_overlap=precond_overlap,
        )
        # A gauge file's lattice is known at execution only, where the
        # blocks are factored and solve() validates again: one block
        # stands in for them here.
        checked = solve
        if precond_blocks is not None and grid is None:
            checked = replace(solve, grid=ProcessGrid((1, 1, 1, 1)))
        try:
            validate_request(checked)
            solve.precond = resolve_request_precond(solve, batched=True).name
            solve.even_odd = resolve_even_odd(solve)
        except SolveRequestError as exc:
            wire = _WIRE_FIELD.get(exc.field, exc.field)
            raise _invalid(wire, exc.problem, exc.choices)
        except PrecondUnavailableError as exc:
            raise _invalid("precond", str(exc), exc.choices)
        return cls(
            id=rid,
            gauge=gauge,
            rhs=_validate_rhs(payload.get("rhs")),
            solve=solve,
            precond_blocks=precond_blocks,
            priority=_get_number(payload, "priority", default=0, integer=True),
            timeout_seconds=_get_number(
                payload, "timeout_seconds", positive=True
            ),
            return_solution=return_solution,
        )

    @property
    def nspin(self) -> int:
        """Spin components per site: 4 (Wilson) or 1 (staggered)."""
        return 4 if self.solve.operator == "wilson_clover" else 1

    def operator_spec(self) -> dict:
        """The solve-defining knobs — everything except the rhs and the
        delivery metadata (id, priority, deadline, return_solution).

        Returns:
            A canonical JSON-ready dict; equal dicts <=> coalescible
            requests.
        """
        s = self.solve
        return {
            "operator": s.operator,
            "gauge": self.gauge,
            "mass": s.mass,
            "csw": s.csw if s.operator == "wilson_clover" else None,
            "method": s.method,
            "tol": s.tol,
            "maxiter": s.maxiter,
            "even_odd": s.even_odd,
            "inner_precision": (
                None if s.inner_precision is None else s.inner_precision.name
            ),
            "u0": s.u0 if s.operator == "asqtad" else None,
            "kernel": s.kernel,
            "precond": s.precond,
            "precond_steps": s.precond_steps,
            "precond_overlap": s.precond_overlap,
            "precond_blocks": self.precond_blocks,
            "boundary": list(s.boundary.conditions),
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
