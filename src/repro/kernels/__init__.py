"""Pluggable dslash kernel backends (the solver/kernel seam of PR 8).

Importing this package registers the built-in tiers:

* ``"numpy"`` — the vectorized bit-reference (always available),
* ``"numpy_ref"`` — the seed's full-spinor Wilson formulation,
* ``"c"`` — the Wilson stencil core and the whole Wilson-clover matrix
  around it, compiled from ``wilson_hop.c`` with the host's C compiler on
  first use, bit-identical to ``"numpy"``;
  registers as unavailable with the reason (and ``"auto"`` is NumPy)
  where it cannot be built or its multiply probe fails.

``SolveRequest(kernel=...)``, the operators' ``kernel=`` parameter, and
the CLI ``--kernel`` flag all resolve through :func:`resolve_kernel`.
"""

from repro.kernels.base import (
    KernelBackend,
    KernelCapabilities,
    KernelUnavailableError,
    OPERATOR_FAMILIES,
)
from repro.kernels.c_backend import CBackend
from repro.kernels.numpy_backend import NumpyBackend, NumpyReferenceBackend
from repro.kernels.registry import (
    AUTO,
    availability_note,
    available_backends,
    backend_names,
    capability_matrix,
    convert_field,
    get_backend,
    kernel_choices,
    register_backend,
    resolve_kernel,
)

register_backend(NumpyBackend())
register_backend(NumpyReferenceBackend())
register_backend(CBackend())

__all__ = [
    "AUTO",
    "CBackend",
    "KernelBackend",
    "KernelCapabilities",
    "KernelUnavailableError",
    "NumpyBackend",
    "NumpyReferenceBackend",
    "OPERATOR_FAMILIES",
    "availability_note",
    "available_backends",
    "backend_names",
    "capability_matrix",
    "convert_field",
    "get_backend",
    "kernel_choices",
    "register_backend",
    "resolve_kernel",
]
