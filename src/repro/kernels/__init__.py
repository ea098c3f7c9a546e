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

from repro._exports import lazy_exports
from repro.kernels import c_backend, numpy_backend, registry

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": (
        "KernelBackend", "KernelCapabilities", "KernelUnavailableError",
        "OPERATOR_FAMILIES",
    ),
    ".c_backend": ("CBackend",),
    ".numpy_backend": ("NumpyBackend", "NumpyReferenceBackend"),
    ".registry": (
        "AUTO", "availability_note", "available_backends", "backend_names",
        "capability_matrix", "convert_field", "get_backend",
        "kernel_choices", "register_backend", "resolve_kernel",
    ),
})

registry.register_backend(numpy_backend.NumpyBackend())
registry.register_backend(numpy_backend.NumpyReferenceBackend())
registry.register_backend(c_backend.CBackend())
