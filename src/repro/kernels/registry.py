"""Kernel-backend registry: one :class:`~repro.util.registry.Registry`.

Operators and the request validators resolve ``kernel=`` values through
:func:`resolve_kernel`.  NumPy registers at priority 0 and serves every
family, so ``"auto"`` degrades to the bit-reference when nothing faster
is installed; :func:`capability_matrix` is the data behind
``python -m repro kernels``.
"""

from __future__ import annotations

from repro.kernels.base import KernelUnavailableError
from repro.util.registry import AUTO, Registry

KERNELS = Registry(
    noun="kernel", title="kernel backend", item="backend",
    error=KernelUnavailableError,
)

register_backend = KERNELS.register
get_backend = KERNELS.get
backend_names = KERNELS.names
available_backends = KERNELS.available
kernel_choices = KERNELS.choices
resolve_kernel = KERNELS.resolve
availability_note = KERNELS.availability_note
capability_matrix = KERNELS.capability_matrix


def convert_field(x, precision, site_axes: int = 2):
    """``precision.convert(x, site_axes)`` for the solver spaces — a
    Wilson field to the half format by the quantiser of the tier
    ``"auto"`` resolves to (the one inside its whole apply), where it has
    one for the array: the same bits, so NumPy's stays the reference, and
    the fallback for every array it declines."""
    if precision.name == "half" and site_axes == 2:
        out = resolve_kernel(AUTO, operator="wilson").quantize_half(x)
        if out is not None:
            return out
    return precision.convert(x, site_axes=site_axes)
