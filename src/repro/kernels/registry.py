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
