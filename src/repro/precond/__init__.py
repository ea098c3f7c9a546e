"""Pluggable preconditioners (the solver/preconditioner seam of PR 9).

Importing this package registers the built-in entries:

* ``"schwarz"`` — the paper's non-overlapping additive Schwarz (block
  Jacobi); the ``"auto"`` default and the only non-trivial entry that
  applies rank-locally under the SPMD execution model,
* ``"ras"`` — restricted additive Schwarz with tunable overlap
  (``overlap=0`` reduces bitwise to block Jacobi),
* ``"multisplit"`` — overlapping multi-splittings with partition-of-unity
  weights, the natural partner of the flexible-PCG outer solver,
* ``"none"`` — the identity.

``SolveRequest(precond=...)``, ``GCRDDConfig(precond=...)``, and the CLI
``--precond`` flag all resolve through :func:`resolve_precond`.
"""

from repro._exports import lazy_exports
from repro.precond import entries, registry

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": (
        "OPERATOR_FAMILIES", "PrecondCapabilities", "PrecondEntry",
        "PrecondSettings", "PrecondUnavailableError",
    ),
    ".entries": (
        "MultisplitEntry", "NoneEntry", "RASEntry", "SchwarzEntry",
    ),
    ".rank_local": ("schwarz_block_solve",),
    ".registry": (
        "AUTO", "availability_note", "available_preconds",
        "capability_matrix", "get_precond", "precond_choices",
        "precond_names", "register_precond", "resolve_precond",
    ),
})

registry.register_precond(entries.SchwarzEntry())
registry.register_precond(entries.RASEntry())
registry.register_precond(entries.MultisplitEntry())
registry.register_precond(entries.NoneEntry())
