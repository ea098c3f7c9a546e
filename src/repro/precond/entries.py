"""The built-in preconditioner entries.

One entry per member of the Schwarz/multi-splitting family implemented
under :mod:`repro.dd`, plus the identity.  Priorities order ``"auto"``
resolution: additive Schwarz sits on top so the default reproduces the
paper's GCR-DD preconditioner bit for bit; the overlapping extensions
rank below it (they trade redundant computation — and, on a real
cluster, halo assembly — for fewer outer iterations, a trade the paper
explicitly defers); the identity is last.
"""

from __future__ import annotations

from repro.precond.base import (
    PrecondCapabilities,
    PrecondEntry,
    PrecondSettings,
)


class SchwarzEntry(PrecondEntry):
    """Non-overlapping additive Schwarz (block Jacobi) — the paper's
    preconditioner (Secs. 3.2, 8.1) and the ``"auto"`` default.  The only
    non-trivial entry that applies rank-locally: each rank solves its own
    Dirichlet-cut block with zero inter-rank data movement."""

    name = "schwarz"
    priority = 10
    record_name = "schwarz_precond"
    capabilities = PrecondCapabilities(
        operators=("wilson", "staggered"),
        batched=True,
        spmd=True,
        overlapping=False,
    )

    def build(self, op, partition, settings: PrecondSettings):
        from repro.dd.schwarz import AdditiveSchwarzPreconditioner

        return AdditiveSchwarzPreconditioner(
            op,
            partition,
            mr_steps=settings.steps,
            omega=settings.omega,
            precision=settings.precision,
        )


class RASEntry(PrecondEntry):
    """Restricted additive Schwarz: blocks grown by ``overlap`` sites,
    Dirichlet solve on the extended region, correction restricted to the
    core block.  ``overlap=0`` reduces bitwise to block Jacobi."""

    name = "ras"
    priority = 5
    record_name = "schwarz_precond_overlap"
    capabilities = PrecondCapabilities(
        operators=("wilson", "staggered"),
        batched=False,
        spmd=False,
        overlapping=True,
    )

    def build(self, op, partition, settings: PrecondSettings):
        from repro.dd.overlapping import OverlappingSchwarzPreconditioner

        return OverlappingSchwarzPreconditioner(
            op,
            partition,
            overlap=settings.overlap,
            mr_steps=settings.steps,
            omega=settings.omega,
            precision=settings.precision,
        )


class MultisplitEntry(PrecondEntry):
    """Multi-splitting: overlapping-domain splittings combined through
    partition-of-unity weights (Osaki–Ishikawa arXiv:1011.3318, Tu et
    al. arXiv:2104.05615).  Designed for a flexible-PCG outer solver
    (``solvers/cg.pcg``) but usable under GCR as well."""

    name = "multisplit"
    priority = 3
    record_name = "multisplit_precond"
    capabilities = PrecondCapabilities(
        operators=("wilson", "staggered"),
        batched=True,
        spmd=False,
        overlapping=True,
    )

    def build(self, op, partition, settings: PrecondSettings):
        from repro.dd.multisplit import MultiSplittingPreconditioner

        return MultiSplittingPreconditioner(
            op,
            partition,
            overlap=settings.overlap,
            mr_steps=settings.steps,
            omega=settings.omega,
            precision=settings.precision,
        )


class NoneEntry(PrecondEntry):
    """The identity — no preconditioning.  ``build`` returns ``None``,
    which every outer solver treats as K = I."""

    name = "none"
    priority = -10
    record_name = ""
    capabilities = PrecondCapabilities(
        operators=("wilson", "staggered"),
        batched=True,
        spmd=True,
        overlapping=False,
    )

    def build(self, op, partition, settings: PrecondSettings):
        return None


__all__ = [
    "MultisplitEntry",
    "NoneEntry",
    "RASEntry",
    "SchwarzEntry",
]
