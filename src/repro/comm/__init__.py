"""The virtual-cluster communication substrate.

Stands in for the MPI/QMP + InfiniBand stack of the Edge cluster: a
:class:`ProcessGrid` describes the Cartesian rank layout, a
:class:`Mailbox` moves real data between virtual ranks in-process and
charges every message to the sender's tally (``messages`` /
``comm_bytes``).  The per-message view is the halo engine's ``send``
trace span (:class:`repro.multigpu.rank_halo.RankHaloEngine`), which the
performance model replays against its interconnect timings.

The SPMD layer sits on top: a :class:`Communicator` is one rank's
endpoint (``rank``/``size``/``isend``/``irecv``/``wait``/
``allreduce_sum``/``barrier``), and :func:`run_rank_programs` executes
the same rank program across every rank under one of three
interchangeable backends (``sequential``, ``threads``, ``processes``)
that produce bit-identical numerics.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".backends": (
        "DeadlockError", "RankOutcome", "SPMDError",
        "process_backend_available", "run_rank_programs",
    ),
    ".communicator": (
        "BACKENDS", "Communicator", "MailboxCommunicator",
        "reduce_in_rank_order",
    ),
    ".grid": ("ProcessGrid", "choose_grid"),
    ".mailbox": ("Mailbox",),
    ".shm": ("ShmCommunicator",),
})
