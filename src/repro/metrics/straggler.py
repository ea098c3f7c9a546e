"""Load-imbalance summary over the per-rank waits of a tally.

The paper's strong-scaling knee (Sec. 9) — and QUDA's before it
(arXiv:1011.0024) — appears when some ranks finish their local work
early and sit in blocking receives or the allreduce rendezvous waiting
for the slowest rank.  The SPMD communicators measure exactly that wait
(:class:`repro.comm.communicator.Communicator`): every blocking
``recv``, ``allreduce`` and ``barrier`` charges its elapsed wait to the
rank's :class:`~repro.util.counters.Tally` (``wait_seconds``), and the ranks'
tallies merge at SPMD join.  This module reduces those waits to the
*straggler summary*: total wait seconds per rank, and the
``max/median`` rank-wait ratio — read it like the scaling knee: a ratio
near 1 means the ranks are balanced and waits are pure wire latency; a
ratio that grows with rank count means one rank's slowness is serializing
the whole cluster.
"""

from __future__ import annotations

from statistics import median

from repro.util.counters import ALLREDUCE_WAIT, BARRIER_WAIT, RECV_WAIT, Tally

#: All per-rank wait kinds, in reporting order.
WAIT_METRICS = (RECV_WAIT, ALLREDUCE_WAIT, BARRIER_WAIT)


def rank_wait_stats(t: Tally) -> dict[int, dict]:
    """Per-rank wait totals: ``{rank: {kind: {"seconds", "count"}}}``.

    Only the :data:`WAIT_METRICS` kinds; ranks with no waits are absent.
    """
    out: dict[int, dict] = {}
    for (rank, kind), (seconds, count) in sorted(t.wait_seconds.items()):
        if kind in WAIT_METRICS:
            out.setdefault(rank, {})[kind] = {
                "seconds": seconds,
                "count": count,
            }
    return out


def straggler_summary(t: Tally) -> dict | None:
    """The ``max/median`` rank-wait ratio over all wait kinds.

    Returns ``None`` when no per-rank waits exist (a non-SPMD solve).  A
    large ratio means a minority of ranks absorb the waiting — the
    straggler signature; ~1 means waits are uniform
    (bandwidth/latency-bound, not imbalance-bound).
    """
    per_rank = rank_wait_stats(t)
    if not per_rank:
        return None
    totals = {
        rank: sum(m["seconds"] for m in kinds.values())
        for rank, kinds in sorted(per_rank.items())
    }
    values = list(totals.values())
    med = median(values)
    mx = max(values)
    return {
        "rank_wait_seconds": {str(r): s for r, s in totals.items()},
        "max_wait_seconds": mx,
        "median_wait_seconds": med,
        "max_over_median": (mx / med) if med > 0 else None,
    }
