"""Multi-RHS halo exchange: the message count of a distributed stencil
application must be independent of the batch size (all N faces ride one
message per neighbor per direction), while the payload grows N-fold.
This is the property that keeps the latency term of the strong-scaling
communication model flat under multi-RHS batching."""

import numpy as np
import pytest

from rank_stack import on_ranks, rank_apply
from repro.comm.backends import run_rank_programs
from repro.comm.grid import ProcessGrid
from repro.lattice import SpinorField
from repro.multigpu import BlockPartition
from repro.solvers.space import ArraySpace, BatchedArraySpace
from repro.util.counters import tally

GRID = ProcessGrid((1, 1, 2, 2))


def dist_apply(gauge, field, **kw):
    return rank_apply("wilson_clover", gauge, 0.1, GRID, field, csw=1.0, **kw)


def _comm_profile(gauge, global_field):
    """Messages and bytes of ONE apply: the ledger of build + apply minus
    the ledger of the build (the one-time gauge exchange) alone."""
    counts = []
    for body in (lambda op, x: None, "apply"):
        with tally() as t:
            on_ranks("wilson_clover", gauge, 0.1, GRID, global_field,
                     csw=1.0, body=body)
        counts.append((t.messages, t.comm_bytes))
    (m0, b0), (m1, b1) = counts
    return m1 - m0, b1 - b0


@pytest.mark.parametrize("batch", [2, 4, 12])
def test_message_count_independent_of_batch(weak_gauge448, geom448, batch):
    single = SpinorField.random(geom448, rng=1).data
    batched = np.stack(
        [SpinorField.random(geom448, rng=1 + i).data for i in range(batch)]
    )
    messages_1, bytes_1 = _comm_profile(weak_gauge448, single)
    messages_b, bytes_b = _comm_profile(weak_gauge448, batched)
    assert messages_1 > 0
    assert messages_b == messages_1
    assert bytes_b == batch * bytes_1


def test_batched_apply_matches_stacked(weak_gauge448, geom448):
    """Bitwise: the batched rank-local stencil carries the batch axis as
    lanes of the single-RHS body."""
    batched = np.stack(
        [SpinorField.random(geom448, rng=50 + i).data for i in range(3)]
    )
    out_b = dist_apply(weak_gauge448, batched)
    out_s = np.stack([dist_apply(weak_gauge448, batched[i]) for i in range(3)])
    assert np.array_equal(out_b, out_s)


def test_split_path_matches_batched(weak_gauge448, geom448):
    """The interior/exterior decomposition gives the same batched answer
    as the fused apply."""
    batched = np.stack(
        [SpinorField.random(geom448, rng=70 + i).data for i in range(3)]
    )
    fused = dist_apply(weak_gauge448, batched)
    split = dist_apply(weak_gauge448, batched, schedule="split")
    assert np.allclose(fused, split, rtol=1e-13, atol=1e-13)


def test_batched_allreduce_single_event(geom448):
    """A batched distributed reduction is ONE allreduce carrying B
    scalars, with payload (not event count) scaling with B."""
    partition = BlockPartition(geom448, GRID)
    single = SpinorField.random(geom448, rng=5).data
    batched = np.stack(
        [SpinorField.random(geom448, rng=5 + i).data for i in range(4)]
    )

    def norm2(space_cls, field, lead):
        with tally() as t:
            outcomes = run_rank_programs(
                lambda comm, x: space_cls(2, comm=comm).norm2(x),
                partition.n_ranks, partition.split(field, lead=lead),
            )
        return outcomes[0].value, t

    _, t1 = norm2(ArraySpace, single, 0)
    norms, tb = norm2(BatchedArraySpace, batched, 1)
    assert norms.shape == (4,)
    assert tb.reductions == t1.reductions == 1
    assert tb.comm_bytes == 4 * t1.comm_bytes
