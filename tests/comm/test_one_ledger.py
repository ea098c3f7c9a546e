"""One comm ledger: a halo message is counted once, in the sender's tally,
and described once, by its ``send`` trace span — under every SPMD backend
and every halo precision, the two agree message for message and byte for
byte."""

import numpy as np
import pytest

from repro.comm import ProcessGrid, process_backend_available, run_rank_programs
from repro.lattice import SpinorField
from repro.multigpu import BlockPartition, HaloLayout, RankHaloEngine
from repro.precision import HALF, SINGLE
from repro.trace import tracing
from repro.util.counters import tally

LANES = 2

backend_param = pytest.mark.parametrize(
    "backend",
    [
        "sequential",
        "threads",
        pytest.param(
            "processes",
            marks=pytest.mark.skipif(
                not process_backend_available(),
                reason="needs the POSIX fork start method",
            ),
        ),
    ],
)
precision_param = pytest.mark.parametrize(
    "precision", [None, SINGLE, HALF], ids=["none", "single", "half"]
)


def _exchange_program(comm, task):
    """One rank's spinor exchange (``lead`` = 1 for a batched field)."""
    partition, block, lead, precision = task
    engine = RankHaloEngine(
        HaloLayout(partition, depth=1), comm, precision=precision
    )
    engine.exchange(block, lead=lead)


def _traced_exchange(geom, backend, precision, lanes=None):
    """Run one exchange on a 1x1x2x2 grid; return (merged tally, the
    exchange's ``send`` spans, the partition)."""
    partition = BlockPartition(geom, ProcessGrid((1, 1, 2, 2)))
    if lanes is None:
        field, lead = SpinorField.random(geom, rng=7).data, 0
    else:
        field = np.stack(
            [SpinorField.random(geom, rng=7 + i).data for i in range(lanes)]
        )
        lead = 1
    tasks = [(partition, b, lead, precision)
             for b in partition.split(field, lead=lead)]
    with tally() as t, tracing() as tr:
        run_rank_programs(
            _exchange_program, partition.n_ranks, tasks, backend=backend
        )
    sends = [ev for ev in tr.events if ev.name == "send"]
    return t, sends, partition


@backend_param
@precision_param
class TestSpansEqualTally:
    def test_single_field(self, geom448, backend, precision):
        t, sends, _ = _traced_exchange(geom448, backend, precision)
        assert len(sends) == t.messages > 0
        assert sum(ev.args["nbytes"] for ev in sends) == t.comm_bytes
        assert {ev.args["field"] for ev in sends} == {"spinor"}

    def test_batched_field(self, geom448, backend, precision):
        t, sends, _ = _traced_exchange(geom448, backend, precision, LANES)
        assert len(sends) == t.messages > 0
        assert sum(ev.args["nbytes"] for ev in sends) == t.comm_bytes
        assert {ev.args["batch"] for ev in sends} == {LANES}

    def test_spans_name_only_partitioned_dims(self, geom448, backend,
                                             precision):
        _, sends, partition = _traced_exchange(geom448, backend, precision)
        assert {ev.args["mu"] for ev in sends} == set(
            partition.grid.partitioned_dims
        ) == {2, 3}
        # Two faces per partitioned dimension per rank, each its own span.
        faces = {(ev.rank, ev.args["mu"], ev.args["sign"]) for ev in sends}
        assert len(faces) == len(sends) == partition.n_ranks * 2 * 2


@backend_param
@precision_param
def test_batched_exchange_is_one_span_per_face(geom448, backend, precision):
    """B lanes ride one message per face: the same spans as a single
    field, each carrying B times its bytes."""
    _, single, _ = _traced_exchange(geom448, backend, precision)
    _, batched, _ = _traced_exchange(geom448, backend, precision, LANES)

    def by_face(sends):
        return {
            (ev.rank, ev.args["mu"], ev.args["sign"]): ev.args["nbytes"]
            for ev in sends
        }

    one, many = by_face(single), by_face(batched)
    assert len(batched) == len(single) == len(many)
    assert many == {face: LANES * nbytes for face, nbytes in one.items()}
