"""The interchangeable SPMD execution backends (sequential / threads /
processes): same rank program, bit-identical results, merged accounting,
and deadlock diagnostics instead of hangs."""

import numpy as np
import pytest

from repro.comm.backends import (
    BACKENDS,
    DeadlockError,
    SPMDError,
    process_backend_available,
    run_rank_programs,
)
from repro.comm.communicator import reduce_in_rank_order
from repro.util.counters import tally

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


def ring_program(comm, payload):
    """Pass a value once around the ring; every rank returns what it got."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.isend(right, np.array([float(payload)]), tag="ring")
    return float(comm.recv(left, tag="ring")[0])


def allreduce_program(comm, payload):
    return comm.allreduce_sum(np.float64(payload))


class TestRingExchange:
    @backend_param
    def test_ring_pass(self, backend):
        outcomes = run_rank_programs(
            ring_program, 4, payloads=[10.0, 11.0, 12.0, 13.0],
            backend=backend, timeout=20.0,
        )
        assert [o.rank for o in outcomes] == [0, 1, 2, 3]
        assert [o.value for o in outcomes] == [13.0, 10.0, 11.0, 12.0]

    @backend_param
    def test_send_accounting_merges(self, backend):
        payload = np.array([1.0])
        with tally() as t:
            run_rank_programs(
                ring_program, 3, payloads=[0.0, 1.0, 2.0],
                backend=backend, timeout=20.0,
            )
        assert t.messages == 3
        assert t.comm_bytes == 3 * payload.nbytes


class TestAllreduce:
    @backend_param
    def test_every_rank_gets_the_identical_fold(self, backend):
        parts = [0.1, 0.2, 0.3, 1e16]
        outcomes = run_rank_programs(
            allreduce_program, 4, payloads=parts, backend=backend,
            timeout=20.0,
        )
        expected = reduce_in_rank_order([np.float64(p) for p in parts])
        assert all(o.value == expected for o in outcomes)

    @backend_param
    def test_array_allreduce(self, backend):
        def program(comm, payload):
            return comm.allreduce_sum(np.full(5, float(payload)))

        outcomes = run_rank_programs(
            program, 3, payloads=[1.0, 2.0, 3.0], backend=backend,
            timeout=20.0,
        )
        for o in outcomes:
            assert np.array_equal(o.value, np.full(5, 6.0))

    @backend_param
    def test_merged_accounting_matches_global_view(self, backend):
        # One allreduce of one float64: reductions=1, messages=size,
        # comm_bytes=8*size — exactly Mailbox.allreduce_sum's charges.
        with tally() as t:
            run_rank_programs(
                allreduce_program, 4, payloads=[1.0, 2.0, 3.0, 4.0],
                backend=backend, timeout=20.0,
            )
        assert t.reductions == 1
        assert t.messages == 4
        assert t.comm_bytes == 8 * 4

    @backend_param
    def test_repeated_collectives(self, backend):
        def program(comm, payload):
            total = np.float64(0.0)
            for i in range(5):
                total = comm.allreduce_sum(total + payload + i)
            return float(total)

        outcomes = run_rank_programs(
            program, 3, payloads=[1.0, 2.0, 3.0], backend=backend,
            timeout=20.0,
        )
        assert len({o.value for o in outcomes}) == 1


class TestBarrier:
    @backend_param
    def test_barrier_releases_all_ranks(self, backend):
        def program(comm, payload):
            comm.barrier()
            comm.barrier()
            return comm.rank

        outcomes = run_rank_programs(program, 3, backend=backend, timeout=20.0)
        assert [o.value for o in outcomes] == [0, 1, 2]


class TestBitIdentityAcrossBackends:
    def test_same_program_same_bits(self):
        def program(comm, payload):
            # A mixed send/reduce recurrence with rounding-sensitive sums.
            acc = np.float64(payload)
            for i in range(4):
                right = (comm.rank + 1) % comm.size
                comm.isend(right, np.array([acc * (i + 1)]), tag=i)
                acc = acc + comm.recv((comm.rank - 1) % comm.size, tag=i)[0]
                acc = comm.allreduce_sum(acc * 0.3)
            return acc

        payloads = [0.1, 0.2, 0.7, 1.3]
        backends = [b for b in BACKENDS
                    if b != "processes" or process_backend_available()]
        results = {
            b: [o.value for o in run_rank_programs(
                program, 4, payloads=payloads, backend=b, timeout=20.0)]
            for b in backends
        }
        reference = results["sequential"]
        for b, values in results.items():
            assert values == reference, f"{b} diverged from sequential"


class TestFailures:
    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_rank_programs(ring_program, 2, backend="mpi")

    def test_payload_arity(self):
        with pytest.raises(ValueError, match="payloads"):
            run_rank_programs(ring_program, 3, payloads=[1.0], backend="sequential")

    @backend_param
    def test_rank_error_is_reported_with_rank_detail(self, backend):
        def program(comm, payload):
            if comm.rank == 1:
                raise ValueError("boom on rank one")
            return comm.rank

        with pytest.raises(SPMDError, match="rank 1.*boom on rank one"):
            run_rank_programs(program, 3, backend=backend, timeout=20.0)


class TestDeadlockDetection:
    def test_sequential_detects_cycle_immediately(self):
        def program(comm, payload):
            # Rank 0 waits for a message nobody sends while rank 1 sits in
            # a collective: a genuine cycle, not a slow rank.
            if comm.rank == 0:
                return comm.recv(1, tag="never")
            comm.barrier()
            return None

        with pytest.raises(SPMDError, match="pending|blocked|deadlock"):
            run_rank_programs(program, 2, backend="sequential", timeout=5.0)

    def test_threads_time_out_with_diagnostic_not_hang(self):
        def program(comm, payload):
            if comm.rank == 0:
                return comm.recv(1, tag="never")
            comm.barrier()
            return None

        with pytest.raises(SPMDError) as err:
            run_rank_programs(program, 2, backend="threads", timeout=1.0)
        # The diagnostic names the missing message or the stalled
        # collective instead of hanging forever.
        assert "never" in str(err.value) or "stalled" in str(err.value) \
            or "timed out" in str(err.value)

    def test_sequential_deadlock_lists_blocked_ranks(self):
        def program(comm, payload):
            return comm.recv((comm.rank + 1) % comm.size, tag="x")

        with pytest.raises(SPMDError) as err:
            run_rank_programs(program, 2, backend="sequential", timeout=5.0)
        message = str(err.value)
        assert "rank 0" in message and "rank 1" in message


@pytest.mark.skipif(
    not process_backend_available(),
    reason="needs the POSIX fork start method",
)
class TestProcessBackend:
    def test_large_payload_goes_through_shared_memory(self):
        from repro.comm.shm import INLINE_LIMIT

        n = INLINE_LIMIT // 8 + 1024  # float64 payload safely above the limit

        def program(comm, payload):
            if comm.rank == 0:
                comm.isend(1, np.arange(float(n)), tag="big")
                return None
            return float(comm.recv(0, tag="big").sum())

        outcomes = run_rank_programs(program, 2, backend="processes",
                                     timeout=30.0)
        assert outcomes[1].value == float(np.arange(float(n)).sum())

    def test_scalar_allreduce_stays_scalar(self):
        def program(comm, payload):
            return comm.allreduce_sum(np.float64(payload))

        outcomes = run_rank_programs(
            program, 2, payloads=[1.5, 2.5], backend="processes", timeout=30.0
        )
        for o in outcomes:
            assert np.asarray(o.value).ndim == 0
            assert float(o.value) == 4.0

    def test_out_of_order_tags_are_buffered(self):
        def program(comm, payload):
            if comm.rank == 0:
                comm.isend(1, np.array([1.0]), tag="first")
                comm.isend(1, np.array([2.0]), tag="second")
                return None
            # Receive in the opposite order they were sent.
            second = comm.recv(0, tag="second")[0]
            first = comm.recv(0, tag="first")[0]
            return (first, second)

        outcomes = run_rank_programs(program, 2, backend="processes",
                                     timeout=30.0)
        assert outcomes[1].value == (1.0, 2.0)
