"""RankSpace: global reductions over per-rank blocks, run as rank
programs under the sequential backend."""

import numpy as np
import pytest

from repro.comm import ProcessGrid
from repro.comm.backends import run_rank_programs
from repro.lattice import Geometry, SpinorField
from repro.multigpu import BlockPartition, RankSpace
from repro.util.counters import tally


@pytest.fixture(scope="module")
def setup():
    geom = Geometry((4, 4, 4, 8))
    part = BlockPartition(geom, ProcessGrid((1, 1, 2, 2)))
    return geom, part


def on_space(part, body, *fields):
    """Per-rank values of ``body(space, *local_blocks)``."""
    blocks = [part.split(f) for f in fields]
    payloads = [tuple(b[rank] for b in blocks) for rank in range(part.n_ranks)]
    outcomes = run_rank_programs(
        lambda comm, local: body(RankSpace(comm), *local),
        part.n_ranks, payloads, backend="sequential",
    )
    return [o.value for o in outcomes]


def gathered(part, body, *fields):
    return part.assemble(on_space(part, body, *fields))


class TestReductions:
    def test_dot_matches_global(self, setup, rng):
        geom, part = setup
        x = SpinorField.random(geom, rng=rng).data
        y = SpinorField.random(geom, rng=rng).data
        values = on_space(part, lambda s, a, b: s.dot(a, b), x, y)
        assert values[0] == pytest.approx(complex(np.vdot(x, y)))
        assert all(v == values[0] for v in values)  # same scalar everywhere

    def test_norm2_matches_global(self, setup, rng):
        geom, part = setup
        x = SpinorField.random(geom, rng=rng).data
        values = on_space(part, lambda s, a: s.norm2(a), x)
        assert values[0] == pytest.approx(float(np.vdot(x, x).real))
        assert all(v == values[0] for v in values)

    def test_rdot(self, setup, rng):
        geom, part = setup
        x = SpinorField.random(geom, rng=rng).data
        y = SpinorField.random(geom, rng=rng).data
        values = on_space(part, lambda s, a, b: s.rdot(a, b), x, y)
        assert values[0] == pytest.approx(float(np.vdot(x, y).real))

    def test_each_reduction_counted_once(self, setup, rng):
        geom, part = setup
        x = SpinorField.random(geom, rng=rng).data
        with tally() as t:
            on_space(part, lambda s, a: (s.norm2(a), s.dot(a, a)), x)
        assert t.reductions == 2


class TestUpdates:
    def test_axpy(self, setup, rng):
        geom, part = setup
        x = SpinorField.random(geom, rng=rng).data
        y = SpinorField.random(geom, rng=rng).data
        out = gathered(part, lambda s, a, b: s.axpy(2.0, a, b), x, y)
        assert np.allclose(out, y + 2 * x)

    def test_xpay_scale_copy(self, setup, rng):
        geom, part = setup
        x = SpinorField.random(geom, rng=rng).data
        y = SpinorField.random(geom, rng=rng).data
        assert np.allclose(
            gathered(part, lambda s, a, b: s.xpay(a, -1.5, b), x, y),
            x - 1.5 * y,
        )
        assert np.allclose(gathered(part, lambda s, a: s.scale(1j, a), x), 1j * x)

        def copy_then_clobber(s, a):
            s.copy(a)[...] = 0
            return a

        assert np.array_equal(gathered(part, copy_then_clobber, x), x)

    def test_zeros_like(self, setup, rng):
        geom, part = setup
        x = SpinorField.random(geom, rng=rng).data
        values = on_space(part, lambda s, a: s.norm2(s.zeros_like(a)), x)
        assert values == [0.0] * part.n_ranks

    def test_convert_precision(self, setup, rng):
        from repro.precision import HALF

        geom, part = setup
        x = SpinorField.random(geom, rng=rng).data
        out = gathered(part, lambda s, a: s.convert(a, HALF), x)
        assert out.dtype == np.complex64
        assert np.abs(out - x).max() < 1e-3 * np.abs(x).max()

    def test_scatter_asarray_roundtrip(self, setup, rng):
        geom, part = setup
        x = SpinorField.random(geom, rng=rng).data
        assert np.array_equal(gathered(part, lambda s, a: s.asarray(a), x), x)


class TestBatchedUpdates:
    """``BatchedRankSpace`` updates follow the batched BLAS dtype
    contract: the per-RHS coefficient is rounded to the field's dtype, so
    a complex64 block is not promoted and every lane is the scalar
    space's update of that lane."""

    COEFFS = (
        np.array([0.5 - 1.25j, -2.0 + 0.125j, 1e-3j]),   # complex128 (B,)
        np.array([1.5, -0.75, 3.0]),                     # float64 (B,)
        np.complex128(0.3 - 0.7j),                       # one NumPy scalar
    )

    @staticmethod
    def fields(rng, dtype, batch=3):
        shape = (batch, 2, 2, 2, 4, 4, 3)
        return tuple(
            (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            .astype(dtype) for _ in "xy"
        )

    @staticmethod
    def spaces():
        """The batched and the scalar space of one rank (the updates are
        rank-local: no collective is entered)."""
        from repro.multigpu import BatchedRankSpace

        (outcome,) = run_rank_programs(
            lambda comm, _: (BatchedRankSpace(comm), RankSpace(comm)),
            1, [None], backend="sequential",
        )
        return outcome.value

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("update", ["axpy", "xpay", "scale"])
    def test_dtype_is_preserved(self, update, dtype, rng):
        batched, _ = self.spaces()
        x, y = self.fields(rng, dtype)
        for a in self.COEFFS:
            out = {
                "axpy": lambda: batched.axpy(a, x, y),
                "xpay": lambda: batched.xpay(x, a, y),
                "scale": lambda: batched.scale(a, x),
            }[update]()
            assert out.dtype == dtype
            assert out.shape == x.shape

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_lane_equals_rank_space(self, dtype, rng):
        """Lane ``b`` of a batched update == the scalar space's update of
        that lane with the Python scalar ``a[b]``, bit for bit."""
        batched, scalar = self.spaces()
        x, y = self.fields(rng, dtype)
        for a in self.COEFFS[:2]:
            got = (batched.axpy(a, x, y), batched.xpay(x, a, y),
                   batched.scale(a, x))
            for b, coeff in enumerate(a.tolist()):
                expected = (scalar.axpy(coeff, x[b], y[b]),
                            scalar.xpay(x[b], coeff, y[b]),
                            scalar.scale(coeff, x[b]))
                for g, e in zip(got, expected):
                    assert g.dtype == e.dtype == dtype
                    assert np.array_equal(g[b], e)

    def test_single_correction_into_a_double_iterate_stays_double(self, rng):
        """``y + a*x`` keeps its result dtype when a complex64 correction
        meets a complex128 iterate (defect correction's accumulate)."""
        batched, scalar = self.spaces()
        x, _ = self.fields(rng, np.complex64)
        _, y = self.fields(rng, np.complex128)
        a = self.COEFFS[0]
        out = batched.axpy(a, x, y)
        assert out.dtype == np.complex128
        assert np.array_equal(out[1], scalar.axpy(complex(a[1]), x[1], y[1]))
        assert batched.xpay(y, a, x).dtype == np.complex128
