"""Precision emulation: dtype mapping and the 16-bit fixed-point format."""

import numpy as np
import pytest

from repro.precision import (
    DOUBLE,
    HALF,
    SINGLE,
    SINGLE_HALF_HALF,
    DOUBLE_SINGLE,
    PrecisionPolicy,
    precision,
    quantize_half,
)


class TestLookup:
    def test_by_name(self):
        assert precision("double") is DOUBLE
        assert precision("single") is SINGLE
        assert precision("half") is HALF

    def test_idempotent(self):
        assert precision(HALF) is HALF

    def test_unknown(self):
        with pytest.raises(ValueError):
            precision("quad")

    def test_storage_sizes(self):
        assert DOUBLE.bytes_per_real == 8
        assert SINGLE.bytes_per_real == 4
        assert HALF.bytes_per_real == 2

    def test_eps_ordering(self):
        assert DOUBLE.eps < SINGLE.eps < HALF.eps
        assert HALF.eps == pytest.approx(1 / 32767.0)


class TestConvert:
    def test_double_passthrough(self, rng):
        x = rng.standard_normal((4, 4, 4, 4, 4, 3)) + 0j
        out = DOUBLE.convert(x)
        assert out.dtype == np.complex128
        assert np.array_equal(out, x)

    def test_single_rounds(self, rng):
        x = rng.standard_normal((2, 2, 2, 2, 4, 3)) + 1j * rng.standard_normal(
            (2, 2, 2, 2, 4, 3)
        )
        out = SINGLE.convert(x)
        assert out.dtype == np.complex64
        assert np.abs(out - x).max() < 1e-6

    def test_half_accuracy(self, rng):
        x = rng.standard_normal((2, 2, 2, 2, 4, 3)) + 1j * rng.standard_normal(
            (2, 2, 2, 2, 4, 3)
        )
        out = HALF.convert(x)
        # Relative error per site bounded by the fixed-point resolution
        # times the site max-norm.
        site_max = np.abs(x).reshape(x.shape[:-2] + (-1,)).max(-1)
        err = np.abs(out - x).reshape(x.shape[:-2] + (-1,)).max(-1)
        assert np.all(err <= 3.0 * site_max / 32767.0)


class TestQuantizeHalf:
    def test_zero_field_unchanged(self):
        z = np.zeros((4, 4, 3), dtype=np.complex128)
        assert not np.any(quantize_half(z, site_axes=1))

    def test_idempotent(self, rng):
        x = rng.standard_normal((8, 4, 3)) + 1j * rng.standard_normal((8, 4, 3))
        q1 = quantize_half(x)
        q2 = quantize_half(q1.astype(np.complex128))
        assert np.abs(q1 - q2).max() < 2e-4 * np.abs(x).max()

    def test_scale_invariance_per_site(self, rng):
        # Scaling one site's values scales its quantization identically:
        # the per-site scale makes the format relative, not absolute.
        x = rng.standard_normal((2, 4, 3)) + 1j * rng.standard_normal((2, 4, 3))
        q = quantize_half(x)
        scaled = x.copy()
        scaled[0] *= 1000.0
        q_scaled = quantize_half(scaled)
        assert np.allclose(q_scaled[0], 1000.0 * q[0], rtol=1e-5)
        assert np.allclose(q_scaled[1], q[1])

    def test_staggered_site_axes(self, rng):
        x = rng.standard_normal((4, 4, 4, 4, 3)) + 1j * rng.standard_normal(
            (4, 4, 4, 4, 3)
        )
        out = quantize_half(x, site_axes=1)
        assert out.dtype == np.complex64
        assert np.abs(out - x).max() < np.abs(x).max() * 1e-3

    def test_quantization_actually_rounds(self, rng):
        x = rng.standard_normal((8, 4, 3)) + 1j * rng.standard_normal((8, 4, 3))
        assert np.abs(quantize_half(x) - x).max() > 0


def _quantize_half_oracle(array, site_axes=2):
    """The pre-PR-14 body, kept verbatim: separate real/imag passes, an
    actual int16 round trip and a ``1j *`` rebuild (~12 temporaries)."""
    a = np.asarray(array)
    reduce_axes = tuple(range(a.ndim - site_axes, a.ndim))
    scale = np.maximum(
        np.abs(a.real).max(axis=reduce_axes, keepdims=True),
        np.abs(a.imag).max(axis=reduce_axes, keepdims=True),
    ).astype(np.float32)
    safe = np.where(scale > 0, scale, 1.0)
    re = np.rint(a.real / safe * 32767.0).astype(np.int16)
    im = np.rint(a.imag / safe * 32767.0).astype(np.int16)
    out = (re.astype(np.float32) + 1j * im.astype(np.float32)) * (safe / 32767.0)
    return out.astype(np.complex64)


def _quantize(x, site_axes=2, leading=False):
    """``quantize_half`` in either axis convention, on a field given (and
    returned) site-axes-trailing: the leading form sees the lattice-last
    transpose the stencils hold."""
    if not leading:
        return quantize_half(x, site_axes=site_axes)
    trailing = tuple(range(-site_axes, 0))
    front = tuple(range(site_axes))
    xs = np.ascontiguousarray(np.moveaxis(x, trailing, front))
    out = quantize_half(xs, site_axes=site_axes, leading=True)
    assert out.shape == xs.shape and out.flags.c_contiguous
    return np.ascontiguousarray(np.moveaxis(out, front, trailing))


class TestQuantizeHalfOnePass:
    """The one-pass real-view body reproduces the oracle bit for bit, in
    the trailing and in the leading (lattice-last) axis convention."""

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize(
        "shape,site_axes",
        [((6, 5, 4, 3), 2), ((6, 5, 3), 1), ((3, 6, 5, 4, 3), 2), ((2, 7, 3), 1),
         ((2, 4, 3, 2, 5, 4, 3), 2), ((2, 4, 3, 5, 3), 1), ((7, 3, 3), 2)],
        ids=["wilson", "staggered", "batched-wilson", "batched-staggered",
             "lane-stacked-wilson", "lane-stacked-staggered", "links"],
    )
    def test_bit_identical_to_oracle(self, shape, site_axes, dtype, rng):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        # Site scales spanning 24 decades, exact zeros (both signs) inside
        # nonzero sites, and whole zero sites.
        lead = shape[: len(shape) - site_axes]
        x *= 10.0 ** rng.integers(-12, 13, size=lead + (1,) * site_axes)
        x[rng.random(shape) < 0.1] = 0.0
        x.real[rng.random(shape) < 0.05] = -0.0
        x[(0,) * len(lead)] = 0.0
        x[(-1,) * len(lead)] = 0.0
        x = x.astype(dtype)
        expected = _quantize_half_oracle(x, site_axes=site_axes)
        for leading in (False, True):
            got = _quantize(x, site_axes, leading)
            assert got.dtype == expected.dtype == np.complex64
            assert np.array_equal(got, expected)
            # array_equal treats -0.0 == 0.0; the int16 trip never emits -0.0.
            assert not np.signbit(got.real[got.real == 0]).any()
            assert not np.signbit(got.imag[got.imag == 0]).any()
            assert np.array_equal(
                np.signbit(got.view(np.float32)),
                np.signbit(expected.view(np.float32)),
            )

    def test_nonfinite_sites_propagate_as_max_does(self, rng):
        """The site max is folded in halves, not reduced: the same scale
        at every site of a lane-stacked field, NaN and Inf sites included,
        and no other site disturbed."""
        from repro.precision import _site_max

        shape = (2, 4, 3, 5, 4, 3)  # (batch, lanes, sites..., spin, color)
        x = (rng.standard_normal(shape)
             + 1j * rng.standard_normal(shape)).astype(np.complex64)
        nan_site, inf_site = (0, 1, 2, 3), (1, 3, 0, 0)
        x[nan_site + (1, 0)] = np.nan
        x[inf_site + (3, 2)] = complex(np.inf, 1.0)
        reals = x.view(np.float32).reshape(shape[:-2] + (24,))
        assert np.array_equal(
            _site_max(np.abs(reals)),
            np.abs(reals).max(axis=-1, keepdims=True),
            equal_nan=True,
        )
        clean = x.copy()
        clean[nan_site] = clean[inf_site] = 0.0
        expected = _quantize_half_oracle(clean)
        for leading in (False, True):
            with np.errstate(invalid="ignore"):  # inf / inf at the Inf site
                got = _quantize(x, leading=leading)
            assert np.isnan(got[nan_site + (1, 0)])
            assert not np.isfinite(got[inf_site]).all()
            got[nan_site] = got[inf_site] = 0.0
            assert np.array_equal(got, expected)

    def test_noncontiguous_and_real_inputs(self, rng):
        x = rng.standard_normal((4, 3, 6)) + 1j * rng.standard_normal((4, 3, 6))
        xt = x.transpose(2, 0, 1)  # (6, 4, 3), not C-contiguous
        assert np.array_equal(quantize_half(xt), _quantize_half_oracle(xt))
        assert np.array_equal(quantize_half(x.real), _quantize_half_oracle(x.real))
        # The same field handed over lattice-last without a copy.
        assert np.array_equal(
            quantize_half(x, leading=True).transpose(2, 0, 1),
            _quantize_half_oracle(xt),
        )

    def test_leading_form_of_an_empty_field(self):
        empty = np.zeros((4, 3, 0), dtype=np.complex64)
        assert quantize_half(empty, leading=True).shape == (4, 3, 0)

    def test_precisions_convert_lattice_last(self, rng):
        """``convert(..., leading=True)`` is the same rounding for every
        format: only half looks at the site axes at all."""
        x = rng.standard_normal((4, 3, 5, 6)) + 1j * rng.standard_normal((4, 3, 5, 6))
        for p in (HALF, SINGLE, DOUBLE):
            assert np.array_equal(
                p.convert(x, leading=True),
                np.moveaxis(p.convert(np.moveaxis(x, (0, 1), (-2, -1))),
                            (-2, -1), (0, 1)),
            )


class TestPolicy:
    def test_labels(self):
        assert SINGLE_HALF_HALF.label() == "single-half-half"
        assert DOUBLE_SINGLE.label() == "double-single"

    def test_from_names(self):
        p = PrecisionPolicy("double", "single", "half")
        assert p.outer is DOUBLE and p.inner is SINGLE and p.preconditioner is HALF

    def test_no_preconditioner(self):
        p = PrecisionPolicy(DOUBLE, SINGLE)
        assert p.preconditioner is None
        assert p.label() == "double-single"
