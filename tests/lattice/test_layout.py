"""Field memory layout (Figs. 2-3)."""

import pytest

from repro.lattice import Geometry
from repro.lattice.layout import FieldLayout, gauge_layout, spinor_layout


@pytest.fixture(scope="module")
def geom():
    return Geometry((8, 8, 8, 16))


class TestSpinorLayout:
    def test_body_is_half_volume(self, geom):
        lay = spinor_layout(geom)
        assert lay.body_sites == geom.volume // 2
        assert lay.body_reals == 24 * geom.volume // 2

    def test_staggered_reals(self, geom):
        assert spinor_layout(geom, nspin=1).reals_per_site == 6

    def test_no_ghosts_when_unpartitioned(self, geom):
        lay = spinor_layout(geom)
        assert lay.ghost_segments() == []
        assert lay.ghost_reals == 0
        assert lay.ghost_fraction == 0.0

    def test_ghosts_only_for_partitioned_dims(self, geom):
        """"Allocation of ghost zones ... only takes place when that
        dimension is partitioned"."""
        lay = spinor_layout(geom, partitioned=(2, 3))
        dims = {s.mu for s in lay.ghost_segments()}
        assert dims == {2, 3}
        assert len(lay.ghost_segments()) == 4  # two faces per dim

    def test_ghosts_packed_after_body_and_pad(self, geom):
        lay = spinor_layout(geom, partitioned=(3,), pad_sites=16)
        segs = lay.ghost_segments()
        assert segs[0].offset_reals == lay.body_reals + lay.pad_reals
        assert segs[1].offset_reals == segs[0].end

    def test_segments_non_overlapping_and_exhaustive(self, geom):
        lay = spinor_layout(geom, partitioned=(0, 1, 2, 3))
        segs = lay.ghost_segments()
        for a, b in zip(segs, segs[1:]):
            assert b.offset_reals == a.end
        assert segs[-1].end == lay.total_reals

    def test_face_sites_per_parity(self, geom):
        lay = spinor_layout(geom, partitioned=(3,))
        # T face of 8x8x8x16: 8^3 sites, half per parity.
        assert lay.ghost_face_sites(3) == 8**3 // 2

    def test_depth3_ghosts_triple(self, geom):
        d1 = spinor_layout(geom, nspin=1, partitioned=(3,), ghost_depth=1)
        d3 = spinor_layout(geom, nspin=1, partitioned=(3,), ghost_depth=3)
        assert d3.ghost_reals == 3 * d1.ghost_reals

    def test_total_bytes_by_precision(self, geom):
        single = spinor_layout(geom, partitioned=(3,), precision_name="single")
        half = spinor_layout(geom, partitioned=(3,), precision_name="half")
        assert single.total_bytes == 2 * half.total_bytes

    def test_segment_lookup(self, geom):
        lay = spinor_layout(geom, partitioned=(1, 3))
        seg = lay.segment_for(3, +1)
        assert seg.mu == 3 and seg.sign == +1
        with pytest.raises(KeyError):
            lay.segment_for(0, +1)

    def test_ghost_fraction_grows_with_partitioning(self, geom):
        f1 = spinor_layout(geom, partitioned=(3,)).ghost_fraction
        f4 = spinor_layout(geom, partitioned=(0, 1, 2, 3)).ghost_fraction
        assert f4 > f1 > 0


class TestGaugeLayout:
    def test_reals_per_site(self, geom):
        assert gauge_layout(geom, reconstruct=18).reals_per_site == 72
        assert gauge_layout(geom, reconstruct=12).reals_per_site == 48

    def test_matches_halo_message_sizes(self, geom):
        """Cross-check against the real halo engine: one exchanged spinor
        face (both parities) carries exactly 2x the per-parity ghost
        segment, in the working precision."""
        from repro.comm import ProcessGrid
        from repro.lattice import SpinorField
        from repro.multigpu import BlockPartition, HaloExchanger
        from repro.trace import tracing

        part = BlockPartition(geom, ProcessGrid((1, 1, 1, 2)))
        ex = HaloExchanger(part, depth=1)
        with tracing() as tr:
            ex.exchange_spinor(part.split(SpinorField.random(geom, rng=1).data))
        sends = [ev for ev in tr.events if ev.name == "send"]
        per_message = sends[0].args["nbytes"]
        lay = spinor_layout(
            part.local_geometry, partitioned=(3,), precision_name="double"
        )
        expected = 2 * lay.segment_for(3, +1).length_reals * 8
        assert per_message == expected
