"""Integration tests pinning the paper's accuracy claims (Figs. 4 & 7a).

The absolute AbsRel values depend on our procedural scene replicas, but
the *differences* between algorithm variants are the reproduction target:

* Fig. 4a — nearest vs. bilinear voting: max gap ~1.18 % in the paper;
  we allow a small multiple to absorb scene differences.
* Fig. 4b — quantized vs. float: max gap ~1.01 %.
* Fig. 7a — fully reformulated vs. original: max gap ~1.78 %, and on some
  sequences the reformulated pipeline is *better* (the paper sees this on
  the slider sequences) — so the gap is two-sided.
"""

import pytest

from repro.core import EMVSConfig
from repro.core.voting import VotingMethod
from repro.eval import experiments


def run_variant(seq, events, voting, quantized, n_planes=64):
    config = EMVSConfig(n_depth_planes=n_planes, frame_size=1024)
    return experiments.run_variant(seq, events, voting, quantized, config)


@pytest.fixture(scope="module")
def slice_3planes(seq_3planes_fast):
    return seq_3planes_fast.events.time_slice(0.8, 1.2)


@pytest.fixture(scope="module")
def slice_slider(seq_slider_close_fast):
    return seq_slider_close_fast.events.time_slice(0.6, 1.0)


class TestFig4aVotingGap:
    def test_3planes(self, seq_3planes_fast, slice_3planes):
        bil = run_variant(seq_3planes_fast, slice_3planes, VotingMethod.BILINEAR, False)
        near = run_variant(seq_3planes_fast, slice_3planes, VotingMethod.NEAREST, False)
        assert abs(near.absrel - bil.absrel) < 0.03

    def test_slider_close(self, seq_slider_close_fast, slice_slider):
        bil = run_variant(
            seq_slider_close_fast, slice_slider, VotingMethod.BILINEAR, False
        )
        near = run_variant(
            seq_slider_close_fast, slice_slider, VotingMethod.NEAREST, False
        )
        assert abs(near.absrel - bil.absrel) < 0.03


class TestFig4bQuantizationGap:
    def test_3planes(self, seq_3planes_fast, slice_3planes):
        full = run_variant(seq_3planes_fast, slice_3planes, VotingMethod.BILINEAR, False)
        quant = run_variant(seq_3planes_fast, slice_3planes, VotingMethod.BILINEAR, True)
        assert abs(quant.absrel - full.absrel) < 0.03


class TestFig7aEndToEndGap:
    def test_3planes(self, seq_3planes_fast, slice_3planes):
        orig = run_variant(seq_3planes_fast, slice_3planes, VotingMethod.BILINEAR, False)
        reform = run_variant(seq_3planes_fast, slice_3planes, VotingMethod.NEAREST, True)
        assert abs(reform.absrel - orig.absrel) < 0.035

    def test_absolute_band_sane(self, seq_3planes_fast, slice_3planes):
        reform = run_variant(seq_3planes_fast, slice_3planes, VotingMethod.NEAREST, True)
        # Single-digit percent AbsRel, as in the paper's Fig. 7a axis range.
        assert reform.absrel < 0.12
