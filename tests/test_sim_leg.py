"""The one link leg every simulator builds its link through."""

import pytest

from repro.experiments.base import SCALES, memlink_config
from repro.experiments.fig13 import multichip_config
from repro.link.channel import LinkModel
from repro.sim import leg
from repro.sim.memlink import MemLinkSimulation
from repro.sim.multichip import MultiChipSimulation
from repro.sim.multiprogram import run_multiprogram


class _CodecBuilt(Exception):
    """Stops a simulator once its first stream codec is built."""


@pytest.fixture
def gzip_windows(monkeypatch):
    """Windows the stream codecs are built with, in build order."""
    windows = []

    def record(self, scheme, verify, window_bytes=None, line_bytes=64):
        windows.append((scheme, window_bytes))
        raise _CodecBuilt

    monkeypatch.setattr(leg.StreamCodec, "__init__", record)
    return windows


@pytest.mark.parametrize(
    "preset, window", [("smoke", 1024), ("default", 2048), ("paper", 8192)]
)
def test_gzip_window_same_across_simulators(preset, window, gzip_windows):
    """memlink and multiprogram scale gzip's window against the paper's
    1MB per-thread LLC, multichip against Fig 13's 4× per-node LLC:
    at every preset all three build the same window."""
    with pytest.raises(_CodecBuilt):
        MemLinkSimulation("gcc", memlink_config(preset, scheme="gzip"))
    with pytest.raises(_CodecBuilt):
        MultiChipSimulation("gcc", multichip_config(preset).scaled(scheme="gzip"))
    with pytest.raises(_CodecBuilt):
        run_multiprogram(("gcc", "povray"), scheme="gzip", preset=SCALES[preset])
    assert gzip_windows == [("gzip", window)] * 3


def test_gzip_window_rule():
    assert leg.gzip_window(32 * 1024, 1024 * 1024) == 1024
    assert leg.gzip_window(1024, 1024 * 1024) == 1024  # floor
    assert leg.gzip_window(1024 * 1024, 1024 * 1024) is None
    assert leg.gzip_window(2 * 1024 * 1024, 1024 * 1024) is None


def test_link_counts_add():
    link = LinkModel()  # 16-bit flits
    counts = leg.LinkCounts()
    counts.add(link, leg.LegRecord("fill", 0, bytes(64), 100))
    counts.add(link, leg.LegRecord("writeback", 64, bytes(64), 33, overhead_bits=20))
    assert (counts.transfers, counts.writebacks) == (2, 1)
    assert (counts.raw_bits, counts.payload_bits, counts.overhead_bits) == (
        1024,
        133,
        20,
    )
    # ceil(100/16) + ceil(33/16) + ceil(20/16): overhead is its own flits.
    assert counts.flits == 7 + 3 + 2
    assert counts.raw_flits == 64
    assert counts.effective_ratio == 64 / 12
    assert counts.raw_ratio == 1024 / 133
    assert leg.LinkCounts().effective_ratio == leg.LinkCounts().raw_ratio == 1.0
