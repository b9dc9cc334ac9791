"""repro — a reproduction of CABLE (MICRO 2018).

CABLE is a cache-based link encoder: a compression *framework* that uses
the contents of coherent caches as a massive, scalable dictionary for
point-to-point off-chip link compression.

The package layout mirrors the system inventory in DESIGN.md:

- :mod:`repro.util` — bit I/O, word views and deterministic randomness.
- :mod:`repro.compression` — the compression-engine substrate (CPACK, BDI,
  LBE, LZSS/gzip, zero encoding, ORACLE).
- :mod:`repro.cache` — set-associative coherent caches and the inclusive
  home/remote hierarchy.
- :mod:`repro.core` — CABLE itself: signatures, hash table, way-map table,
  search pipeline, payload format, encoder/decoder endpoints,
  synchronization and race handling.
- :mod:`repro.link` — the off-chip link model (flit packing, bit toggles).
- :mod:`repro.trace` — synthetic SPEC2006-like workload generators.
- :mod:`repro.sim` — memory-link, multi-chip and multiprogram
  simulations on one link leg, plus timing, throughput, energy and area
  models.
- :mod:`repro.analysis` — metrics and text-table rendering.
- :mod:`repro.experiments` — one module per paper table/figure.
"""

from repro.core.config import CableConfig
from repro.core.encoder import CableHomeEncoder, CableRemoteDecoder, CableLinkPair

__all__ = [
    "CableConfig",
    "CableHomeEncoder",
    "CableRemoteDecoder",
    "CableLinkPair",
    "__version__",
]

__version__ = "1.0.0"
