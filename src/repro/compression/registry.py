"""Named engine construction for experiments and examples.

Experiment modules refer to engines by the names used in the paper's
figures ("cpack", "cpack128", "lbe256", "gzip", "bdi", ...); this
registry turns those names into fresh, independent engine instances so
every simulated link gets its own stream state.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.compression.base import Compressor, ReferenceCompressor
from repro.compression.bdi import BdiCompressor
from repro.compression.cpack import CpackCompressor
from repro.compression.lbe import LbeCompressor
from repro.compression.lzss import LzssCompressor
from repro.compression.oracle import OracleCompressor
from repro.compression.zero import ZeroCompressor

ENGINE_FACTORIES: Dict[str, Callable[[], Compressor]] = {
    "zero": ZeroCompressor,
    "bdi": BdiCompressor,
    "cpack": CpackCompressor,
    "cpack128": lambda: CpackCompressor(dictionary_bytes=128),
    "lbe": lambda: LbeCompressor(window_bytes=256),
    "lbe256": lambda: LbeCompressor(window_bytes=256),
    "gzip": LzssCompressor,
    "oracle": OracleCompressor,
}


def make_engine(name: str) -> Compressor:
    """Create a fresh engine instance by figure name."""
    try:
        factory = ENGINE_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(ENGINE_FACTORIES))
        raise ValueError(f"unknown engine {name!r}; known engines: {known}") from None
    return factory()


def make_reference_engine(name: str) -> ReferenceCompressor:
    """A fresh engine that can be seeded with reference lines (what a
    CABLE endpoint compresses with)."""
    engine = make_engine(name)
    if not isinstance(engine, ReferenceCompressor):
        raise ValueError(f"engine {name!r} cannot be seeded with references")
    return engine
