#!/usr/bin/env python3
"""Profile the encode hot path under cProfile.

Runs one memory-link simulation (default: mcf/cable at the ``default``
scale preset — the same regime the figure benchmarks use) and prints
the top functions by the chosen sort key. This is the tool that guided
the kernels layer: run it before and after touching anything under
``repro/util/kernels.py``, ``repro/core/signature.py`` or the
compressors, and check the per-line primitives have not crept back up
the profile.

Usage::

    python tools/profile_hotpath.py
    python tools/profile_hotpath.py --benchmark omnetpp --scheme lbe
    python tools/profile_hotpath.py --accesses 20000 --sort cumtime --top 40
    python tools/profile_hotpath.py --output /tmp/hotpath.prof
"""

from __future__ import annotations

import argparse
import cProfile
import pathlib
import pstats
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.base import SCALES, memlink_config  # noqa: E402
from repro.sim.memlink import MemLinkSimulation  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default="mcf", help="workload profile name")
    parser.add_argument("--scheme", default="cable", help="link scheme to simulate")
    parser.add_argument(
        "--scale",
        default="default",
        choices=sorted(SCALES),
        help="scale preset (accesses + cache sizes)",
    )
    parser.add_argument(
        "--accesses", type=int, default=None, help="override the preset's accesses"
    )
    parser.add_argument(
        "--sort",
        default="tottime",
        choices=["tottime", "cumtime", "ncalls"],
        help="pstats sort key",
    )
    parser.add_argument("--top", type=int, default=25, help="rows to print")
    parser.add_argument(
        "--output",
        default=None,
        help="also dump raw profile data here (for snakeviz/pstats)",
    )
    args = parser.parse_args(argv)

    overrides = {"scheme": args.scheme}
    if args.accesses is not None:
        overrides["accesses"] = args.accesses
    config = memlink_config(args.scale, **overrides)
    simulation = MemLinkSimulation(args.benchmark, config)

    profiler = cProfile.Profile()
    profiler.enable()
    simulation.run()
    profiler.disable()

    if args.output:
        profiler.dump_stats(args.output)
        print(f"raw profile written to {args.output}")
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
