"""Regenerate ``pinned_sim_gcc.json``: the deterministic simulated
stats of every sim-gcc input set.

    python3 perfbench/pin.py

Run it only when a change is meant to alter what the simulator
computes; a change aimed at speed must leave the file as it is.
"""

import json
import os
import sys

import rep


def main() -> int:
    sys.path.insert(0, rep.SRC)
    from repro.experiments.base import memlink_config
    from repro.sim.memlink import MemLinkSimulation

    pins = {}
    for input_set in range(rep.SIM_INPUT_SETS):
        config = memlink_config("default", accesses=rep.SIM_ACCESSES, seed=input_set)
        pins[str(input_set)] = rep.sim_stats(MemLinkSimulation("gcc", config).run())
        print(input_set, pins[str(input_set)], flush=True)
    with open(rep.PINNED, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
