"""Regenerate ``pins.json``: the concurrent-flow pins the benchmark checks.

Every LP scenario any seed can produce is pinned: the fixed topologies
and every member of the seeded ``rrg:d=3,n=16`` pool (see
``workloads.py``); that pool's ``sssp`` flows are pinned too, so the worker-process sweep is checked against an in-process
run.  Pins are regression pins: they record what the program computes, and
a later change that moves an optimum by more than 1e-9 relative fails the
benchmark's output check.  Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_pins.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import (DYNAMIC_TOPOLOGY, RRG16_POOL, SIM_GENKAUTZ,  # noqa: E402
                       SIM_RRG, SWEEP_SCHEMES, rrg16_spec)

FIXED = [("genkautz:d=4,n=64", "mcf-extp"), ("hypercube:dim=6", "mcf-extp"),
         ("genkautz:d=4,n=16", "tsmcf"), (SIM_GENKAUTZ, "mcf-extp"),
         (SIM_RRG, "mcf-extp"), (DYNAMIC_TOPOLOGY, "mcf-extp")]


def pinned_scenarios():
    yield from FIXED
    for i in range(RRG16_POOL):
        for scheme in SWEEP_SCHEMES:
            yield rrg16_spec(i), scheme


def main() -> int:
    from repro.experiments import Plan, Scenario

    pins = {}
    for topology, scheme in pinned_scenarios():
        result = Plan(Scenario(topology=topology, scheme=scheme)).run("synthesize")
        pins[f"{topology}|{scheme}"] = result.concurrent_flow
        print(f"{topology}|{scheme} {result.concurrent_flow!r}", file=sys.stderr)
    with open(os.path.join(HERE, "pins.json"), "w") as fh:
        json.dump({"concurrent_flow": pins}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
