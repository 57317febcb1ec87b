"""Simulator benchmark: vectorized engine vs. scalar reference fill time.

Simulates a ~1k-flow all-to-all (every commodity of a degree-4 random
regular graph routed along one shortest path, with heterogeneous sizes so
completions spread over many progressive-filling rounds) on the Cerio-like
HPC fabric, once on the vectorized engine
(:func:`repro.simulator.simulate_flows`) and once on the retained scalar
reference (``simulate_flows_reference`` in ``tests/oracles/reference.py``).

Asserted acceptance gates:

* the two implementations agree on every completion time within 1e-9;
* the vectorized engine is at least 5x faster end to end.

Machine-readable output lands in ``results/BENCH_sim.json`` (same schema as
``BENCH_runtime.json``; ``objective`` is the deterministic overall
completion time, so the perf gate also catches semantic drift).  The CI
perf-smoke job uploads it and gates it against
``benchmarks/baseline_sim.json`` via ``check_regression.py``.
"""

import random
import sys
import time
from pathlib import Path

import networkx as nx

from repro.analysis import format_table
from repro.simulator import FluidFlow, cerio_hpc_fabric, simulate_flows
from repro.topology import random_regular

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles.reference import simulate_flows_reference  # noqa: E402

MIN_SPEEDUP = 5.0


def _alltoall_flows(topo, seed=3):
    """One flow per commodity along a shortest path, sizes varying 1..13 x 64KiB."""
    rng = random.Random(seed)
    paths = dict(nx.all_pairs_shortest_path(topo.graph))
    flows = []
    for s in topo.nodes:
        dests = [d for d in topo.nodes if d != s]
        rng.shuffle(dests)
        for k, d in enumerate(dests):
            size = float((k % 13 + 1) * 2 ** 16)
            flows.append(FluidFlow(path=tuple(paths[s][d]), size_bytes=size))
    return flows


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_sim_engine_speedup(record, record_json, scale):
    """1k-flow all-to-all fill: engine >= 5x the scalar reference, same result."""
    n = 64 if scale == "paper" else 32
    topo = random_regular(4, n, seed=3)
    fabric = cerio_hpc_fabric()
    flows = _alltoall_flows(topo)

    fast, engine_seconds = _timed(lambda: simulate_flows(topo, flows, fabric))
    slow, reference_seconds = _timed(
        lambda: simulate_flows_reference(topo, flows, fabric))

    # Differential gate: identical completion times (the engine's reason to
    # exist is speed, not different physics).
    assert abs(fast.completion_time - slow.completion_time) <= 1e-9
    for a, b in zip(fast.flow_completion_times, slow.flow_completion_times):
        assert abs(a - b) <= 1e-9

    speedup = reference_seconds / engine_seconds
    events_per_sec = fast.events_processed / engine_seconds

    series = {
        "engine": {len(flows): {
            "fill_seconds": engine_seconds,
            "events_per_sec": events_per_sec,
            "fill_rounds": fast.fill_rounds,
            "objective": fast.completion_time,
        }},
        "reference": {len(flows): {
            "fill_seconds": reference_seconds,
            "objective": slow.completion_time,
        }},
    }
    record_json("sim", series)
    record("sim", format_table(
        ["implementation", "fill (s)", "events/s", "speedup"],
        [["engine (vectorized)", engine_seconds, events_per_sec, speedup],
         ["reference (scalar)", reference_seconds, "-", 1.0]],
        title=f"Simulator fill: {len(flows)}-flow all-to-all on rrg:d=4,n={n}"))

    assert speedup >= MIN_SPEEDUP, (
        f"vectorized engine only {speedup:.1f}x faster than the scalar "
        f"reference (gate: {MIN_SPEEDUP:.0f}x)")
