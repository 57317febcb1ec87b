"""Fill-kernel benchmark: JIT CSR kernel vs the vectorized numpy fallback.

Times raw :func:`repro.simulator.engine.fill_rates` throughput on the same
992-flow all-to-all program as ``bench_sim.py`` (every commodity of a
degree-4 random regular graph on 32 nodes, Cerio-like HPC fabric), driving
each kernel through one shared :class:`~repro.perf.FillWorkspace` across a
deterministic sequence of active-flow masks — the exact shape of the
engine's per-event refills.

Asserted acceptance gates:

* every kernel's rates agree with the numpy path within 1e-9 and the full
  simulation agrees with the scalar ``tests/oracles/reference.py`` oracle within 1e-9;
* with numba installed, the JIT kernel is at least 5x faster than the
  numpy path (skipped, not failed, where numba is absent — the fallback
  is the point of the auto-selection).

Machine-readable output lands in ``results/BENCH_kernel.json``
(``objective`` is the deterministic simulated completion time).  The CI
``perf-kernels`` job uploads it and gates it against
``benchmarks/baseline_kernel.json`` via ``check_regression.py``; the
committed baseline carries the numpy series only, so the numba series
reports as a new (ungated) entry on runners that have the compiler.
"""

import random
import sys
import time
from pathlib import Path

import networkx as nx
import numpy as np

from repro.analysis import format_table
from repro.perf import (
    FillWorkspace,
    fill_rates_csr,
    fill_rates_numpy,
    numba_available,
    set_fill_kernel,
)
from repro.simulator import (
    FluidFlow,
    cerio_hpc_fabric,
    compile_flows,
    simulate_flows,
)
from repro.topology import random_regular

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles.reference import simulate_flows_reference  # noqa: E402

MIN_JIT_SPEEDUP = 5.0
FILL_REPS = 30


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


def _active_masks(num_flows, reps):
    """Deterministic shrinking active sets, like execute() between events."""
    rng = random.Random(17)
    masks = []
    active = np.ones(num_flows, dtype=bool)
    for _ in range(reps):
        masks.append(active.copy())
        done = rng.sample(range(num_flows), max(1, num_flows // (2 * reps)))
        active = active.copy()
        active[done] = False
    return masks


def _time_fills(fill, program, masks):
    """Total seconds for one pass over ``masks`` with a shared workspace."""
    workspace = FillWorkspace(program)
    fill(program, masks[0], workspace)  # warm-up (JIT compile, caches)
    start = time.perf_counter()
    rounds = 0
    for mask in masks:
        _, r = fill(program, mask, workspace)
        rounds += r
    return time.perf_counter() - start, rounds


def test_fill_kernel_throughput(record, record_json, scale):
    """992-flow fill throughput: numba >= 5x numpy; all kernels agree."""
    n = 64 if scale == "paper" else 32
    topo = random_regular(4, n, seed=3)
    fabric = cerio_hpc_fabric()
    flows = _alltoall_flows(topo)
    program = compile_flows(topo, flows, fabric)
    masks = _active_masks(program.num_flows, FILL_REPS)

    # Differential gate across kernels on every mask (copies: the shared
    # workspace reuses the rate buffer).
    check_ws = FillWorkspace(program)
    for mask in masks[:: max(1, FILL_REPS // 6)]:
        base, base_rounds = fill_rates_numpy(program, mask)
        csr, csr_rounds = fill_rates_csr(program, mask, check_ws)
        np.testing.assert_allclose(csr, base, rtol=1e-9, atol=1e-9)
        assert csr_rounds == base_rounds

    numpy_seconds, numpy_rounds = _time_fills(fill_rates_numpy, program, masks)
    series = {
        "numpy": {program.num_flows: {
            "fill_seconds": numpy_seconds,
            "fills_per_sec": len(masks) / numpy_seconds,
            "fill_rounds": numpy_rounds,
            "objective": 0.0,  # filled below from the simulation
        }},
    }
    rows = [["numpy (vectorized)", numpy_seconds,
             len(masks) / numpy_seconds, 1.0]]

    speedup = None
    if numba_available():
        numba_seconds, numba_rounds = _time_fills(
            fill_rates_csr, program, masks)
        assert numba_rounds == numpy_rounds
        speedup = numpy_seconds / numba_seconds
        series["numba"] = {program.num_flows: {
            "fill_seconds": numba_seconds,
            "fills_per_sec": len(masks) / numba_seconds,
            "fill_rounds": numba_rounds,
            "objective": 0.0,
        }}
        rows.insert(0, ["numba (JIT CSR)", numba_seconds,
                        len(masks) / numba_seconds, speedup])

    # End-to-end agreement with the scalar oracle under each kernel; the
    # deterministic completion time is the recorded objective.
    reference = simulate_flows_reference(topo, flows, fabric)
    for kernel in series:
        set_fill_kernel(kernel)
        try:
            sim = simulate_flows(topo, flows, fabric)
        finally:
            set_fill_kernel(None)
        assert abs(sim.completion_time - reference.completion_time) <= 1e-9
        for a, b in zip(sim.flow_completion_times,
                        reference.flow_completion_times):
            assert abs(a - b) <= 1e-9
        series[kernel][program.num_flows]["objective"] = sim.completion_time

    record_json("kernel", series)
    record("kernel", format_table(
        ["kernel", f"{len(masks)} fills (s)", "fills/s", "speedup vs numpy"],
        rows,
        title=(f"Fill kernel: {program.num_flows}-flow all-to-all on "
               f"rrg:d=4,n={n} (numba "
               f"{'available' if numba_available() else 'absent'})")))

    if speedup is not None:
        assert speedup >= MIN_JIT_SPEEDUP, (
            f"JIT fill kernel only {speedup:.1f}x faster than numpy "
            f"(gate: {MIN_JIT_SPEEDUP:.0f}x)")
