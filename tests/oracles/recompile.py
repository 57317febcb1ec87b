"""Recompile-from-scratch oracle for faulted runs.

:func:`run_faulted_recompile` executes a routed schedule under a fault
timeline the slow, independent way: at every fabric epoch it re-routes the
survivors with the uncached :mod:`repro.faults.reroute` helpers, compiles a
fresh :class:`~repro.simulator.engine.FlowProgram` over them with
``compile_flows`` and fills it through its own event loop.  It shares no
program state, cache or loop with :func:`repro.faults.run_faulted` — only
the model: max-min fair rates, the edge-window completion rule, fault
epochs before completions at equal times, latency from the planned route.
Because the fill kernels never read flow sizes, a recompiled survivor
program fills bit-identically to the delta engine's masked full arena, so
the two agree exactly on rates, rounds and reroutes.

:func:`recompile_oracle` swaps it in for ``run_faulted`` inside the faults
package (and drops the adversarial search's shared prefix, which the
oracle does not use), so plan stages, sweeps and the adversarial search
run on the oracle end to end.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

import repro.faults.adversarial as adversarial
import repro.faults.runner as runner
from repro.constants import SIM_BYTES_EPS, SIM_EPS
from repro.faults import (
    PreparedFaultContext,
    StrandedScheduleError,
    certify_routes,
    effective_path,
    parse_fault_spec,
    surviving_adjacency,
)
from repro.faults.runner import run_faulted
from repro.faults.spec import FaultTimeline
from repro.schedule.ir import LinkSchedule
from repro.simulator import run_routed_collective
from repro.simulator.collective import CollectiveResult
from repro.simulator.engine import (FillWorkspace, FluidFlow, compile_flows,
                                    fill_rates)
from repro.simulator.events import EventQueue
from repro.simulator.fabric import FabricModel

__all__ = ["run_faulted_recompile", "recompile_oracle"]


def run_faulted_recompile(schedule, buffer_bytes, spec, fabric=None,
                          validate=True, max_events=1_000_000,
                          allow_stranded=False, collect_trace=False,
                          baseline_seconds=None, context=None,
                          _prefix=None) -> CollectiveResult:
    """``run_faulted`` with a fresh compile per epoch (same signature).

    ``validate`` and ``collect_trace`` are accepted for signature parity;
    ``_prefix`` is ignored (the oracle always simulates from t=0).
    """
    spec = parse_fault_spec(spec) if isinstance(spec, str) else spec
    if isinstance(schedule, LinkSchedule):
        raise ValueError("fault injection supports routed schedules only")
    if context is not None:
        fabric = context.fabric
    fabric = fabric or FabricModel()
    if baseline_seconds is None:
        baseline_seconds = run_routed_collective(
            schedule, buffer_bytes, fabric=fabric,
            validate=False).completion_time
    if spec.trivial:
        return run_faulted(schedule, buffer_bytes, spec, fabric=fabric,
                           validate=False, baseline_seconds=baseline_seconds)
    context = context or PreparedFaultContext(schedule, fabric)
    topology = schedule.topology
    timeline = FaultTimeline(spec)
    orig_paths = context.orig_paths
    delays = context.delays
    remaining = context.sizes_for(buffer_bytes).astype(float, copy=True)
    active = remaining > SIM_EPS
    completion = np.where(active, 0.0, delays)
    stranded = np.zeros(context.num_flows, dtype=bool)
    current: List[Optional[tuple]] = list(orig_paths)
    queue = EventQueue()
    counters: Dict[str, float] = {"fill_rounds": 0, "reroutes": 0,
                                  "fault_events": 0, "vc_layers": 0,
                                  "stranded_bytes": 0.0}
    # The live survivor program: global ids of its rows, their fill mask,
    # the current rates, the pending edge and the flows it forces done.
    state: Dict[str, object] = {"program": None, "workspace": None,
                                "gids": np.zeros(0, dtype=np.int64),
                                "local": np.zeros(0, dtype=bool),
                                "rates": np.zeros(0), "last": 0.0,
                                "pending": None, "edge": None}

    def integrate() -> None:
        dt = queue.now - state["last"]
        state["last"] = queue.now
        if dt > 0 and state["local"].any():
            local = state["local"]
            live = state["gids"][local]
            remaining[live] -= state["rates"][local] * dt

    def retire() -> None:
        done = active & (remaining <= SIM_BYTES_EPS)
        remaining[done] = 0.0
        completion[done] = queue.now + delays[done]
        active[done] = False
        state["local"] &= active[state["gids"]]

    def refill() -> None:
        if state["pending"] is not None:
            state["pending"].cancel()
        state["pending"] = state["edge"] = None
        local = state["local"]
        if not local.any():
            return
        rates, rounds = fill_rates(state["program"], local, state["workspace"])
        state["rates"] = rates
        counters["fill_rounds"] += rounds
        eligible = local & (rates > SIM_EPS)
        if not eligible.any():
            raise RuntimeError("oracle stalled: live flows have zero rate")
        left = remaining[state["gids"]]
        dt = max(0.0, float(np.min(left[eligible] / rates[eligible])))
        edge = eligible & (left <= rates * (dt * (1.0 + 1e-12)) + SIM_BYTES_EPS)
        state["edge"] = state["gids"][edge]
        state["pending"] = queue.schedule(dt, on_edge)

    def on_edge() -> None:
        forced = state["edge"]
        state["pending"] = state["edge"] = None
        integrate()
        remaining[forced] = 0.0
        retire()
        refill()

    def on_epoch(t: float, initial: bool = False) -> None:
        if not initial:
            counters["fault_events"] += 1
            integrate()
            retire()
        epoch_fabric = timeline.fabric_at(fabric, t, context.edges)
        down = set(epoch_fabric.down_links)
        adjacency = surviving_adjacency(topology, down)
        for i in np.nonzero(active)[0]:
            path = effective_path(orig_paths[i], down, adjacency)
            if path is None:
                if not stranded[i]:
                    counters["stranded_bytes"] += float(remaining[i])
                stranded[i] = True
            else:
                stranded[i] = False
                if path != current[i]:
                    counters["reroutes"] += 1
            current[i] = path
        gids = np.nonzero(active & ~stranded)[0]
        counters["vc_layers"] = max(counters["vc_layers"], certify_routes(
            [current[i] for i in gids], spec.vc))
        state["gids"] = gids
        state["local"] = np.ones(len(gids), dtype=bool)
        if len(gids):
            program = compile_flows(
                topology, [FluidFlow(path=current[i], size_bytes=remaining[i])
                           for i in gids],
                epoch_fabric, include_latency=False)
            state["program"] = program
            state["workspace"] = FillWorkspace(program)
        refill()

    for t in timeline.epochs:
        queue.schedule_at(t, lambda t=t: on_epoch(t))
    on_epoch(0.0, initial=True)
    queue.run(max_events=max_events)

    if active.any():
        stuck = np.nonzero(active)[0]
        if not allow_stranded:
            raise StrandedScheduleError(stuck, float(remaining[stuck].sum()))
        completion_time = float("inf")
    else:
        completion_time = float(completion.max()) if context.num_flows else 0.0
    return CollectiveResult(
        buffer_bytes=buffer_bytes,
        shard_bytes=buffer_bytes / context.num_nodes,
        completion_time=completion_time,
        num_nodes=context.num_nodes,
        schedule_kind="routed",
        meta={"num_flows": context.num_flows,
              "fill_rounds": counters["fill_rounds"],
              "events": queue.processed,
              "fault_events": counters["fault_events"],
              "reroute_count": counters["reroutes"],
              "stranded_bytes": float(counters["stranded_bytes"]),
              "vc_layers": counters["vc_layers"],
              "baseline_seconds": float(baseline_seconds),
              "robustness_slowdown": (completion_time / baseline_seconds
                                      if baseline_seconds > 0
                                      else float("inf")),
              "fault_spec": spec.canonical()},
    )


@contextmanager
def recompile_oracle():
    """Run every faulted simulation in the faults package on the oracle.

    Not thread-safe across *entering* the context; runs inside it may use
    threads (the adversarial search's ``jobs``).
    """
    saved = (runner.run_faulted, adversarial.run_faulted,
             adversarial.capture_fault_prefix)
    runner.run_faulted = run_faulted_recompile
    adversarial.run_faulted = run_faulted_recompile
    adversarial.capture_fault_prefix = lambda *args, **kwargs: None
    try:
        yield
    finally:
        (runner.run_faulted, adversarial.run_faulted,
         adversarial.capture_fault_prefix) = saved
