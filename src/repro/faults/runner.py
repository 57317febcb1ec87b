"""Event-driven execution of a schedule under timed fabric faults.

:func:`run_faulted` executes one routed collective while the fabric mutates
underneath it.  It is an event source for the shared
:class:`~repro.simulator.engine.FluidDriver`: fault epochs are scheduled on
the driver's queue, and every fabric epoch

1. advances the fluid state to the epoch instant (integrate and retire);
2. materializes the epoch's effective fabric
   (:meth:`~repro.faults.spec.FaultTimeline.fabric_at`) and recomputes each
   survivor's route — original route if still clear, deterministic BFS
   repair otherwise, *stranded* (parked out of the fill) if disconnected
   (:mod:`.reroute`);
3. re-targets the compiled program at the epoch state and certifies the
   active route set deadlock-free through LASH / DF-SSSP;
4. re-fills over the survivors, which schedules the next completion edge.

Step 3 is incremental (:mod:`repro.perf.delta`): the full flow set is
compiled once per context and each epoch patches capacities and rerouted
incidence slots in place, with repairs and certifications memoized in the
context's :class:`~repro.faults.context.RerouteCache`; epochs that change
no route skip compilation entirely.  A full program under an active mask
is the same fill as a compacted survivor program — the fill kernels never
read flow sizes — and the test suite pins it to a recompile-from-scratch
oracle and to a hand-stitched sequence of piecewise-static runs at 1e-9.

Between epochs the run *is* the driver: max-min fair rates, completion
edges, latency stamped after the transfer.  Completion latency always uses
the flow's **originally planned** route (the repair happens mid-flight; the
planned-path latency was already committed), so a zero-fault spec
reproduces the plain engine byte-for-byte.

Two fault events at the same timestamp fire in spec-canonical order inside
one epoch; a fault epoch colliding with a completion edge fires *first*
(epoch events are scheduled before any completion, and the queue breaks
time ties by insertion order — see :class:`~repro.simulator.events.Event`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..schedule.ir import LinkSchedule, RoutedSchedule
from ..schedule.validate import validate_routed_schedule
from ..simulator.collective import CollectiveResult, run_routed_collective
from ..simulator.engine import (DriverSnapshot, FluidDriver,
                                record_fault_events)
from ..simulator.fabric import FabricModel
from .context import PreparedFaultContext
from .spec import FaultSpec, FaultTimeline, parse_fault_spec

__all__ = ["StrandedScheduleError", "FaultPrefix", "capture_fault_prefix",
           "run_faulted", "run_faulted_sweep"]

Path = Tuple[int, ...]


class StrandedScheduleError(RuntimeError):
    """Raised when flows stay disconnected past the last fault epoch."""

    def __init__(self, flow_ids: Sequence[int], stranded_bytes: float) -> None:
        self.flow_ids = tuple(int(i) for i in flow_ids)
        self.stranded_bytes = float(stranded_bytes)
        super().__init__(
            f"{len(self.flow_ids)} flow(s) permanently stranded "
            f"({self.stranded_bytes:.0f} residual bytes): the failure set "
            "disconnects their endpoints and no recovery event follows; "
            "pass allow_stranded=True to measure anyway")


@dataclass
class _EpochRecord:
    """Per-epoch trace entry for the incidence-check tests."""

    time: float
    down: Tuple[Tuple[int, int], ...]
    paths: Dict[int, Path]            # live flow id -> route in force
    stranded: Tuple[int, ...]


@dataclass
class FaultPrefix:
    """Fluid state at an instant of the *pre-fault* (healthy) timeline.

    Every candidate of an adversarial search evolves identically until the
    strike instant — same fabric, same fills, same completions — so the
    search captures this state once (:func:`capture_fault_prefix`) and each
    evaluation resumes from it instead of re-simulating the shared prefix.
    """

    at: float                          # capture instant (= first epoch time)
    vc: str                            # certification policy captured with
    vc_layers: int                     # layers certified at the t=0 epoch
    state: DriverSnapshot              # the driver, run up to ``at``


def _driver(context: PreparedFaultContext, buffer_bytes: float) -> FluidDriver:
    """A fluid driver over a fresh clone of the context's delta program."""
    return FluidDriver(context.delta_program(),
                       sizes=context.sizes_for(buffer_bytes),
                       delays=context.delays)


def capture_fault_prefix(context: PreparedFaultContext, buffer_bytes: float,
                         at_seconds: float, vc: str = "lash") -> FaultPrefix:
    """Run the healthy prefix of a faulted run up to ``at_seconds``.

    The driver starts exactly as :func:`run_faulted`'s t=0 epoch does on
    the base fabric, runs every event before ``at_seconds`` and is
    snapshotted there, so a run resumed from the returned prefix is
    bit-identical to one simulated from t=0.
    """
    driver = _driver(context, buffer_bytes)
    layers = 0
    if driver.active.any():
        live = np.nonzero(driver.active)[0]
        layers, _ = context.reroute_cache.certify(
            [context.orig_paths[i] for i in live], vc)
        driver.delta.apply(context.fabric, context.orig_paths)
        driver.refill()
    driver.run(until=at_seconds)
    return FaultPrefix(at=float(at_seconds), vc=vc, vc_layers=layers,
                       state=driver.snapshot())


def run_faulted(schedule: RoutedSchedule, buffer_bytes: float,
                spec: Union[FaultSpec, str],
                fabric: Optional[FabricModel] = None,
                validate: bool = True,
                max_events: int = 1_000_000,
                allow_stranded: bool = False,
                collect_trace: bool = False,
                baseline_seconds: Optional[float] = None,
                context: Optional[PreparedFaultContext] = None,
                _prefix: Optional[FaultPrefix] = None) -> CollectiveResult:
    """Execute a routed schedule under a fault timeline at one buffer size.

    ``baseline_seconds`` (the zero-fault completion time on the same base
    fabric) backs the ``robustness_slowdown`` metric; when omitted it is
    computed with one extra plain engine run.  ``allow_stranded=True``
    records permanently stranded flows as an infinite completion instead of
    raising (the adversarial search treats disconnection as the worst
    outcome); ``collect_trace=True`` stores per-epoch routes and down sets
    in ``meta["epoch_trace"]`` for the differential tests.  ``context`` is
    a :class:`~repro.faults.context.PreparedFaultContext` for this schedule
    and fabric — pass one when running the schedule repeatedly so the
    hoisted arrays, compiled delta template and reroute caches are shared;
    ``_prefix`` resumes from a :func:`capture_fault_prefix` snapshot whose
    capture instant equals the first epoch (adversarial search internal).
    """
    if isinstance(spec, str):
        spec = parse_fault_spec(spec)
    if isinstance(schedule, LinkSchedule):
        raise ValueError(
            "fault injection supports routed (path-based) schedules only; "
            "LinkSchedule steps are globally synchronized and cannot be "
            "rerouted mid-step — use a cut-through scheme (e.g. mcf-extp)")
    if validate:
        validate_routed_schedule(schedule)
    if context is not None:
        if context.schedule is not schedule:
            raise ValueError("context was prepared for a different schedule")
        if fabric is not None and fabric != context.fabric:
            raise ValueError("context was prepared for a different fabric")
        fabric = context.fabric

    if baseline_seconds is None:
        baseline_seconds = run_routed_collective(
            schedule, buffer_bytes, fabric=fabric,
            validate=False).completion_time

    if spec.trivial:
        # Literal delegation: a no-op fault timeline must be byte-identical
        # to today's engine output, so it *is* today's engine.
        result = run_routed_collective(schedule, buffer_bytes, fabric=fabric,
                                       validate=False)
        result.meta.update(
            robustness_slowdown=(result.completion_time / baseline_seconds
                                 if baseline_seconds > 0 else 1.0),
            baseline_seconds=float(baseline_seconds),
            reroute_count=0, stranded_bytes=0.0, fault_events=0,
            vc_layers=0, fault_spec=spec.canonical())
        return result

    fabric = fabric or FabricModel()
    if context is None:
        context = PreparedFaultContext(schedule, fabric)
    timeline = FaultTimeline(spec)
    if _prefix is not None and (_prefix.vc != spec.vc or not timeline.epochs
                                or timeline.epochs[0] != _prefix.at):
        raise ValueError(
            "fault prefix does not match the spec timeline "
            "(capture instant must equal the first epoch)")
    edges = context.edges
    orig_paths = context.orig_paths
    cache = context.reroute_cache
    driver = _driver(context, buffer_bytes)
    current_paths: List[Optional[Path]] = list(orig_paths)
    counters = {"reroutes": 0, "stranded_bytes": 0.0,
                "fault_events": 0, "vc_layers": 0,
                "compile_seconds": 0.0, "reroute_seconds": 0.0,
                "delta_hits": 0, "delta_rebuilds": 0,
                "route_cache_hits": 0, "route_cache_misses": 0}
    trace: List[_EpochRecord] = []

    def _apply_route(i: int, new_path: Optional[Path]) -> None:
        """Credit one flow's epoch route decision into the run state."""
        if new_path is None:
            if not driver.parked[i]:
                driver.parked[i] = True
                counters["stranded_bytes"] += float(driver.remaining[i])
            current_paths[i] = None
        else:
            driver.parked[i] = False
            if new_path != current_paths[i]:
                counters["reroutes"] += 1
            current_paths[i] = new_path

    def _on_epoch(t: float, initial: bool = False) -> None:
        """A fabric epoch: advance, reroute, re-target the program, refill."""
        if not initial:
            counters["fault_events"] += 1
            driver.advance()
        epoch_fabric = timeline.fabric_at(fabric, t, edges)
        t0 = time.perf_counter()
        down_key = epoch_fabric.down_links
        down = set(down_key)
        for i in np.nonzero(driver.active)[0]:
            new_path, hit = cache.effective(down_key, down, orig_paths[i])
            counters["route_cache_hits" if hit else "route_cache_misses"] += 1
            _apply_route(i, new_path)
        live_ids = np.nonzero(driver.active & ~driver.parked)[0]
        layers, hit = cache.certify([current_paths[i] for i in live_ids],
                                    spec.vc)
        if spec.vc != "off":
            counters["route_cache_hits" if hit else "route_cache_misses"] += 1
        counters["vc_layers"] = max(counters["vc_layers"], layers)
        counters["reroute_seconds"] += time.perf_counter() - t0
        if collect_trace:
            trace.append(_EpochRecord(
                time=t, down=tuple(sorted(down)),
                paths={int(i): current_paths[i] for i in live_ids},
                stranded=tuple(int(i) for i in
                               np.nonzero(driver.parked & driver.active)[0])))
        t0 = time.perf_counter()
        if len(live_ids):
            rebuilds = driver.delta.apply(epoch_fabric, current_paths)
            if rebuilds:
                counters["delta_rebuilds"] += rebuilds
            else:
                counters["delta_hits"] += 1
        counters["compile_seconds"] += time.perf_counter() - t0
        driver.refill()

    if _prefix is not None:
        driver.restore(_prefix.state)
        counters["vc_layers"] = _prefix.vc_layers
    # Fabric epochs are scheduled before any completion edge is armed, so
    # an epoch colliding with a completion instant fires first.
    for t in timeline.epochs:
        driver.queue.schedule_at(t, lambda t=t: _on_epoch(t))
    if _prefix is None:
        _on_epoch(0.0, initial=True)   # fold t=0 events into the start state
    driver.run(max_events=max_events)
    record_fault_events(
        counters["fault_events"], counters["reroutes"],
        compile_seconds=counters["compile_seconds"],
        reroute_seconds=counters["reroute_seconds"],
        delta_hits=counters["delta_hits"],
        delta_rebuilds=counters["delta_rebuilds"],
        route_cache_hits=counters["route_cache_hits"],
        route_cache_misses=counters["route_cache_misses"])

    if driver.active.any():
        stuck = np.nonzero(driver.active)[0]
        if not allow_stranded:
            raise StrandedScheduleError(
                stuck, float(driver.remaining[stuck].sum()))
        completion_time = float("inf")
    else:
        completion_time = (float(driver.completion.max())
                           if context.num_flows else 0.0)

    meta: Dict[str, object] = {
        "num_flows": context.num_flows,
        "fill_rounds": driver.fill_rounds,
        "events": driver.events,
        "fault_events": counters["fault_events"],
        "reroute_count": counters["reroutes"],
        "stranded_bytes": float(counters["stranded_bytes"]),
        "vc_layers": counters["vc_layers"],
        "baseline_seconds": float(baseline_seconds),
        "robustness_slowdown": (completion_time / baseline_seconds
                                if baseline_seconds > 0 else float("inf")),
        "fault_spec": spec.canonical(),
        "delta_hits": counters["delta_hits"],
        "delta_rebuilds": counters["delta_rebuilds"],
        "route_cache_hits": counters["route_cache_hits"],
        "route_cache_misses": counters["route_cache_misses"],
        "compile_seconds": counters["compile_seconds"],
        "reroute_seconds": counters["reroute_seconds"],
    }
    if collect_trace:
        meta["epoch_trace"] = trace
    return CollectiveResult(
        buffer_bytes=buffer_bytes,
        shard_bytes=buffer_bytes / context.num_nodes,
        completion_time=completion_time,
        num_nodes=context.num_nodes,
        schedule_kind="routed",
        meta=meta,
    )


def run_faulted_sweep(schedule: Union[RoutedSchedule, LinkSchedule],
                      buffer_sizes: Sequence[float],
                      spec: Union[FaultSpec, str],
                      fabric: Optional[FabricModel] = None,
                      validate_first: bool = True,
                      max_events: int = 1_000_000) -> List[CollectiveResult]:
    """Run the faulted schedule across a buffer sweep (simulate-stage entry).

    The schedule is validated once and one
    :class:`~repro.faults.context.PreparedFaultContext` backs every buffer
    point, so the per-flow arrays, compiled delta template and reroute
    caches are built once for the whole sweep.  The zero-fault baseline is
    still computed per buffer point so every result carries its own
    ``robustness_slowdown``.
    """
    if isinstance(spec, str):
        spec = parse_fault_spec(spec)
    context = (PreparedFaultContext(schedule, fabric)
               if isinstance(schedule, RoutedSchedule) else None)
    results: List[CollectiveResult] = []
    for i, buf in enumerate(buffer_sizes):
        results.append(run_faulted(
            schedule, buf, spec, fabric=fabric,
            validate=validate_first and i == 0,
            max_events=max_events, context=context))
    return results
