"""Unified vectorized fluid simulation engine: one core for all regimes.

Every simulation regime in :mod:`repro.simulator` — cut-through flow sets
(:mod:`.flowsim`) and whole collectives, routed or stepped
(:mod:`.collective`) — lowers to the same flow IR and runs on this engine:

1. **compile** — :func:`compile_flows` turns a flow set into a
   :class:`FlowProgram`: flows, links, injection caps and forwarding caps
   become sparse resource-incidence arrays (COO triplets plus per-resource
   capacities, built once per schedule);
2. **fill** — progressive filling (max-min fairness) dispatches through
   the :mod:`repro.perf` kernel layer: a flat-CSR kernel JIT-compiled with
   numba when available, or vectorized numpy saturation rounds otherwise
   (per round, one ``bincount`` yields every resource's unfrozen-user
   count, the minimum fair share picks the bottleneck(s), and all their
   flows freeze at that rate).  ``REPRO_KERNEL`` selects explicitly;
   scratch arenas live in a :class:`~repro.perf.fillkernel.FillWorkspace`
   reused across fills;
3. **drive** — :class:`FluidDriver` advances from completion edge to
   completion edge through the :class:`~repro.simulator.events.EventQueue`
   scheduler, re-filling incrementally over the surviving flows only.  It
   is the one simulation loop: :func:`execute` runs a static program on
   it, and the fault runner (:mod:`repro.faults.runner`) and the cluster
   co-simulator (:mod:`repro.cluster.runner`) are event sources that
   mutate a :class:`~repro.perf.delta.DeltaProgram` between its fills.

Max-min fair allocations are unique, so freezing *all* minimum-share
resources per round is exactly equivalent to the classic one-bottleneck-
per-iteration formulation (kept, interpreter-bound, in
:mod:`.reference` for differential testing); the two implementations agree
to float round-off.

Flows carry a *flow-set id* so multiple collectives can share the fabric in
one simulation (the overlap axis): :class:`EngineResult` reports a
completion time per flow set alongside the overall one.  Degraded fabrics
(per-link bandwidth scaling, link-down sets on
:class:`~repro.simulator.fabric.FabricModel`) enter through the per-link
capacities at compile time; a flow crossing a down link is a compile error.

Engine-wide counters (fill rounds, completion events, simulations) are kept
for the ``[stats]`` footer; read them with :func:`engine_counters`.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..constants import SIM_BYTES_EPS, SIM_EPS
from ..perf.delta import DeltaProgram
from ..perf.fillkernel import FillWorkspace, run_fill
from ..topology.base import Edge, Topology
from .events import Event, EventQueue
from .fabric import FabricModel

__all__ = ["FluidFlow", "FlowProgram", "EngineResult", "FillWorkspace",
           "FluidDriver", "DriverSnapshot",
           "compile_flows", "execute", "fill_rates", "simulate_program",
           "engine_counters", "record_simulation", "record_fault_events",
           "reset_engine_counters"]


@dataclass
class FluidFlow:
    """One fluid flow: ``size_bytes`` to move along ``path`` (node sequence)."""

    path: Tuple[int, ...]
    size_bytes: float
    tag: object = None

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError("flow path needs at least two nodes")
        if self.size_bytes < 0:
            raise ValueError("flow size must be non-negative")

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return tuple(zip(self.path[:-1], self.path[1:]))

    @property
    def hops(self) -> int:
        return len(self.path) - 1


# --------------------------------------------------------------------------- #
# Engine-wide counters (surfaced in the CLI's [stats] footer)
# --------------------------------------------------------------------------- #
_counters: Dict[str, object] = {"fill_rounds": 0, "events": 0,
                                "simulations": 0, "fill_seconds": 0.0,
                                "kernel": "", "fabric_events": 0,
                                "reroutes": 0,
                                "compile_seconds": 0.0,
                                "reroute_seconds": 0.0,
                                "delta_hits": 0, "delta_rebuilds": 0,
                                "route_cache_hits": 0,
                                "route_cache_misses": 0}
_counters_lock = threading.Lock()


def engine_counters() -> Dict[str, object]:
    """Cumulative simulator counters: fill rounds/seconds, events, runs.

    ``kernel`` names the fill kernel used by the most recent fill
    (``numba``, ``numpy`` or ``python-csr``); ``fill_seconds`` accumulates
    wall time inside :func:`fill_rates` across the process.
    ``fabric_events``/``reroutes`` count mid-run fabric mutations and flow
    re-steers credited by the fault runner (:mod:`repro.faults.runner`);
    ``compile_seconds``/``reroute_seconds`` split that runner's per-epoch
    program-targeting and repair/certification wall time out of
    ``fill_seconds``; ``delta_hits``/``delta_rebuilds`` count fabric epochs
    the delta engine (:mod:`repro.perf.delta`) absorbed in place versus
    arena reallocations, and ``route_cache_hits``/``route_cache_misses``
    track the shared reroute/certification cache.
    """
    with _counters_lock:
        return dict(_counters)


def reset_engine_counters() -> None:
    """Zero the cumulative counters (tests and benchmarks)."""
    with _counters_lock:
        _counters.update(fill_rounds=0, events=0, simulations=0,
                         fill_seconds=0.0, kernel="", fabric_events=0,
                         reroutes=0, compile_seconds=0.0, reroute_seconds=0.0,
                         delta_hits=0, delta_rebuilds=0, route_cache_hits=0,
                         route_cache_misses=0)


def record_simulation(fill_rounds: int, events: int) -> None:
    """Credit one simulation's fill rounds and events to the engine counters.

    :meth:`FluidDriver.run` calls this once per run, so every simulator
    built on the driver shows up in the same ``[stats]`` footer.
    """
    with _counters_lock:
        _counters["fill_rounds"] += fill_rounds
        _counters["events"] += events
        _counters["simulations"] += 1


def record_fault_events(fabric_events: int, reroutes: int,
                        compile_seconds: float = 0.0,
                        reroute_seconds: float = 0.0,
                        delta_hits: int = 0, delta_rebuilds: int = 0,
                        route_cache_hits: int = 0,
                        route_cache_misses: int = 0) -> None:
    """Credit fabric mutations / flow re-steers to the engine counters.

    Called by the fault runner after each faulted execution so the
    ``[stats]`` footer shows dynamic-failure work next to fill rounds,
    including the per-phase timing split (program targeting vs
    repair/certification) and the delta-engine / reroute-cache tallies.
    """
    with _counters_lock:
        _counters["fabric_events"] += fabric_events
        _counters["reroutes"] += reroutes
        _counters["compile_seconds"] += compile_seconds
        _counters["reroute_seconds"] += reroute_seconds
        _counters["delta_hits"] += delta_hits
        _counters["delta_rebuilds"] += delta_rebuilds
        _counters["route_cache_hits"] += route_cache_hits
        _counters["route_cache_misses"] += route_cache_misses


# --------------------------------------------------------------------------- #
# Flow IR
# --------------------------------------------------------------------------- #
@dataclass
class FlowProgram:
    """A compiled flow set: sizes, latencies and resource incidence.

    ``inc_res``/``inc_flow`` are parallel COO arrays — entry ``k`` says flow
    ``inc_flow[k]`` consumes resource ``inc_res[k]`` — and ``res_cap`` holds
    every resource's capacity in bytes/second (links first, then optional
    per-node injection and forwarding resources).  Built once per schedule;
    :func:`execute` only masks completed flows between fills.
    """

    num_flows: int
    sizes: np.ndarray                     # (F,) bytes
    start_delays: np.ndarray              # (F,) seconds of start-up latency
    set_ids: np.ndarray                   # (F,) flow-set (collective) index
    set_names: Tuple[str, ...]            # flow-set index -> display name
    res_cap: np.ndarray                   # (R,) bytes/second
    inc_res: np.ndarray                   # (NNZ,) resource index
    inc_flow: np.ndarray                  # (NNZ,) flow index
    max_link_bytes: float = 0.0           # busiest link's total byte load
    total_bytes: float = 0.0
    meta: Dict[str, object] = field(default_factory=dict)


def compile_flows(topology: Topology, flows: Sequence[FluidFlow],
                  fabric: Optional[FabricModel] = None,
                  set_ids: Optional[Sequence[int]] = None,
                  set_names: Optional[Sequence[str]] = None,
                  include_latency: bool = True,
                  include_ejection: bool = False) -> FlowProgram:
    """Lower a flow set to a :class:`FlowProgram`.

    Resources mirror the scalar reference exactly: one per directed link
    (capacity = ``cap * effective_link_bandwidth``), one per source node when
    the fabric is injection-limited, one per intermediate node when it
    defines a forwarding cap.  ``include_latency=False`` zeroes the per-flow
    start delays (the step simulator accounts latency per step instead).
    ``include_ejection=True`` additionally caps each flow's *destination*
    node at the injection bandwidth — the store-and-forward regime, where
    received bytes cross the host-NIC boundary too.
    """
    fabric = fabric or FabricModel()
    n = len(flows)
    down = set(fabric.down_links)
    edges = topology.edges
    edge_index = {e: i for i, e in enumerate(edges)}
    num_links = len(edges)
    num_nodes = topology.num_nodes

    link_bw = fabric.link_bandwidths(edges)
    link_cap = np.array(
        [topology.capacity(u, v) * link_bw[(u, v)] for u, v in edges], dtype=float)
    max_deg = topology.max_degree()
    injection_capped = fabric.injection_limited(max_deg)
    fwd_cap = fabric.forwarding_bandwidth

    caps = [link_cap]
    inj_base = num_links
    if injection_capped:
        caps.append(np.full(num_nodes, fabric.effective_injection(max_deg)))
    fwd_base = num_links + (num_nodes if injection_capped else 0)
    if fwd_cap is not None:
        caps.append(np.full(num_nodes, float(fwd_cap)))
    ej_base = fwd_base + (num_nodes if fwd_cap is not None else 0)
    ejection_capped = include_ejection and injection_capped
    if ejection_capped:
        caps.append(np.full(num_nodes, fabric.effective_injection(max_deg)))
    res_cap = np.concatenate(caps) if len(caps) > 1 else link_cap

    inc_res: List[int] = []
    inc_flow: List[int] = []
    link_load = np.zeros(num_links)
    for fid, flow in enumerate(flows):
        for e in flow.edges:
            if e in down:
                raise ValueError(
                    f"flow {fid} (path {flow.path}) crosses down link {e}; "
                    "re-synthesize the schedule for the degraded fabric or "
                    "drop the affected flows")
            idx = edge_index.get(e)
            if idx is None:
                raise ValueError(f"flow {fid} uses non-existent link {e}")
            inc_res.append(idx)
            inc_flow.append(fid)
            link_load[idx] += flow.size_bytes
        if injection_capped:
            inc_res.append(inj_base + flow.path[0])
            inc_flow.append(fid)
        if fwd_cap is not None:
            for node in flow.path[1:-1]:
                inc_res.append(fwd_base + node)
                inc_flow.append(fid)
        if ejection_capped:
            inc_res.append(ej_base + flow.path[-1])
            inc_flow.append(fid)

    if include_latency:
        delays = np.array([fabric.per_message_overhead + f.hops * fabric.per_hop_latency
                           for f in flows], dtype=float)
    else:
        delays = np.zeros(n)
    ids = (np.zeros(n, dtype=np.int64) if set_ids is None
           else np.asarray(list(set_ids), dtype=np.int64))
    if len(ids) != n:
        raise ValueError(f"set_ids length {len(ids)} != number of flows {n}")
    names = tuple(set_names) if set_names is not None else (
        tuple(f"set{i}" for i in range(int(ids.max()) + 1)) if n else ())

    return FlowProgram(
        num_flows=n,
        sizes=np.array([float(f.size_bytes) for f in flows]),
        start_delays=delays,
        set_ids=ids,
        set_names=names,
        res_cap=res_cap,
        inc_res=np.asarray(inc_res, dtype=np.int64),
        inc_flow=np.asarray(inc_flow, dtype=np.int64),
        max_link_bytes=float(link_load.max()) if num_links and n else 0.0,
        total_bytes=float(sum(f.size_bytes for f in flows)),
    )


# --------------------------------------------------------------------------- #
# Progressive filling (dispatched to the repro.perf kernel layer)
# --------------------------------------------------------------------------- #
def fill_rates(program: FlowProgram, active: np.ndarray,
               workspace: Optional[FillWorkspace] = None
               ) -> Tuple[np.ndarray, int]:
    """Max-min fair rates for the active flows via the selected fill kernel.

    Dispatches through :func:`repro.perf.fillkernel.run_fill` — the numba
    CSR kernel when available (``REPRO_KERNEL`` overrides), the vectorized
    numpy saturation rounds otherwise.  With a ``workspace`` (built once
    per program) scratch arenas *and the returned rate vector* are reused
    across calls; callers that keep rates past the next fill must copy
    them.  Returns the rate vector and the number of saturation rounds
    (the footer's ``fill_rounds`` counter); wall time and the kernel name
    accumulate in :func:`engine_counters`.
    """
    t0 = time.perf_counter()
    rates, rounds, kernel = run_fill(program, active, workspace)
    elapsed = time.perf_counter() - t0
    with _counters_lock:
        _counters["fill_seconds"] += elapsed
        _counters["kernel"] = kernel
    return rates, rounds


# --------------------------------------------------------------------------- #
# The fluid driver: the one integrate / retire / refill / schedule loop
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DriverSnapshot:
    """A :class:`FluidDriver`'s fluid state at one instant (arrays copied).

    ``remaining`` is as of ``last``, the instant the current rates took
    effect, and ``edge_at`` / ``edge_mask`` describe the pending completion
    edge, so a restored driver integrates and fires exactly the float
    expressions an uninterrupted one would.
    """

    now: float
    last: float
    fill_rounds: int
    events: int
    remaining: np.ndarray
    active: np.ndarray
    parked: np.ndarray
    completion: np.ndarray
    rates: np.ndarray
    edge_at: Optional[float]
    edge_mask: Optional[np.ndarray]


class FluidDriver:
    """The fluid simulation loop, shared by every simulator in the package.

    Owns the :class:`~repro.simulator.events.EventQueue`, the per-flow
    ``remaining`` / ``active`` / ``completion`` arrays, the current rates
    and the pending *completion edge*: the next instant a flow runs dry.
    Between edges the rates are constant, so the state only changes at
    events.  Callers that mutate the simulation mid-run (fabric epochs,
    job arrivals, phase barriers) are event sources: they schedule their
    own callbacks on :attr:`queue`, and each callback does
    :meth:`advance` → mutate → :meth:`refill`.  Events at equal times fire
    in scheduling order, so a caller event scheduled before the edge it
    collides with fires first.

    **Completion rule.**  At every refill the flows whose residual bytes
    drain within the edge window — ``remaining <= rates * dt * (1 + 1e-12)
    + SIM_BYTES_EPS`` — are marked, and they are forced done when that edge
    itself fires.  Without the window a flow finishing less than one float
    ulp after the edge would respawn an edge that never advances the clock;
    a refill before the edge (a mutation) cancels the edge and drops its
    mask.  Retired flows complete at ``now + delay``: the start-up latency
    lands after the transfer, without holding bandwidth meanwhile.

    ``program`` is either a static :class:`FlowProgram` (a plain run) or a
    :class:`~repro.perf.delta.DeltaProgram` whose fabric or flow set the
    caller edits between fills; fills always read its current views.
    ``sizes`` / ``delays`` override the program's per-flow bytes and
    start-up latencies.  ``parked`` masks *stranded* flows out of the fill
    without retiring them.  ``on_retire(ids)`` is called with the flow ids
    each retirement completes, after their completion times are stamped.
    Engine-wide counters are credited once per :meth:`run`.
    """

    def __init__(self, program: Union[FlowProgram, DeltaProgram],
                 sizes: Optional[np.ndarray] = None,
                 delays: Optional[np.ndarray] = None,
                 on_retire: Optional[Callable[[np.ndarray], None]] = None
                 ) -> None:
        if isinstance(program, DeltaProgram):
            self.delta: Optional[DeltaProgram] = program
            self._static: Optional[Tuple[FlowProgram, FillWorkspace]] = None
            program = program.program
        else:
            self.delta = None
            self._static = (program, FillWorkspace(program))
        self.queue = EventQueue()
        self.on_retire = on_retire
        sizes = program.sizes if sizes is None else sizes
        self.delays = program.start_delays if delays is None else delays
        self.remaining = np.asarray(sizes, dtype=float).copy()
        self.active = self.remaining > SIM_EPS
        self.parked = np.zeros(len(self.remaining), dtype=bool)
        self.completion = np.where(self.active, 0.0, self.delays)
        self.rates = np.zeros(len(self.remaining))
        self.last = 0.0
        self.fill_rounds = 0
        self._edge_at: Optional[float] = None
        self._edge_mask: Optional[np.ndarray] = None
        self._edge: Optional[Event] = None
        self._compacting = False
        self._credited = (0, 0)

    @property
    def events(self) -> int:
        """Events processed on :attr:`queue` (caller events included)."""
        return self.queue.processed

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #
    def advance(self) -> None:
        """Integrate the current rates up to now and retire drained flows."""
        self._integrate()
        self._retire()

    def _integrate(self) -> None:
        # Every flow outside the last fill's live set has rate zero (a fill
        # pins inactive flows to zero and an empty refill zeroes the rates),
        # so draining the whole array moves only live flows; rows retired
        # since the fill are never read again.
        dt = self.queue.now - self.last
        self.last = self.queue.now
        if dt > 0:
            self.remaining -= self.rates * dt

    def _retire(self) -> None:
        done = self.active & (self.remaining <= SIM_BYTES_EPS)
        if not done.any():
            return
        self.remaining[done] = 0.0
        self.completion[done] = self.queue.now + self.delays[done]
        self.active[done] = False
        if self.on_retire is not None:
            self.on_retire(np.nonzero(done)[0])

    def refill(self) -> None:
        """Re-fill over the live flows and schedule the next completion edge."""
        self._integrate()
        if self._edge is not None:
            self._edge.cancel()
        self._edge = self._edge_at = self._edge_mask = None
        if self._compacting:
            self._compact()
        live = self.active & ~self.parked
        if not live.any():
            self.rates = np.zeros(len(live))
            return
        program, workspace = self._static or (self.delta.program,
                                              self.delta.workspace)
        rates, rounds = fill_rates(program, live, workspace)
        self.rates = rates
        self.fill_rounds += rounds
        eligible = live & (rates > SIM_EPS)
        if not eligible.any():
            raise RuntimeError(
                "fluid simulation stalled: active flows have zero rate "
                "(a resource is fully saturated by completed flows?)")
        dt = max(0.0, float(np.min(self.remaining[eligible] / rates[eligible])))
        self._edge_mask = eligible & (
            self.remaining <= rates * (dt * (1.0 + 1e-12)) + SIM_BYTES_EPS)
        self._edge = self.queue.schedule(dt, self._on_edge)
        self._edge_at = self._edge.time

    def _on_edge(self) -> None:
        mask = self._edge_mask
        self._edge = self._edge_at = self._edge_mask = None
        self._integrate()
        self.remaining[mask] = 0.0
        self._retire()
        self.refill()

    def run(self, until: Optional[float] = None,
            max_events: int = 1_000_000) -> None:
        """Fire events until the queue drains, or until just before ``until``.

        With ``until`` every event strictly earlier than it fires and the
        clock then stands at ``until``: an event *at* ``until`` is left for
        a later :meth:`run` (or a restored driver), where a caller event
        scheduled for that instant still fires before the edge.  Credits
        the engine counters with the work done since the last credit.
        """
        if self._edge_at is not None and self._edge is None:
            self._edge = self.queue.schedule_at(self._edge_at, self._on_edge)
        horizon = None if until is None else math.nextafter(until, -math.inf)
        try:
            self.queue.run(until=horizon, max_events=max_events)
        except RuntimeError as exc:
            raise RuntimeError("fluid simulation did not converge") from exc
        if until is not None and until > self.queue.now:
            self.queue.now = until
        rounds, events = self._credited
        record_simulation(self.fill_rounds - rounds, self.events - events)
        self._credited = (self.fill_rounds, self.events)

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #
    def inject(self, flows: Sequence[FluidFlow], name: str) -> int:
        """Append a flow set to the live program; returns its set id.

        Needs a :class:`~repro.perf.delta.DeltaProgram`.  The new flows
        are active at once; follow with :meth:`advance` (zero-byte flows
        retire at injection) and :meth:`refill`.  A driver that injects
        compacts its retired rows lazily, so flow ids are only stable in
        drivers that never inject.
        """
        set_id = self.delta.append(flows, name)
        batch = self.delta.program
        k = len(flows)
        self.remaining = np.concatenate([self.remaining, batch.sizes[-k:]])
        self.active = np.concatenate([self.active, np.ones(k, dtype=bool)])
        self.parked = np.concatenate([self.parked, np.zeros(k, dtype=bool)])
        self.completion = np.concatenate([self.completion, np.zeros(k)])
        self.delays = np.concatenate([self.delays, batch.start_delays[-k:]])
        self.rates = np.concatenate([self.rates, np.zeros(k)])
        self._compacting = True
        return set_id

    def _compact(self) -> None:
        """Drop retired rows from the program and the per-flow arrays."""
        keep = self.active
        if not self.delta.compact(keep):
            return
        for name in ("remaining", "parked", "completion", "delays", "rates"):
            setattr(self, name, getattr(self, name)[keep])
        self.active = self.active[keep]

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def snapshot(self) -> DriverSnapshot:
        """The fluid state now (see :class:`DriverSnapshot`)."""
        return DriverSnapshot(
            now=self.queue.now, last=self.last, fill_rounds=self.fill_rounds,
            events=self.events, remaining=self.remaining.copy(),
            active=self.active.copy(), parked=self.parked.copy(),
            completion=self.completion.copy(), rates=self.rates.copy(),
            edge_at=self._edge_at,
            edge_mask=(None if self._edge_mask is None
                       else self._edge_mask.copy()))

    def restore(self, snap: DriverSnapshot) -> None:
        """Resume from ``snap`` on a fresh driver over an equivalent program.

        Caller events are not part of the snapshot: schedule them again
        after restoring.  The pending edge is re-armed when :meth:`run`
        starts, after them, so the event order matches a run whose caller
        events were scheduled up front; the counters credit only the work
        done after the snapshot.
        """
        self.queue.now = snap.now
        self.queue.processed = snap.events
        self.last = snap.last
        self.fill_rounds = snap.fill_rounds
        self._credited = (snap.fill_rounds, snap.events)
        for name in ("remaining", "active", "parked", "completion", "rates"):
            setattr(self, name, getattr(snap, name).copy())
        self._edge_at = snap.edge_at
        self._edge_mask = (None if snap.edge_mask is None
                           else snap.edge_mask.copy())


@dataclass
class EngineResult:
    """Outcome of executing one :class:`FlowProgram`."""

    completion_time: float
    flow_completion_times: List[float]
    set_completion_times: Dict[str, float]
    fill_rounds: int
    events_processed: int
    max_link_bytes: float
    total_bytes: float


def execute(program: FlowProgram, max_events: int = 1_000_000) -> EngineResult:
    """Run a compiled program to completion on the :class:`FluidDriver`.

    Rates are re-filled only when a completion edge fires, and only over
    the surviving flows; zero-byte flows complete after their start-up
    latency without entering the fill at all.
    """
    driver = FluidDriver(program)
    driver.refill()
    driver.run(max_events=max_events)
    completion = driver.completion
    set_times: Dict[str, float] = {}
    for idx, name in enumerate(program.set_names):
        members = program.set_ids == idx
        if members.any():
            set_times[name] = float(completion[members].max())
    return EngineResult(
        completion_time=float(completion.max()) if program.num_flows else 0.0,
        flow_completion_times=[float(t) for t in completion],
        set_completion_times=set_times,
        fill_rounds=driver.fill_rounds,
        events_processed=driver.events,
        max_link_bytes=program.max_link_bytes,
        total_bytes=program.total_bytes,
    )


def simulate_program(topology: Topology, flows: Sequence[FluidFlow],
                     fabric: Optional[FabricModel] = None,
                     set_ids: Optional[Sequence[int]] = None,
                     set_names: Optional[Sequence[str]] = None,
                     include_latency: bool = True,
                     include_ejection: bool = False,
                     max_events: int = 1_000_000) -> EngineResult:
    """Compile and execute in one call (the common front-end path)."""
    program = compile_flows(topology, flows, fabric, set_ids=set_ids,
                            set_names=set_names, include_latency=include_latency,
                            include_ejection=include_ejection)
    return execute(program, max_events=max_events)
