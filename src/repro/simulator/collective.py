"""End-to-end execution of all-to-all schedules on the simulated fabric.

This is the substitute for the paper's hardware testbeds: given a schedule
(link-based :class:`LinkSchedule` or path-based :class:`RoutedSchedule`), a
fabric model and a buffer size, it validates the schedule, lowers it to the
unified flow IR, executes it on the vectorized engine and reports the
achieved throughput -- producing the same throughput-vs-buffer-size series as
Fig. 3/4/5.

**Simulate once per schedule.**  Max-min fill rates never read byte counts,
and start-up latency (per flow) or synchronization overhead (per step) is
added after a transfer ends, so every transfer time is proportional to the
shard size.  :func:`collective_profile` therefore runs *one* simulation at
the fixed reference shard
:data:`~repro.constants.SIM_REFERENCE_SHARD_BYTES` and keeps a buffer-free
:class:`CollectiveProfile`; :meth:`CollectiveProfile.at` rescales it to any
buffer.  :func:`run_routed_collective`, :func:`run_link_collective` and
:func:`throughput_sweep` are all ``collective_profile(...).at(buffer)``.

Two regimes lower to the engine:

* **routed** (cut-through) — every chunk assignment becomes one fluid flow
  along its route; flows run concurrently under max-min fair sharing.  A
  flow finishes at ``T_i * s + d_i`` (transfer time per reference shard,
  rescaled, plus its start-up latency) and the collective at their maximum.
* **link** (store-and-forward, tsMCF / TACCL-style) — steps are globally
  synchronized: each step is one fluid system of single-hop flows, one per
  loaded link, carrying that link's aggregate bytes, with link, injection
  *and* ejection caps as shared resources (host injection caps both the
  send and the receive side).  A step lasts

      per_step_latency + per_message_overhead / num_channels
      + fluid completion of the step's link flows

  and the collective is the sum over steps.  When the fabric is not
  injection-limited the fluid completion is exactly
  ``max_over_links(bytes / link_bandwidth)``, the classic closed form.

The ``overlap`` axis runs several copies of the collective concurrently on
the same fabric (one flow set per copy); results then carry per-collective
completion times in ``meta["per_collective_seconds"]`` and the headline
``completion_time`` is the last copy's finish.  Link-schedule copies share
every step, so they all finish together.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..constants import SIM_REFERENCE_SHARD_BYTES
from ..schedule.ir import LinkSchedule, RoutedSchedule
from ..schedule.validate import validate_link_schedule, validate_routed_schedule
from .engine import FluidFlow, compile_flows, execute, simulate_program
from .fabric import FabricModel

__all__ = ["CollectiveProfile", "CollectiveResult", "collective_profile",
           "run_link_collective", "run_routed_collective", "throughput_sweep"]


@dataclass
class CollectiveResult:
    """Result of running one all-to-all collective at one buffer size."""

    buffer_bytes: float          # total per-node buffer (N shards)
    shard_bytes: float           # m = buffer / N
    completion_time: float       # seconds
    num_nodes: int
    schedule_kind: str
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """All-to-all throughput ``(N - 1) * m / T`` in bytes/second (§2.2).

        With overlap, ``completion_time`` is the *last* copy's finish, so
        this is the per-collective throughput under contention.
        """
        if self.completion_time <= 0:
            return float("inf")
        return (self.num_nodes - 1) * self.shard_bytes / self.completion_time

    @property
    def per_collective_seconds(self) -> List[float]:
        """Completion time of each overlapping copy (single entry without overlap)."""
        times = self.meta.get("per_collective_seconds")
        return list(times) if times else [self.completion_time]


@dataclass(frozen=True)
class CollectiveProfile:
    """One buffer-free simulation of a schedule, rescalable to any buffer.

    Entries are per flow (``routed``) or per step (``link``):
    ``transfer_seconds`` is the transfer time at
    :data:`~repro.constants.SIM_REFERENCE_SHARD_BYTES`, ``fixed_seconds``
    the size-independent time added after it (start-up latency of a flow;
    synchronization overhead of a loaded step, zero for an empty one).
    Routed profiles also keep each flow's overlap copy (``set_ids``) and
    the busiest link's load at the reference shard (``max_link_bytes``).
    ``fill_rounds`` and ``events`` are the work the one simulation took —
    the same work a simulation at any positive buffer takes.
    """

    schedule_kind: str
    num_nodes: int
    overlap: int
    transfer_seconds: np.ndarray
    fixed_seconds: np.ndarray
    fill_rounds: int
    events: int
    set_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    max_link_bytes: float = 0.0

    def at(self, buffer_bytes: float) -> CollectiveResult:
        """The collective's result at a total per-node buffer size."""
        shard = buffer_bytes / self.num_nodes
        scale = shard / SIM_REFERENCE_SHARD_BYTES
        times = self.fixed_seconds + self.transfer_seconds * scale
        # A zero buffer leaves every flow empty: nothing enters the fill.
        rounds, events = (self.fill_rounds, self.events) if shard > 0 else (0, 0)
        if self.schedule_kind == "link":
            step_times = times.tolist()
            completion = sum(step_times)
            meta: Dict[str, object] = {
                "step_times": step_times, "num_steps": len(step_times),
                "fill_rounds": rounds, "events": events}
            per_copy = [completion] * self.overlap
        else:
            completion = float(times.max()) if len(times) else 0.0
            meta = {"num_flows": len(times),
                    "max_link_bytes": self.max_link_bytes * scale,
                    "fill_rounds": rounds, "events": events}
            per_set = np.zeros(self.overlap)
            np.maximum.at(per_set, self.set_ids, times)
            per_copy = per_set.tolist()
        if self.overlap > 1:
            meta["per_collective_seconds"] = per_copy
        return CollectiveResult(buffer_bytes=buffer_bytes, shard_bytes=shard,
                                completion_time=completion,
                                num_nodes=self.num_nodes,
                                schedule_kind=self.schedule_kind, meta=meta)


def collective_profile(schedule: Union[LinkSchedule, RoutedSchedule],
                       fabric: Optional[FabricModel] = None,
                       overlap: int = 1,
                       num_channels: int = 1) -> CollectiveProfile:
    """Simulate a schedule once, at the reference shard (no validation).

    ``num_channels`` (link schedules only) models parallel channels on
    disjoint chunk halves: they share the links, so only the per-message
    overhead is divided among them.
    """
    if overlap < 1:
        raise ValueError(f"overlap must be >= 1, got {overlap}")
    if isinstance(schedule, RoutedSchedule):
        return _routed_profile(schedule, fabric, overlap)
    if isinstance(schedule, LinkSchedule):
        return _link_profile(schedule, fabric or FabricModel(nic_forwarding=False),
                             overlap, num_channels)
    raise TypeError(f"unsupported schedule type {type(schedule)!r}")


def _copy_names(overlap: int) -> tuple:
    return tuple(f"copy{c}" for c in range(overlap))


def _routed_profile(schedule: RoutedSchedule, fabric: Optional[FabricModel],
                    overlap: int) -> CollectiveProfile:
    topo = schedule.topology
    flows: List[FluidFlow] = []
    set_ids: List[int] = []
    for copy in range(overlap):
        for a in schedule.assignments:
            flows.append(FluidFlow(path=a.route,
                                   size_bytes=a.chunk.bytes(SIM_REFERENCE_SHARD_BYTES),
                                   tag=(copy, a.chunk.source, a.chunk.destination)))
            set_ids.append(copy)
    program = compile_flows(topo, flows, fabric, set_ids=set_ids,
                            set_names=_copy_names(overlap))
    # Run without start-up delays so each completion is the bare transfer
    # time; the delays are added back per buffer in CollectiveProfile.at.
    sim = execute(replace(program, start_delays=np.zeros(program.num_flows)))
    return CollectiveProfile(
        schedule_kind="routed", num_nodes=topo.num_nodes, overlap=overlap,
        transfer_seconds=np.asarray(sim.flow_completion_times, dtype=float),
        fixed_seconds=program.start_delays,
        fill_rounds=sim.fill_rounds, events=sim.events_processed,
        set_ids=program.set_ids, max_link_bytes=program.max_link_bytes)


def _link_profile(schedule: LinkSchedule, fabric: FabricModel, overlap: int,
                  num_channels: int) -> CollectiveProfile:
    topo = schedule.topology
    overhead = fabric.per_step_latency + fabric.per_message_overhead / max(num_channels, 1)
    transfer: List[float] = []
    fixed: List[float] = []
    fill_rounds = events = 0
    for step in range(1, schedule.num_steps + 1):
        link_bytes = schedule.link_bytes(step, SIM_REFERENCE_SHARD_BYTES)
        if not link_bytes:
            transfer.append(0.0)
            fixed.append(0.0)
            continue
        # One single-hop flow per (copy, loaded link); forwarding caps do not
        # apply to single-hop transfers, so only link/injection/ejection
        # resources constrain the step.
        flows = []
        set_ids = []
        for copy in range(overlap):
            for (u, v), nbytes in link_bytes.items():
                flows.append(FluidFlow(path=(u, v), size_bytes=nbytes,
                                       tag=(copy, u, v)))
                set_ids.append(copy)
        sim = simulate_program(topo, flows, fabric, set_ids=set_ids,
                               set_names=_copy_names(overlap),
                               include_latency=False, include_ejection=True)
        fill_rounds += sim.fill_rounds
        events += sim.events_processed
        transfer.append(sim.completion_time)
        fixed.append(overhead)
    return CollectiveProfile(
        schedule_kind="link", num_nodes=topo.num_nodes, overlap=overlap,
        transfer_seconds=np.array(transfer), fixed_seconds=np.array(fixed),
        fill_rounds=fill_rounds, events=events)


def run_link_collective(schedule: LinkSchedule, buffer_bytes: float,
                        fabric: Optional[FabricModel] = None,
                        validate: bool = True,
                        num_channels: int = 1,
                        overlap: int = 1) -> CollectiveResult:
    """Execute a link-based schedule for a total per-node buffer size."""
    if validate:
        validate_link_schedule(schedule)
    return collective_profile(schedule, fabric, overlap=overlap,
                              num_channels=num_channels).at(buffer_bytes)


def run_routed_collective(schedule: RoutedSchedule, buffer_bytes: float,
                          fabric: Optional[FabricModel] = None,
                          validate: bool = True,
                          overlap: int = 1) -> CollectiveResult:
    """Execute a path-based schedule for a total per-node buffer size.

    With ``overlap > 1`` each copy contributes its own flow set and completes
    independently (the per-copy times land in the result's meta).
    """
    if validate:
        validate_routed_schedule(schedule)
    return collective_profile(schedule, fabric, overlap=overlap).at(buffer_bytes)


def throughput_sweep(schedule: Union[LinkSchedule, RoutedSchedule],
                     buffer_sizes: Sequence[float],
                     fabric: Optional[FabricModel] = None,
                     validate_first: bool = True,
                     num_channels: int = 1,
                     overlap: int = 1) -> List[CollectiveResult]:
    """Run the schedule across a sweep of buffer sizes (the Fig. 3/4 x-axis).

    The schedule is validated once and simulated once; every buffer point
    is a rescaling of that one profile.
    """
    if not len(buffer_sizes):
        return []
    if validate_first:
        if isinstance(schedule, LinkSchedule):
            validate_link_schedule(schedule)
        elif isinstance(schedule, RoutedSchedule):
            validate_routed_schedule(schedule)
    profile = collective_profile(schedule, fabric, overlap=overlap,
                                 num_channels=num_channels)
    return [profile.at(buf) for buf in buffer_sizes]
