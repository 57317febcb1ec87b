"""Multi-job cluster co-simulation on the unified fluid engine.

:func:`run_cluster` executes a trace of jobs — each a barrier-separated
sequence of compute and all-to-all comm phases — over one synthesized
routed schedule, with every live comm phase's flows max-min fair sharing
the fabric.  The trace is an event source for the shared
:class:`~repro.simulator.engine.FluidDriver`: arrivals and phase barriers
are events on the driver's queue, a comm phase injects its flow set into
the driver's :class:`~repro.perf.delta.DeltaProgram`, and the driver's
retirement callback closes the set when its last flow completes.

Reported metrics:

- **per-job slowdown** — ``(finish - arrival) / isolated_seconds``, where
  the isolated time runs the same placed flows alone on the same fabric
  through the single-collective engine (so a lone job has slowdown 1.0 to
  float round-off);
- **makespan** — last finish minus first arrival;
- **fabric utilization** — time-weighted mean link utilization:
  bytes x links-crossed delivered, over total link capacity x makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..perf.delta import DeltaProgram
from ..schedule.ir import LinkSchedule, RoutedSchedule
from ..schedule.validate import validate_routed_schedule
from ..simulator.engine import FluidDriver, FluidFlow, compile_flows, execute
from ..simulator.fabric import FabricModel
from .job import CommPhase, ComputePhase, jobs_from_spec
from .placement import place_route, placement_permutation
from .trace import ClusterSpec, parse_cluster_spec

__all__ = ["JobResult", "ClusterResult", "run_cluster"]


@dataclass(frozen=True)
class JobResult:
    """Outcome of one job: timing, slowdown and its phase spans.

    ``phase_spans`` lists ``(kind, start, end)`` per executed phase
    (``kind`` is ``"compute"`` or ``"comm"``), in order — consecutive
    spans never overlap, which is the barrier property tests assert.
    """

    job_id: int
    name: str
    arrival: float
    finish: float
    isolated_seconds: float
    slowdown: float
    phase_spans: Tuple[Tuple[str, float, float], ...]

    @property
    def completion_seconds(self) -> float:
        """Wall-clock the job spent in the system (finish - arrival)."""
        return self.finish - self.arrival


@dataclass
class ClusterResult:
    """Outcome of one cluster co-simulation run."""

    jobs: List[JobResult]
    makespan_seconds: float
    fabric_utilization: float
    fill_rounds: int
    events: int
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def slowdowns(self) -> List[float]:
        """Per-job slowdown factors, in job order."""
        return [j.slowdown for j in self.jobs]


def _isolated_comm(topology, flows, fabric) -> Tuple[float, float]:
    """One comm phase run alone: completion seconds and link-byte load.

    The completion time is the engine differential behind the slowdown
    metric; the load (bytes x links crossed) feeds fabric utilization.
    """
    program = compile_flows(topology, flows, fabric)
    on_links = program.inc_res < len(topology.edges)
    link_bytes = float(program.sizes[program.inc_flow[on_links]].sum())
    return execute(program).completion_time, link_bytes


def run_cluster(schedule: Union[RoutedSchedule, LinkSchedule],
                spec: Union[ClusterSpec, str],
                fabric: Optional[FabricModel] = None,
                default_buffer: Optional[float] = None,
                validate: bool = True,
                max_events: int = 1_000_000) -> ClusterResult:
    """Co-simulate a multi-job trace over one synthesized schedule.

    ``spec`` is a :class:`ClusterSpec` or a ``cluster:...`` spec string;
    ``default_buffer`` backs the trace's ``buffer=`` field when absent.
    Only routed (path-based) schedules are supported: link schedules are
    globally step-synchronized, so their steps cannot interleave across
    independently-arriving jobs.
    """
    if isinstance(spec, str):
        spec = parse_cluster_spec(spec)
    if isinstance(schedule, LinkSchedule):
        raise ValueError(
            "cluster co-simulation supports routed (path-based) schedules "
            "only; LinkSchedule steps are globally synchronized and cannot "
            "interleave across jobs — use a cut-through scheme "
            "(e.g. mcf-extp)")
    if validate:
        validate_routed_schedule(schedule)
    topology = schedule.topology
    n = topology.num_nodes
    fabric = fabric or FabricModel()
    jobs = jobs_from_spec(spec, default_buffer=default_buffer)

    # Placed flow template per job (route, bytes), reused every round, and
    # the per-job isolated comm time and link load (cached per distinct
    # placement).
    templates: Dict[int, List[Tuple[Tuple[int, ...], float]]] = {}
    isolated: Dict[int, Tuple[float, float]] = {}
    iso_cache: Dict[Tuple[Tuple[int, ...], float], Tuple[float, float]] = {}
    for job in jobs:
        perm = placement_permutation(spec.placement, job.job_id, n,
                                     spec.jobs, spec.seed)
        buffer = next(p.buffer_bytes for p in job.phases
                      if isinstance(p, CommPhase))
        shard = buffer / n
        template = [(place_route(a.route, perm, topology),
                     a.chunk.bytes(shard)) for a in schedule.assignments]
        templates[job.job_id] = template
        key = (perm, float(buffer))
        if key not in iso_cache:
            flows = [FluidFlow(path=path, size_bytes=size)
                     for path, size in template]
            iso_cache[key] = _isolated_comm(topology, flows, fabric)
        isolated[job.job_id] = iso_cache[key]

    job_by_id = {job.job_id: job for job in jobs}
    phase_index = {job.job_id: 0 for job in jobs}
    comm_round = {job.job_id: 0 for job in jobs}
    spans: Dict[int, List[List[object]]] = {job.job_id: [] for job in jobs}
    finish: Dict[int, float] = {}
    # set id -> [job_id, flows outstanding, max completion time seen]
    set_state: Dict[int, List[object]] = {}
    link_bytes = 0.0              # bytes x links crossed, over every injection

    def _on_retire(ids) -> None:
        """Close the comm phases whose last flow just completed."""
        set_ids = driver.delta.set_ids
        for i in ids:
            entry = set_state[int(set_ids[i])]
            entry[1] = int(entry[1]) - 1
            entry[2] = max(float(entry[2]), float(driver.completion[i]))
            if entry[1] == 0:
                job_id = int(entry[0])
                queue.schedule_at(
                    float(entry[2]),
                    lambda job_id=job_id: _phase_done(job_id))

    driver = FluidDriver(DeltaProgram(topology, fabric), on_retire=_on_retire)
    queue = driver.queue

    def _phase_done(job_id: int) -> None:
        """Barrier: close the job's running phase and start the next one."""
        driver.advance()
        spans[job_id][-1][2] = queue.now
        _start_next_phase(job_id)

    def _start_next_phase(job_id: int) -> None:
        """Start the job's next phase, or record its finish time."""
        nonlocal link_bytes
        job = job_by_id[job_id]
        index = phase_index[job_id]
        if index >= len(job.phases):
            finish[job_id] = queue.now
            return
        phase_index[job_id] = index + 1
        phase = job.phases[index]
        if isinstance(phase, ComputePhase):
            spans[job_id].append(["compute", queue.now, queue.now])
            queue.schedule(phase.seconds,
                           lambda job_id=job_id: _phase_done(job_id))
            return
        spans[job_id].append(["comm", queue.now, queue.now])
        round_id = comm_round[job_id]
        comm_round[job_id] = round_id + 1
        flows = [FluidFlow(path=path, size_bytes=size, tag=(job_id, round_id))
                 for path, size in templates[job_id]]
        set_id = driver.inject(flows, name=f"job{job_id}/round{round_id}")
        set_state[set_id] = [job_id, len(flows), queue.now]
        link_bytes += isolated[job_id][1]
        driver.advance()        # zero-byte flows complete at injection
        driver.refill()

    def _on_arrival(job_id: int) -> None:
        """A job arrives: advance the fluid state and start its first phase."""
        driver.advance()
        _start_next_phase(job_id)

    for job in jobs:
        queue.schedule_at(job.arrival,
                          lambda job_id=job.job_id: _on_arrival(job_id))

    driver.run(max_events=max_events)
    if len(finish) != len(jobs):
        missing = sorted(set(job_by_id) - set(finish))
        raise RuntimeError(
            f"cluster simulation drained its event queue with unfinished "
            f"jobs {missing}")

    job_results: List[JobResult] = []
    for job in jobs:
        done = finish[job.job_id]
        alone = (spec.rounds * spec.compute
                 + spec.rounds * isolated[job.job_id][0])
        elapsed = done - job.arrival
        slowdown = elapsed / alone if alone > 0 else 1.0
        job_results.append(JobResult(
            job_id=job.job_id,
            name=job.name,
            arrival=job.arrival,
            finish=done,
            isolated_seconds=alone,
            slowdown=slowdown,
            phase_spans=tuple((str(kind), float(start), float(end))
                              for kind, start, end in spans[job.job_id]),
        ))

    first_arrival = min(job.arrival for job in jobs)
    makespan = max(finish.values()) - first_arrival
    capacity = float(driver.delta.res_cap[:len(topology.edges)].sum())
    utilization = (link_bytes / (capacity * makespan)
                   if makespan > 0 and capacity > 0 else 0.0)
    return ClusterResult(
        jobs=job_results,
        makespan_seconds=makespan,
        fabric_utilization=utilization,
        fill_rounds=driver.fill_rounds,
        events=driver.events,
        meta={
            "spec": spec.canonical(),
            "placement": spec.placement,
            "arrival": spec.arrival,
            "num_jobs": len(jobs),
            "rounds": spec.rounds,
            "arrival_times": [job.arrival for job in jobs],
        },
    )
