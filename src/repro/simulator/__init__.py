"""Direct-connect fabric simulator (the testbed substitute).

All regimes share one vectorized, event-driven fluid core
(:mod:`repro.simulator.engine`, whose :class:`~.engine.FluidDriver` is the
one simulation loop); :mod:`.flowsim` and :mod:`.collective` are thin
front-ends that lower their schedules to the engine's flow IR
(:mod:`.collective` simulates each schedule once and rescales the result to
every buffer size).  The scalar implementation the engine replaced lives on
as a differential-testing oracle in ``tests/oracles/reference.py``.
"""

from .collective import (
    CollectiveProfile,
    CollectiveResult,
    collective_profile,
    run_link_collective,
    run_routed_collective,
    throughput_sweep,
)
from .costmodel import (
    alltoall_time_upper_bound,
    latency_bandwidth_time,
    steady_state_throughput,
    throughput_upper_bound_curve,
)
from .engine import (
    DriverSnapshot,
    EngineResult,
    FillWorkspace,
    FlowProgram,
    FluidDriver,
    compile_flows,
    engine_counters,
    execute,
    fill_rates,
    record_fault_events,
    record_simulation,
    reset_engine_counters,
    simulate_program,
)
from .events import Event, EventQueue
from .fabric import (
    GBPS,
    GIBI,
    FabricModel,
    a100_ml_fabric,
    cerio_hpc_fabric,
    fabric_from_spec,
    ideal_fabric,
    parse_link_scales,
    parse_link_set,
)
from .flowsim import FlowSimResult, FluidFlow, simulate_flows

__all__ = [
    "CollectiveProfile",
    "CollectiveResult",
    "collective_profile",
    "run_link_collective",
    "run_routed_collective",
    "throughput_sweep",
    "alltoall_time_upper_bound",
    "latency_bandwidth_time",
    "steady_state_throughput",
    "throughput_upper_bound_curve",
    "DriverSnapshot",
    "EngineResult",
    "FillWorkspace",
    "FlowProgram",
    "FluidDriver",
    "compile_flows",
    "engine_counters",
    "execute",
    "fill_rates",
    "record_fault_events",
    "record_simulation",
    "reset_engine_counters",
    "simulate_program",
    "Event",
    "EventQueue",
    "GBPS",
    "GIBI",
    "FabricModel",
    "a100_ml_fabric",
    "cerio_hpc_fabric",
    "fabric_from_spec",
    "ideal_fabric",
    "parse_link_scales",
    "parse_link_set",
    "FlowSimResult",
    "FluidFlow",
    "simulate_flows",
]
