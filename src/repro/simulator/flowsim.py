"""Max-min fair fluid flow simulator for cut-through, NIC-routed fabrics.

Path-based schedules (MCF-extP, pMCF, SSSP, DOR, ...) launch all chunk flows
simultaneously; the fabric's cut-through routing lets each flow stream along
its full path at a rate limited by the most contended resource it crosses.
This module models that regime as a fluid system:

* every flow has a fixed path, a remaining byte count, and a rate;
* rates are assigned by progressive filling (max-min fairness) subject to
  per-link capacities, per-node injection caps and per-node forwarding caps;
* the simulation advances from flow-completion to flow-completion, re-filling
  over the surviving flows (standard fluid approximation of long-lived
  TCP/RDMA flows sharing a network);
* flow start incurs a latency of ``per_message_overhead + hops * per_hop_latency``.

The completion time of the last flow is the all-to-all time.  For an MCF
schedule whose link loads are balanced this converges to
``max-link-load / bandwidth`` plus latency terms, matching the analytic model,
while unbalanced baselines (SSSP, native) finish later because their most
loaded link drains last -- which is exactly the effect Fig. 4/5 measures.

Since the unified-engine refactor this module is a thin front-end: it lowers
the flow set to the shared flow IR and runs it on the vectorized core in
:mod:`repro.simulator.engine` (the original scalar implementation survives in
``tests/oracles/reference.py`` for differential testing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..topology.base import Topology
from .engine import FluidFlow, simulate_program
from .fabric import FabricModel

__all__ = ["FluidFlow", "FlowSimResult", "simulate_flows"]


@dataclass
class FlowSimResult:
    """Outcome of a fluid simulation."""

    completion_time: float
    flow_completion_times: List[float]
    max_link_bytes: float
    total_bytes: float
    fill_rounds: int = 0
    events_processed: int = 0

    @property
    def last_flow_index(self) -> int:
        return max(range(len(self.flow_completion_times)),
                   key=lambda i: self.flow_completion_times[i])


def simulate_flows(topology: Topology, flows: Sequence[FluidFlow],
                   fabric: Optional[FabricModel] = None,
                   max_rounds: int = 1_000_000) -> FlowSimResult:
    """Simulate concurrent fluid flows to completion.

    Returns per-flow completion times and the overall completion time
    (including start-up latencies).
    """
    if not flows:
        return FlowSimResult(0.0, [], 0.0, 0.0)
    result = simulate_program(topology, flows, fabric, max_events=max_rounds)
    return FlowSimResult(
        completion_time=result.completion_time,
        flow_completion_times=result.flow_completion_times,
        max_link_bytes=result.max_link_bytes,
        total_bytes=result.total_bytes,
        fill_rounds=result.fill_rounds,
        events_processed=result.events_processed,
    )
