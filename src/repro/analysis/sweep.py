"""Scheme lookup and comparison sweeps.

Thin helpers over the experiment layer's one scheme registry
(:data:`repro.experiments.SCHEMES`): :func:`run_scheme` runs a scheme by
name, and :func:`compare_schemes` turns each scheme into one
:class:`~repro.experiments.Scenario` and runs the batch through
:func:`~repro.experiments.run_sweep` (same ordering, same error capture;
``workers=N`` spreads the schemes across worker processes).

All schemes share the engine's solution cache *and* the experiment layer's
stage-artifact cache, so re-running a comparison on the same topology solves
no new LPs and re-lowers no schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core import solve_decomposed_mcf
from ..experiments import SCHEMES, Scenario, resolve_scheme, run_sweep
from ..simulator import FabricModel, cerio_hpc_fabric
from ..topology.base import Topology

__all__ = ["SchemeResult", "available_schemes", "run_scheme", "compare_schemes"]


#: Parameters comparisons pass as ``scheme_params``: the ILP baselines get a
#: looser gap and a tighter time limit than the library defaults, and
#: ``pmcf-shortest`` caps its path sets.
_BAKED_PARAMS: Dict[str, Dict[str, object]] = {
    "pmcf-shortest": {"limit_per_pair": 16},
    "ilp-disjoint": {"mip_rel_gap": 0.05, "time_limit": 120},
    "ilp-shortest": {"mip_rel_gap": 0.05, "time_limit": 120},
}


def available_schemes() -> List[str]:
    """Names of all registered schemes."""
    return sorted(SCHEMES)


@dataclass
class SchemeResult:
    """Outcome of one scheme on one topology."""

    scheme: str
    concurrent_flow: float
    all_to_all_time: float
    normalized_time: Optional[float] = None
    throughputs: Dict[float, float] = field(default_factory=dict)   # buffer -> bytes/s
    error: Optional[str] = None


def run_scheme(scheme: str, topology: Topology):
    """Run a registered scheme by name, with the comparison parameters."""
    scenario = Scenario(topology=topology, scheme=scheme,
                        scheme_params=_BAKED_PARAMS.get(scheme, {}))
    return resolve_scheme(scenario, topology)


def compare_schemes(topology: Topology, schemes: Sequence[str],
                    buffer_sizes: Optional[Sequence[float]] = None,
                    fabric: Optional[FabricModel] = None,
                    normalize: bool = True,
                    skip_failures: bool = True,
                    workers: int = 1) -> List[SchemeResult]:
    """Run several schemes on a topology and collect comparable metrics.

    Parameters
    ----------
    buffer_sizes:
        If given, each scheme's schedule is also chunked and executed on the
        simulator at these per-node buffer sizes.
    normalize:
        If True, also compute each scheme's all-to-all time normalized by the
        optimal link-based (decomposed) MCF time, as in Fig. 8/9.
    skip_failures:
        If True, a scheme that raises (e.g. DOR on a non-torus) produces a
        :class:`SchemeResult` with the ``error`` field set instead of aborting
        the whole comparison.  If False, the failure is raised: the original
        exception when it ran in this process, else a ``RuntimeError``
        carrying the recorded message.
    workers:
        Worker processes the schemes are spread across
        (``run_sweep(workers=N)``).  Results keep the order of ``schemes``
        and are identical to a serial run.
    """
    fabric = fabric or cerio_hpc_fabric()
    reference = None
    if normalize:
        reference = 1.0 / solve_decomposed_mcf(topology).concurrent_flow

    buffers = tuple(buffer_sizes) if buffer_sizes else ()
    scenarios = [Scenario(topology=topology, scheme=name,
                          scheme_params=_BAKED_PARAMS.get(name, {}),
                          fabric=fabric, buffers=buffers, max_denominator=16)
                 for name in schemes]
    through = "simulate" if buffers else "synthesize"
    results = run_sweep(scenarios, through=through, workers=workers)

    out: List[SchemeResult] = []
    for name, res in zip(schemes, results):
        if res.status == "error":
            if not skip_failures:
                if res.exception is not None:
                    raise res.exception
                raise RuntimeError(res.error)
            out.append(SchemeResult(scheme=name, concurrent_flow=0.0,
                                    all_to_all_time=float("inf"), error=res.error))
            continue
        time = float(res.metrics.get("all_to_all_time", float("inf")))
        result = SchemeResult(
            scheme=name,
            concurrent_flow=float(res.metrics.get("concurrent_flow", 0.0)),
            all_to_all_time=time,
            normalized_time=None if reference is None else time / reference,
        )
        for buf, tp in (res.metrics.get("throughput_bytes_per_s") or {}).items():
            result.throughputs[float(buf)] = tp
        out.append(result)
    return out
