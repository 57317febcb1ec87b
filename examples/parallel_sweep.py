#!/usr/bin/env python
"""Multiprocess sweep: work-stealing workers + shared-memory artifacts.

Worker processes are the program's one form of parallelism.  This example
runs a grid — overlap x degradation x scheme on a hypercube, so several
scenarios share hot synthesize/lower artifacts — through the work-stealing
multiprocess executor, and prints the executor accounting the CLI
surfaces in its ``[stats] ... exec:`` footer: per-worker completed counts,
steals, shared-artifact plane hits, scenarios/sec.

The same sweep is available from the command line::

    python -m repro.cli sweep \
        --set topology=hypercube:dim=3 --set buffers=1048576 \
        --axis 'scheme=mcf-extp;ewsp' --axis 'overlap=1;2' \
        --out results.jsonl --workers 2

Run:  python examples/parallel_sweep.py
"""

import os
import tempfile

from repro.analysis import format_engine_footer, format_table
from repro.engine import get_engine
from repro.experiments import (
    SweepGrid,
    get_plan_cache,
    run_sweep_workers,
    sweep_stats,
)
from repro.simulator import engine_counters


def main() -> None:
    grid = SweepGrid(
        base={"topology": "hypercube:dim=3",
              "buffers": [2 ** 20], "max_denominator": 16},
        axes={"scheme": ["mcf-extp", "ewsp"],
              "overlap": ["1", "2"],
              # healthy fabric vs one link degraded to half bandwidth
              "fabric": ["hpc", "hpc:scale=0~1:0.5"]},
    )
    scenarios = grid.scenarios()
    print(f"grid: {len(grid)} scenarios "
          f"({' x '.join(f'{k}={len(v)}' for k, v in grid.axes.items())})")

    out = os.path.join(tempfile.mkdtemp(prefix="repro-psweep-"), "results.jsonl")
    results, stats = run_sweep_workers(scenarios, out_path=out, workers=2)

    rows = []
    for res in results:
        flow = res.metrics.get("concurrent_flow")
        rows.append([
            res.scenario.label(),
            res.status,
            "-" if flow is None else round(float(flow), 4),
            "-" if res.metrics.get("all_to_all_time") is None
            else round(float(res.metrics["all_to_all_time"]), 3),
        ])
    print(format_table(["scenario", "status", "F", "all-to-all time"],
                       rows, title="Work-stealing multiprocess sweep"))

    totals = sweep_stats(results, executor=stats)
    print(f"\nexecutor: {totals['workers']} workers completed "
          f"{totals['per_worker_completed']} scenarios "
          f"({totals['steals']} steals, "
          f"{totals['shared_hits']} shared-artifact hits, "
          f"{totals['scenarios_per_sec']:.1f} scenarios/sec)")
    print(format_engine_footer(get_engine().stats(), get_plan_cache().stats(),
                               sim_stats=engine_counters(),
                               executor_stats=stats.to_dict()))
    print(f"merged JSONL at {out}")


if __name__ == "__main__":
    main()
