"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures: it runs the
relevant schedule generators and the simulator, prints the figure's series as
a text table, and appends the same table to ``benchmarks/results/<figure>.txt``
so the output survives pytest's output capture.

Scale control
-------------
The paper's largest experiments (27-node torus hardware runs, 1000-node
synthesis sweeps) are scaled to laptop/CI sizes by default.  Set
``REPRO_BENCH_SCALE=paper`` to run closer to the paper's sizes (minutes to
hours), ``REPRO_BENCH_SCALE=small`` (default) for the quick configuration.
EXPERIMENTS.md records results from the default configuration.

Machine-readable results (``BENCH_*.json``) and the perf-smoke gate
-------------------------------------------------------------------
Benchmarks that participate in perf-regression CI additionally record their
series through the ``record_json`` fixture, which writes
``benchmarks/results/BENCH_<name>.json``:

.. code-block:: json

    {
      "benchmark": "runtime",          // fixture argument <name>
      "schema_version": 1,
      "scale": "small",                 // REPRO_BENCH_SCALE in effect
      "series": {
        "mcf-link": {                   // one entry per algorithm series
          "12": {                       // topology size N (stringified)
            "assemble_seconds": 0.05,   // LP construction + to_arrays()
            "solve_seconds": 0.45,      // backend (HiGHS) wall clock
            "extract_seconds": 0.01,    // ndarray -> FlowSolution dicts
            "total_seconds": 0.51,
            "objective": 0.153846       // optimal concurrent flow F
          }
        }
      }
    }

The CI ``perf-smoke`` job runs the Fig. 7 phase-breakdown benchmark, uploads
``BENCH_runtime.json`` as a build artifact, and gates the build with
``python benchmarks/check_regression.py``: the current numbers are compared
against the committed ``benchmarks/baseline.json`` (same schema) and the job
fails when any phase is more than ``REPRO_BENCH_MAX_SLOWDOWN`` (default 2.0)
times slower than the baseline, or when an objective drifts beyond
``FLOW_TOL``.  Phases faster than 250 ms in the baseline are not gated
(timer/scheduler noise and runner hardware variance dominate there);
new/removed series entries are reported but only missing ones fail.  The
committed baseline should come from a trusted run on the same runner class
as CI — refresh it by copying that run's ``BENCH_runtime.json`` over
``benchmarks/baseline.json`` (the perf-smoke job uploads it as an artifact
precisely so a maintainer can promote it).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> str:
    """Current benchmark scale: 'small' (default) or 'paper'."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    if scale not in ("small", "paper"):
        raise ValueError(f"REPRO_BENCH_SCALE must be 'small' or 'paper', got {scale!r}")
    return scale


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


@pytest.fixture(scope="session", autouse=True)
def _engine_cache_off():
    """Disable the engine's solution cache and the experiment layer's stage
    cache for the whole benchmark session.

    The figures regenerated here (Fig. 7 runtime scaling, the parallelism
    ablation) time LP solves; serving a repeated (topology, formulation) from
    the cache — or a whole synthesize stage from the plan's artifact cache —
    would report dict-lookup times as solve times and corrupt the comparison.
    Correctness tests keep the caches on; benchmarks measure.
    """
    from repro.engine import get_engine
    from repro.experiments import get_plan_cache

    engine = get_engine()
    plan_cache = get_plan_cache()
    prev = engine.cache.enabled
    prev_plan = plan_cache.enabled
    engine.cache.enabled = False
    plan_cache.enabled = False
    yield
    engine.cache.enabled = prev
    plan_cache.enabled = prev_plan


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def record(results_dir):
    """Print a table and append it to the per-figure results file."""

    def _record(figure: str, text: str) -> None:
        print(f"\n{text}\n")
        path = results_dir / f"{figure}.txt"
        with path.open("a") as fh:
            fh.write(text + "\n\n")

    # Start each session with clean files: remove stale results once.
    for old in results_dir.glob("*.txt"):
        old.unlink()
    return _record


@pytest.fixture(scope="session")
def record_json(results_dir, scale):
    """Write a benchmark's series as ``results/BENCH_<name>.json``.

    ``series`` maps algorithm name -> {size -> phase dict}; see the module
    docstring for the exact schema.  The file is what the CI perf-smoke job
    uploads and feeds to ``check_regression.py``.
    """

    def _record_json(name: str, series: dict) -> Path:
        payload = {
            "benchmark": name,
            "schema_version": 1,
            "scale": scale,
            "series": {alg: {str(size): dict(phases)
                             for size, phases in sizes.items()}
                       for alg, sizes in series.items()},
        }
        path = results_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    return _record_json


@pytest.fixture
def bench_timer(benchmark):
    """One-shot timing hook for :func:`repro.report.specs.run_panel`.

    Wraps a callable in a single ``benchmark.pedantic`` round — the timing
    discipline every spec-wrapping benchmark (Fig. 3/4, Table 1) shares.
    """
    return lambda fn: benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture(scope="session")
def buffer_sweep(scale):
    """Buffer-size sweep (total per-node bytes), the x-axis of Fig. 3/4/5."""
    if scale == "paper":
        return [2 ** k for k in range(13, 29, 3)]
    return [2 ** 15, 2 ** 19, 2 ** 23, 2 ** 27]
