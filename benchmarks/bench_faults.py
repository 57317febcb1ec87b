"""Faulted-simulation benchmark: the delta engine vs the recompile oracle.

Times the two hot paths the incremental layer (:mod:`repro.perf.delta`)
optimizes, on one 108-flow ewsp schedule over a 4x4 torus (6x6 at
``REPRO_BENCH_SCALE=paper``):

* **faulted run** — a 40-epoch flapping timeline (one link dropping and
  recovering every 7 us) through :func:`repro.faults.run_faulted`, where
  the oracle pays ``compile_flows`` + a fresh workspace per epoch and the
  delta engine patches capacities/incidence in place;
* **adversarial search** — :func:`repro.faults.worst_case_failures`
  (k=1, exhaustive over the 10 heaviest links, strike at 0.7), where the
  delta engine additionally shares one prepared context, resumes every
  candidate from the captured pre-strike prefix, and serves repairs and
  LASH certifications from the reroute cache.

Asserted acceptance gates:

* both modes agree **exactly**: same completion time, slowdowns within
  1e-9, identical reroute counts and worst sets (the fill kernels never
  read flow sizes, so delta-masked programs fill bit-identically to
  recompiled survivor programs);
* the delta engine is at least 3x faster than the recompile oracle
  (``tests/oracles/recompile.py``) on both legs.

Machine-readable output lands in ``results/BENCH_faults.json``
(``objective`` is the deterministic faulted completion time / worst
slowdown).  The CI ``perf-kernels`` job uploads it and gates it against
``benchmarks/baseline_faults.json`` via ``check_regression.py``.
"""

import sys
import time
from pathlib import Path

from repro.analysis import format_table
from repro.experiments import Plan, Scenario
from repro.faults import PreparedFaultContext, run_faulted, worst_case_failures
from repro.simulator import fabric_from_spec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles.recompile import recompile_oracle, run_faulted_recompile  # noqa: E402

MIN_DELTA_SPEEDUP = 3.0
FLAP_EPOCHS = 20          # down+up pairs -> 40 fabric events
TIMING_REPS = 3
ADV_CANDIDATES = 10
ADV_AT = 0.7
BUFFER = float(2 ** 20)


def _flapping_spec(epochs: int = FLAP_EPOCHS) -> str:
    """One link flapping: ``epochs`` down/up pairs, 7 us apart."""
    parts = []
    for i in range(epochs):
        t = 10 + 7 * i
        parts.append(f"down=0~1@{t}us")
        parts.append(f"up@{t + 4}us")
    return "faults:" + ":".join(parts)


def _best_of(fn, reps: int = TIMING_REPS):
    """Best wall time over ``reps`` runs (first run also warms caches)."""
    best = float("inf")
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_faulted_delta_throughput(record, record_json, scale):
    """Delta engine >= 3x oracle on faulted runs and adversarial search."""
    topology = "torus:rows=6,cols=6" if scale == "paper" else "torus:rows=4,cols=4"
    lowered = Plan(Scenario(topology=topology, scheme="ewsp",
                            max_denominator=16)).run("lower").lowered
    fabric = fabric_from_spec("hpc")
    spec = _flapping_spec()
    context = PreparedFaultContext(lowered, fabric)
    num_flows = context.num_flows

    def faulted(run=run_faulted):
        return run(lowered, BUFFER, spec, fabric=fabric,
                   validate=False, context=context)

    def adversarial():
        return worst_case_failures(lowered, BUFFER, k=1, fabric=fabric,
                                   at=ADV_AT, candidates=ADV_CANDIDATES,
                                   mode="exhaustive", context=context)

    run_delta, run_delta_s = _best_of(faulted)
    adv_delta, adv_delta_s = _best_of(adversarial)
    run_oracle, run_oracle_s = _best_of(lambda: faulted(run_faulted_recompile))
    with recompile_oracle():
        adv_oracle, adv_oracle_s = _best_of(adversarial)

    # Exact agreement between the delta engine and the recompile oracle.
    assert run_delta.completion_time == run_oracle.completion_time
    assert run_delta.meta["reroute_count"] == run_oracle.meta["reroute_count"]
    assert run_delta.meta["fill_rounds"] == run_oracle.meta["fill_rounds"]
    assert run_delta.meta["fault_events"] == run_oracle.meta["fault_events"]
    assert adv_delta.worst_links == adv_oracle.worst_links
    assert abs(adv_delta.worst_slowdown - adv_oracle.worst_slowdown) <= 1e-9
    for ev_d, ev_o in zip(adv_delta.evaluations, adv_oracle.evaluations):
        assert ev_d["links"] == ev_o["links"]
        assert abs(ev_d["slowdown"] - ev_o["slowdown"]) <= 1e-9
        assert ev_d["reroute_count"] == ev_o["reroute_count"]

    run_speedup = run_oracle_s / run_delta_s
    adv_speedup = adv_oracle_s / adv_delta_s
    series = {
        "delta": {num_flows: {
            "faulted_seconds": run_delta_s,
            "adversarial_seconds": adv_delta_s,
            "total_seconds": run_delta_s + adv_delta_s,
            "objective": run_delta.completion_time,
        }},
        "oracle": {num_flows: {
            "faulted_seconds": run_oracle_s,
            "adversarial_seconds": adv_oracle_s,
            "total_seconds": run_oracle_s + adv_oracle_s,
            "objective": run_oracle.completion_time,
        }},
    }
    record_json("faults", series)
    record("faults", format_table(
        ["mode", "faulted run (s)", "adversarial (s)", "speedup"],
        [["delta", run_delta_s, adv_delta_s,
          f"{run_speedup:.1f}x / {adv_speedup:.1f}x"],
         ["recompile oracle", run_oracle_s, adv_oracle_s, "1.0x"]],
        title=(f"Faulted simulation: {num_flows}-flow ewsp on {topology}, "
               f"{2 * FLAP_EPOCHS}-epoch flap + k=1 adversarial "
               f"({ADV_CANDIDATES} candidates), worst slowdown "
               f"{adv_delta.worst_slowdown:.4f}")))

    assert run_speedup >= MIN_DELTA_SPEEDUP, (
        f"delta faulted run only {run_speedup:.1f}x faster than the oracle "
        f"(gate: {MIN_DELTA_SPEEDUP:.0f}x)")
    assert adv_speedup >= MIN_DELTA_SPEEDUP, (
        f"delta adversarial search only {adv_speedup:.1f}x faster than the "
        f"oracle (gate: {MIN_DELTA_SPEEDUP:.0f}x)")
