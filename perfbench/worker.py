"""One pass of one benchmark workload, in a fresh process.

``run.py`` starts this script once per pass, so every pass begins with cold
LP and stage caches (shared by the pass's own operations, never carried
over from an earlier pass) and its peak RSS is its own.  The pass:

1. **set-up** (``setup_s``): imports the program, builds the seeded inputs,
   parses the scenario specs and constructs their topologies and fabrics;
2. **operations** (``wall_s``): runs the workload closed-loop from this one
   thread — each operation (a ``Plan`` run, a faulted run, an adversarial
   search, a cluster run or a sweep) starts when the previous one ends;
3. **checks** (untimed): compares every output with its pin or bound and
   collects the counters the per-layer metrics are made from.

It prints one JSON object on the last line of standard output.  Usage::

    PYTHONPATH=src python3 perfbench/worker.py --workload dynamic --seed 3 \\
        [--trace-out spans.jsonl] [--setup-only]

Temporary files (the sweep's JSONL, its workers' peak-memory notes) go to
``tempfile.gettempdir()`` and are removed before the pass ends.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import Tracer  # noqa: E402
from workloads import (ADVERSARIAL_CANDIDATES, DYNAMIC_BUFFER,  # noqa: E402
                       flap_spec, make_inputs, scenario_fields)

#: Relative tolerance of the LP-optimum pins and of the throughput bound.
REL_TOL = 1e-9
#: Schemes whose concurrent flow is an LP optimum (must have a pin).
LP_SCHEMES = ("mcf-extp", "tsmcf")
SWEEP_WORKERS = 2


def load_pins() -> Dict[str, float]:
    with open(os.path.join(HERE, "pins.json")) as fh:
        return json.load(fh)["concurrent_flow"]


def pin_key(topology: str, scheme: str) -> str:
    return f"{topology}|{scheme}"


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #
def setup(workload: str, seed: int) -> Dict[str, object]:
    """Import the program and build every input; returns the pass context."""
    import repro.cluster  # noqa: F401 - loaded here, not inside the timed loop
    import repro.faults  # noqa: F401
    from repro.experiments import Scenario

    inputs = make_inputs(workload, seed)
    scenarios = [Scenario(**fields) for fields in scenario_fields(workload, inputs)]
    for scenario in scenarios:
        scenario.resolved_topology()
        scenario.resolved_fabric()
    return {"workload": workload, "inputs": inputs,
            "scenarios": scenarios}


# --------------------------------------------------------------------------- #
# Operations
# --------------------------------------------------------------------------- #
class Pass:
    """Runs one workload's operations and records what the checks need."""

    def __init__(self, ctx: Dict[str, object], tracer: Tracer) -> None:
        self.ctx = ctx
        self.tracer = tracer
        self.ops: List[Dict[str, object]] = []   # label, error, outputs
        self.plans: List[tuple] = []             # (op index, scenario, PlanResult)
        self.sweep_results: Optional[list] = None
        self.sweep_wall = 0.0
        self.sweep_stats = None
        self.sweep_peaks_kb: List[int] = []      # each sweep worker's peak RSS

    @contextmanager
    def operation(self, label: str):
        """One closed-loop operation; an exception marks it failed."""
        op = {"label": label, "error": None, "outputs": {}}
        self.ops.append(op)
        self.tracer.op_id = len(self.ops) - 1
        try:
            with self.tracer.span(f"op.{label.split(':')[0]}"):
                yield op
        except Exception as exc:  # noqa: BLE001 - counted, never fatal
            op["error"] = f"{type(exc).__name__}: {exc}"
            op["traceback"] = traceback.format_exc()

    def plan(self, scenario, through: str = "simulate"):
        """``Plan.run`` one stage at a time, each stage its own span."""
        from repro.experiments import STAGES, Plan

        plan = Plan(scenario)
        self.plans.append((len(self.ops) - 1, scenario, plan.result))
        for stage in STAGES[:STAGES.index(through) + 1]:
            with self.tracer.span(f"plan.{stage}"):
                plan.run(through=stage)
        return plan.result

    def run(self) -> float:
        """Execute the workload; returns its wall time in seconds."""
        workload = self.ctx["workload"]
        start = time.perf_counter()
        if workload == "dynamic":
            self._dynamic()
        elif workload == "sweep-workers":
            self._sweep()
        else:
            for scenario in self.ctx["scenarios"]:
                with self.operation(f"plan:{scenario.label()}"):
                    self.plan(scenario)
        return time.perf_counter() - start

    def _dynamic(self) -> None:
        from repro.faults import run_faulted, worst_case_failures

        base, cluster = self.ctx["scenarios"]
        inputs = self.ctx["inputs"]
        with self.operation(f"plan:{base.label()}"):
            baseline = self.plan(base).sim_results[0].completion_time
        with self.operation("faults:flap") as op:
            # The flap is laid out over this schedule's own zero-fault
            # completion time, so every epoch falls inside the faulted run.
            faults = flap_spec(inputs["flap_link"], inputs["flap_phase"],
                               inputs["fault_seed"], baseline)
            lowered = self.plan(base, through="validate").lowered
            with self.tracer.span("faults.run_faulted"):
                op["outputs"]["faulted"] = run_faulted(
                    lowered, DYNAMIC_BUFFER, faults,
                    fabric=base.resolved_fabric(), validate=False)
        with self.operation("faults:adversarial") as op:
            lowered = self.plan(base, through="validate").lowered
            with self.tracer.span("faults.worst_case_failures"):
                op["outputs"]["adversarial"] = worst_case_failures(
                    lowered, DYNAMIC_BUFFER, k=1, fabric=base.resolved_fabric(),
                    candidates=ADVERSARIAL_CANDIDATES, mode="exhaustive",
                    seed=inputs["fault_seed"])
        with self.operation("cluster:trace"):
            self.plan(cluster)

    def _sweep(self) -> None:
        from repro.experiments import last_executor_stats, run_sweep

        with tempfile.TemporaryDirectory(prefix="sweep-") as tmp:
            peaks = ChildPeaks(tmp)
            with self.operation("sweep:run_sweep"):
                start = time.perf_counter()
                with self.tracer.span("executor.run_sweep"):
                    self.sweep_results = run_sweep(
                        self.ctx["scenarios"], out_path=os.path.join(tmp, "sweep.jsonl"),
                        workers=SWEEP_WORKERS)
                self.sweep_wall = time.perf_counter() - start
                self.sweep_stats = last_executor_stats()
            self.sweep_peaks_kb = peaks.read()


class ChildPeaks:
    """Each forked ``multiprocessing`` child notes its own peak RSS as it exits.

    ``RUSAGE_CHILDREN`` gives only the largest child's peak, not their sum.
    So, in every child forked while this object lives, an after-fork hook
    registers an exit finalizer that writes the child's ``ru_maxrss`` (KiB)
    to ``<directory>/peak-<pid>``; :meth:`read` collects them.
    """

    def __init__(self, directory: str) -> None:
        import multiprocessing.util

        self.directory = directory
        multiprocessing.util.register_after_fork(self, ChildPeaks._in_child)

    def _in_child(self) -> None:
        import multiprocessing.util

        multiprocessing.util.Finalize(None, self._write, exitpriority=100)

    def _write(self) -> None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(os.path.join(self.directory, f"peak-{os.getpid()}"), "w") as fh:
            fh.write(str(peak))

    def read(self) -> List[int]:
        peaks = []
        for name in sorted(os.listdir(self.directory)):
            if name.startswith("peak-"):
                with open(os.path.join(self.directory, name)) as fh:
                    peaks.append(int(fh.read()))
        return peaks


# --------------------------------------------------------------------------- #
# Checks and end-to-end outputs
# --------------------------------------------------------------------------- #
class Checker:
    """Output checks plus the simulated-time and bound-fraction sums."""

    def __init__(self) -> None:
        from repro.core.lower_bound import (throughput_upper_bound,
                                            upper_bound_concurrent_flow)
        from repro.topology import from_spec

        self._bound_f = upper_bound_concurrent_flow
        self._bound_tp = throughput_upper_bound
        self._from_spec = from_spec
        self._f_bounds: Dict[str, float] = {}
        self.pins = load_pins()
        self.sim_time = 0.0
        self.log_fracs: List[float] = []

    def throughput_bound(self, topology: str, num_nodes: int, fabric) -> float:
        if topology not in self._f_bounds:
            self._f_bounds[topology] = self._bound_f(self._from_spec(topology))
        return self._bound_tp(num_nodes, self._f_bounds[topology],
                              fabric.link_bandwidth)

    def point(self, topology: str, fabric, num_nodes: int, throughput: float,
              seconds: float, reasons: List[str]) -> None:
        """One simulated collective: bound check, sums."""
        bound = self.throughput_bound(topology, num_nodes, fabric)
        self.sim_time += seconds
        self.log_fracs.append(math.log(throughput / bound))
        if throughput > bound * (1 + REL_TOL):
            reasons.append(f"throughput {throughput:.6g} B/s above the paper "
                           f"bound {bound:.6g} B/s")

    def record(self, scenario, record: Dict[str, object], reasons: List[str]) -> None:
        """Check one scenario's sweep-style record."""
        if record.get("status") != "ok":
            reasons.append(f"status {record.get('status')}: {record.get('error')}")
            return
        metrics = record["metrics"]
        key = pin_key(scenario.topology, scenario.scheme)
        flow = metrics.get("concurrent_flow")
        if key in self.pins:
            pin = self.pins[key]
            if flow is None or abs(flow - pin) > REL_TOL * abs(pin):
                reasons.append(f"concurrent flow {flow!r} != pinned {pin!r}")
        elif scenario.scheme in LP_SCHEMES:
            reasons.append(f"no pinned optimum for {key}")
        fabric = scenario.resolved_fabric()
        num_nodes = int(metrics.get("num_nodes", 0))
        completions = metrics.get("completion_seconds", {})
        for buf, throughput in sorted(metrics.get("throughput_bytes_per_s", {}).items()):
            self.point(scenario.topology, fabric, num_nodes, float(throughput),
                       float(completions[buf]), reasons)
        if "makespan_seconds" in metrics:
            self.sim_time += float(metrics["makespan_seconds"])
            slow = [float(s) for s in metrics["job_slowdowns"].values()]
            if min(slow) < 1 - REL_TOL:
                reasons.append(f"cluster job slowdown {min(slow)!r} below 1")


def check_pass(p: Pass, checker: Checker) -> None:
    """Fill each operation's ``reasons``; failed checks fail the operation."""
    from repro.experiments import result_from_plan

    for op in p.ops:
        op["reasons"] = [] if op["error"] is None else [op["error"]]
    for index, scenario, result in p.plans:
        op = p.ops[index]
        if op["error"] is None and result.stage_cache.get("simulate") is not None:
            record = result_from_plan(scenario, result).to_record()
            checker.record(scenario, record, op["reasons"])
    if p.ctx["workload"] == "dynamic":
        _check_dynamic(p, checker)
    elif p.ctx["workload"] == "sweep-workers":
        _check_sweep(p, checker)


def _check_dynamic(p: Pass, checker: Checker) -> None:
    base = p.ctx["scenarios"][0]
    fabric = base.resolved_fabric()
    for op in p.ops:
        faulted = op["outputs"].get("faulted")
        if faulted is not None:
            slowdown = float(faulted.meta["robustness_slowdown"])
            if slowdown < 1 - REL_TOL:
                op["reasons"].append(f"faulted slowdown {slowdown!r} below 1")
            checker.point(base.topology, fabric, faulted.num_nodes,
                          faulted.throughput, faulted.completion_time, op["reasons"])
        adv = op["outputs"].get("adversarial")
        if adv is not None:
            slowdowns = [float(ev["slowdown"]) for ev in adv.evaluations]
            if len(slowdowns) != ADVERSARIAL_CANDIDATES:
                op["reasons"].append(f"{len(slowdowns)} candidate evaluations, "
                                     f"expected {ADVERSARIAL_CANDIDATES}")
            if not slowdowns or min(slowdowns) < 1 - REL_TOL:
                op["reasons"].append(f"adversarial slowdowns {slowdowns!r} below 1")
            checker.sim_time += adv.baseline_seconds * adv.worst_slowdown


def _check_sweep(p: Pass, checker: Checker) -> None:
    """One ``ok`` record per scenario key, each record checked like a plan's.

    Each scenario counts as one attempted operation here: the sweep's
    outcome is its records.
    """
    sweep_op = p.ops[0]
    scenarios = p.ctx["scenarios"]
    by_key: Dict[str, list] = {}
    for res in p.sweep_results or []:
        by_key.setdefault(res.key, []).append(res)
    ops = []
    for scenario in scenarios:
        op = {"label": f"sweep:{scenario.label()}", "outputs": {},
              "error": sweep_op["error"], "reasons": list(sweep_op["reasons"])}
        found = by_key.get(scenario.key(), [])
        if len(found) != 1:
            op["reasons"].append(f"{len(found)} records for the scenario key, expected 1")
        else:
            checker.record(scenario, found[0].to_record(), op["reasons"])
        ops.append(op)
    if len(by_key) != len({s.key() for s in scenarios}):
        ops[0]["reasons"].append(f"{len(by_key)} distinct record keys for "
                                 f"{len(scenarios)} scenarios")
    p.ops[:] = ops


# --------------------------------------------------------------------------- #
# Counters and per-layer metrics
# --------------------------------------------------------------------------- #
def snapshot() -> Dict[str, Dict[str, object]]:
    """The program's public counters, for before/after diffs."""
    from repro.engine import get_engine
    from repro.experiments import get_plan_cache
    from repro.simulator import engine_counters

    return {"sim": engine_counters(), "lp": get_engine().stats(),
            "stage": get_plan_cache().stats()}


def diff(before: Dict[str, object], after: Dict[str, object]) -> Dict[str, float]:
    return {k: after[k] - before[k] for k in after
            if isinstance(after[k], (int, float)) and k in before}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(p: Pass, tracer: Tracer, before, after) -> Dict[str, float]:
    """Per-layer metrics from spans, counter diffs and artifact metadata."""
    sim = diff(before["sim"], after["sim"])
    lp = diff(before["lp"], after["lp"])
    stage = diff(before["stage"], after["stage"])
    m: Dict[str, float] = {}
    for name in ("synthesize", "lower", "validate", "simulate"):
        m[f"plan.{name}_s"] = tracer.total(f"plan.{name}")
    m["plan.stage_cache_hit_ratio"] = ratio(stage["hits"], stage["hits"] + stage["misses"])

    master = child = extract = assemble = solve = 0.0
    rows = cols = assignments = 0
    for _, _, result in p.plans:
        if result.stage_cache.get("synthesize") == "miss":
            meta = getattr(result.schedule, "meta", None) or {}
            master += float(meta.get("master_seconds", 0.0))
            timings = meta.get("timings")
            child += sum(getattr(timings, "child_seconds_each", ()) or ())
            extract += float(meta.get("extraction_seconds", 0.0))
            info = result.engine_info()
            rows += int(info.get("num_constraints", 0))
            cols += int(info.get("num_variables", 0))
            assemble += float(info.get("assemble_seconds", 0.0))
            solve += float(info.get("solve_seconds", 0.0))
        if result.stage_cache.get("lower") == "miss":
            assignments += len(getattr(result.lowered, "assignments", ()))
    lower_failures = sum(1 for s in tracer.spans
                         if s["name"] == "plan.lower" and s["error"])
    m.update({"core.master_lp_s": master, "core.child_lp_s": child,
              "core.extract_s": extract,
              "engine.lp_solves": lp["misses"],
              "engine.lp_cache_hit_ratio": ratio(lp["hits"], lp["hits"] + lp["misses"]),
              "engine.lp_rows": rows, "engine.lp_cols": cols,
              "engine.lp_assemble_s": assemble, "engine.lp_solve_s": solve,
              "schedule.assignments": assignments,
              "schedule.lower_failures": lower_failures})

    simulate_s = (m["plan.simulate_s"] + tracer.total("faults.run_faulted")
                  + tracer.total("faults.worst_case_failures"))
    m.update({"simulator.simulations": sim["simulations"],
              "simulator.fill_rounds": sim["fill_rounds"],
              "simulator.events": sim["events"],
              "simulator.rounds_per_event": ratio(sim["fill_rounds"], sim["events"]),
              "simulator.fill_s": sim["fill_seconds"],
              "simulator.nonfill_s": simulate_s - sim["fill_seconds"]})

    cluster_s = 0.0
    cluster_rounds = cluster_events = 0
    for index, _, result in p.plans:
        if result.cluster_result is not None:
            cluster_s += _span_total(tracer, index, "plan.simulate")
            cluster_rounds += result.cluster_result.fill_rounds
            cluster_events += result.cluster_result.events
    m.update({"faults.run_s": tracer.total("faults.run_faulted"),
              "faults.adversarial_s": tracer.total("faults.worst_case_failures"),
              "faults.reroute_s": sim["reroute_seconds"],
              "faults.compile_s": sim["compile_seconds"],
              "faults.reroutes": sim["reroutes"],
              "faults.fabric_events": sim["fabric_events"],
              "faults.route_cache_hit_ratio": ratio(
                  sim["route_cache_hits"],
                  sim["route_cache_hits"] + sim["route_cache_misses"]),
              "perf.delta_hits": sim["delta_hits"],
              "perf.delta_rebuilds": sim["delta_rebuilds"],
              "cluster.run_s": cluster_s, "cluster.fill_rounds": cluster_rounds,
              "cluster.events": cluster_events,
              "executor.parallel_eff": 0.0, "executor.overhead_s": 0.0,
              "executor.steals": 0, "executor.shared_hit_ratio": 0.0})
    if p.sweep_results is not None:
        m.update(sweep_layer_metrics(p))
    return m


def sweep_layer_metrics(p: Pass) -> Dict[str, float]:
    """Layer metrics of a worker-process sweep, read from its records.

    The workers' counters never reach this process (``engine_counters()``
    reads zero here), so everything the records carry is taken from them:
    stage timings and cache outcomes, the master LP's engine info, and the
    simulator's fill-round and event counts.  LP child solves and fill time
    are not in the records and read 0.
    """
    m: Dict[str, float] = {}
    records = [res.to_record() for res in p.sweep_results]
    stage_hits = stage_total = lp_hits = lp_total = 0
    for stage in ("synthesize", "lower", "validate", "simulate"):
        m[f"plan.{stage}_s"] = sum(float(r["timings"].get(f"{stage}_seconds", 0.0))
                                   for r in records)
    assemble = solve = rounds = events = sims = 0
    # Two workers can synthesize (and lower) the same schedule when they
    # claim its two buffer scenarios at once, so sizes count each distinct
    # LP and schedule once; engine.lp_solves counts every solve.
    lp_sizes: Dict[str, tuple] = {}
    assignments: Dict[tuple, int] = {}
    for r in records:
        cache = r["stage_cache"]
        stage_hits += sum(1 for s in cache.values() if s == "hit")
        stage_total += len(cache)
        if cache.get("synthesize") == "miss" and r["engine"]:
            lp_total += 1
            lp_hits += r["engine"].get("cache") == "hit"
            lp_sizes[r["engine"].get("key")] = (int(r["engine"].get("num_constraints", 0)),
                                                int(r["engine"].get("num_variables", 0)))
        assemble += float(r["timings"].get("assemble_seconds", 0.0))
        solve += float(r["timings"].get("solve_seconds", 0.0))
        if cache.get("lower") == "miss":
            schedule = (r["scenario"]["topology"], r["scenario"]["scheme"])
            assignments[schedule] = int(r["metrics"].get("num_assignments", 0))
        if cache.get("simulate") == "miss":
            sims += len(r["metrics"].get("completion_seconds", {}))
            rounds += int(r["metrics"].get("sim_fill_rounds", 0))
            events += int(r["metrics"].get("sim_events", 0))
    busy = sum(float(r["timings"].get("total_seconds", 0.0)) for r in records)
    stats = p.sweep_stats
    shared = (stats.shared_hits + stats.shared_misses) if stats else 0
    m.update({"plan.stage_cache_hit_ratio": ratio(stage_hits, stage_total),
              "engine.lp_solves": lp_total - lp_hits,
              "engine.lp_cache_hit_ratio": ratio(lp_hits, lp_total),
              "engine.lp_rows": sum(size[0] for size in lp_sizes.values()),
              "engine.lp_cols": sum(size[1] for size in lp_sizes.values()),
              "engine.lp_assemble_s": assemble, "engine.lp_solve_s": solve,
              "schedule.assignments": sum(assignments.values()),
              "simulator.simulations": sims, "simulator.fill_rounds": rounds,
              "simulator.events": events,
              "simulator.rounds_per_event": ratio(rounds, events),
              "simulator.nonfill_s": m["plan.simulate_s"],
              "executor.parallel_eff": ratio(busy, SWEEP_WORKERS * p.sweep_wall),
              "executor.overhead_s": p.sweep_wall - busy / SWEEP_WORKERS,
              "executor.steals": stats.steals if stats else 0,
              "executor.shared_hit_ratio": ratio(stats.shared_hits, shared) if stats else 0.0})
    return m


def _span_total(tracer: Tracer, op_index: int, name: str) -> float:
    return sum(s["end"] - s["start"] for s in tracer.spans
               if s["op"] == op_index and s["name"] == name)


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def stamp() -> Dict[str, object]:
    """What a result depends on besides the code: kernel, backend, versions."""
    import numpy
    import scipy
    from repro.engine import get_engine
    from repro.perf.fillkernel import fill_kernel_name

    return {"fill_kernel": fill_kernel_name(), "lp_backend": get_engine().backend_name,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def peak_rss_mb(children_kb: List[int]) -> float:
    """This process's peak RSS plus the sum of its worker processes' peaks."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(children_kb)) / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", default=None,
                        help="record spans and write them to this JSONL file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ctx = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - _PROCESS_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer(enabled=args.trace_out is not None)
    before = snapshot()
    p = Pass(ctx, tracer)
    wall = p.run()
    after = snapshot()

    checker = Checker()
    check_pass(p, checker)
    failures = [(op["label"], reason) for op in p.ops for reason in op["reasons"]]
    out = {"setup_s": setup_s, "wall_s": wall, "peak_rss_mb": peak_rss_mb(p.sweep_peaks_kb),
           "worker_peaks_kb": p.sweep_peaks_kb,
           "attempted": len(p.ops),
           "failed": sum(1 for op in p.ops if op["reasons"]),
           "check_failures": sum(1 for op in p.ops if op["error"] is None and op["reasons"]),
           "failures": failures,
           "tracebacks": [op["traceback"] for op in p.ops if "traceback" in op],
           "sim_time_s": checker.sim_time,
           "sim_frac_of_bound": (math.exp(sum(checker.log_fracs) / len(checker.log_fracs))
                                 if checker.log_fracs else 0.0),
           "stamp": stamp()}
    if tracer.enabled:
        out["layers"] = layer_metrics(p, tracer, before, after)
        out["self_times"] = tracer.self_times()
        tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
