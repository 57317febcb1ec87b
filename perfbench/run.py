"""Pipeline benchmark: run one workload, check its outputs, print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload synth-paper --seed 0 --seconds 25 --trace 0

Workloads (see ``README.md`` for why each was chosen): ``synth-paper``,
``sim-buffers``, ``dynamic``, ``sweep-workers``.

Each pass of the workload runs in a fresh ``worker.py`` process, so caches
start cold and the pass's peak memory is its own.  Passes repeat until the
run has lasted about ``--seconds``: a run stops at the pass boundary
nearest to it, after at least one pass.  ``wall_s`` is the
mean over the passes, so it averages the host's speed over the whole run;
every other metric is the median over the passes.  ``setup_s`` is the median over the passes' set-ups
plus set-up-only probe processes, at least five samples in all.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and then traced passes, and prints the per-layer metrics,
including ``trace.overhead_s`` (traced minus untraced wall time); spans go
to ``perfbench/results/``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it stamps the code, kernel, LP backend and versions.

The program is imported from ``src/`` beside this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(HERE, ".work")
RESULTS_DIR = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "failed_frac": "ratio", "sim_time_s": "sim_s",
              "sim_frac_of_bound": "ratio"}

PER_LAYER = {
    "plan.synthesize_s": "s", "plan.lower_s": "s", "plan.validate_s": "s",
    "plan.simulate_s": "s", "plan.stage_cache_hit_ratio": "ratio",
    "core.master_lp_s": "s", "core.child_lp_s": "s", "core.extract_s": "s",
    "engine.lp_solves": "count", "engine.lp_cache_hit_ratio": "ratio",
    "engine.lp_rows": "count", "engine.lp_cols": "count",
    "engine.lp_assemble_s": "s", "engine.lp_solve_s": "s",
    "schedule.assignments": "count", "schedule.lower_failures": "count",
    "simulator.simulations": "count", "simulator.fill_rounds": "count",
    "simulator.events": "count", "simulator.rounds_per_event": "ratio",
    "simulator.fill_s": "s", "simulator.nonfill_s": "s",
    "faults.run_s": "s", "faults.adversarial_s": "s", "faults.reroute_s": "s",
    "faults.compile_s": "s", "faults.reroutes": "count",
    "faults.fabric_events": "count", "faults.route_cache_hit_ratio": "ratio",
    "perf.delta_hits": "count", "perf.delta_rebuilds": "count",
    "cluster.run_s": "s", "cluster.fill_rounds": "count", "cluster.events": "count",
    "executor.parallel_eff": "ratio", "executor.overhead_s": "s",
    "executor.steals": "count", "executor.shared_hit_ratio": "ratio",
    "trace.overhead_s": "s",
}

#: Set-up samples per run (pass set-ups plus set-up-only probes).
SETUP_SAMPLES = 5
#: No pass starts after this many seconds, so a run ends well within 180 s.
HARD_STOP = 120.0


def worker_env() -> Dict[str, str]:
    """The program from ``src/``, cold caches, temporary files kept inside.

    BLAS/OpenMP pools are pinned to one thread: the fill kernel and LP
    backend do not use them, and idle pool threads would otherwise compete
    with ``sweep-workers``' two worker processes for the host's CPUs.
    """
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("REPRO_CACHE_DIR", None)
    env["TMPDIR"] = WORK_DIR
    return env


def run_worker(args: List[str], timeout: float) -> Dict[str, object]:
    """Run ``worker.py`` with ``args``; returns its last-line JSON.

    The worker gets its own process group, so a timeout, an interrupt or a
    SIGTERM of this process also kills the sweep worker processes it started.
    """
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def src_digest() -> str:
    """SHA-256 over the program's sources (the checkout may not be a git repo)."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_sha() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def failed_frac(attempted: int, failed: int) -> float:
    """Failure fraction by the rule of succession, ``(failed+1)/(attempted+2)``.

    Never 0 (nor 1), so it can be compared as a share of a baseline; one
    more failed operation always raises it.
    """
    return (failed + 1) / (attempted + 2)


def median_of(passes: List[Dict[str, object]], key: str) -> float:
    return statistics.median(float(p[key]) for p in passes)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so run_worker stops the running pass.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program is not at {SRC}/repro", file=sys.stderr)
        return 2

    start = time.perf_counter()
    os.makedirs(WORK_DIR, exist_ok=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base_args = ["--workload", args.workload, "--seed", str(args.seed)]

    def remaining() -> float:
        return 170.0 - (time.perf_counter() - start)

    def passes_until_budget(traced: bool, first: bool) -> List[Dict[str, object]]:
        out: List[Dict[str, object]] = []
        while True:
            began = time.perf_counter()
            extra = (["--trace-out", os.path.join(RESULTS_DIR, f"{tag}-pass{len(out)}.jsonl")]
                     if traced else [])
            out.append(run_worker(base_args + extra, remaining()))
            now = time.perf_counter()
            # Stop at the pass boundary nearest to --seconds.
            if first or now - start + (now - began) / 2 > min(args.seconds, HARD_STOP):
                return out

    try:
        untraced = passes_until_budget(traced=False, first=bool(args.trace))
        traced = passes_until_budget(traced=True, first=False) if args.trace else []
        passes = untraced + traced
        setups = [float(p["setup_s"]) for p in passes]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(float(run_worker(base_args + ["--setup-only"],
                                           remaining())["setup_s"]))
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    for i, p in enumerate(passes):
        for label, reason in p["failures"]:
            print(f"FAILED pass {i} {label}: {reason}")
    attempted = sum(int(p["attempted"]) for p in passes)
    failed = sum(int(p["failed"]) for p in passes)
    correct = all(int(p["check_failures"]) == 0 for p in passes)

    if args.trace:
        metrics = {name: statistics.median(float(p["layers"][name]) for p in traced)
                   for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (median_of(traced, "wall_s")
                                       - median_of(untraced, "wall_s"))
        units = PER_LAYER
    else:
        metrics = {"wall_s": statistics.fmean(float(p["wall_s"]) for p in passes),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": median_of(passes, "peak_rss_mb"),
                   "failed_frac": statistics.median(
                       failed_frac(int(p["attempted"]), int(p["failed"])) for p in passes),
                   "sim_time_s": median_of(passes, "sim_time_s"),
                   "sim_frac_of_bound": median_of(passes, "sim_frac_of_bound")}
        units = END_TO_END

    stamp = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "git_sha": git_sha(), "src_digest": src_digest(),
             **passes[0]["stamp"], "passes": len(passes),
             "setup_samples": setups,
             "wall_s_each": [float(p["wall_s"]) for p in passes]}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    with open(os.path.join(RESULTS_DIR, f"{tag}.json"), "w") as fh:
        json.dump({"stamp": stamp, "passes": passes, **result}, fh, indent=1)
    for name in units:
        print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]}")
    print("stamp " + json.dumps(stamp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
