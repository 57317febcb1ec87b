"""The benchmark's own tests.

Run from the repository root (about three minutes)::

    python3 perfbench/selftest.py

* ``BENCHMARK.json`` names exactly the workloads and metrics ``run.py`` emits;
* the same seed gives the same inputs, and another seed other ones;
* every LP scenario any seed can produce has a pinned optimum;
* span self time is span time minus covered child time;
* determinism: two traced passes of each workload with the same seed
  repeat the deterministic counters and ``sim_time_s`` exactly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (ADVERSARIAL_CANDIDATES, FLAP_EPOCHS,  # noqa: E402
                       WORKLOADS, make_inputs, scenario_fields)

#: Counters that must repeat exactly for a fixed seed.  Under two sweep
#: workers engine.lp_solves is the exception: both workers can synthesize
#: the same schedule when they claim its two buffer scenarios at once.
DETERMINISTIC = ("simulator.fill_rounds", "simulator.events", "engine.lp_rows",
                 "engine.lp_cols", "engine.lp_solves", "faults.reroutes",
                 "faults.fabric_events", "perf.delta_hits", "perf.delta_rebuilds")
RACY = {"sweep-workers": ("engine.lp_solves",)}


def traced_pass(workload: str, seed: int, work_dir: str) -> dict:
    spans = os.path.join(work_dir, f"{workload}-{seed}.jsonl")
    env = run.worker_env()
    env["TMPDIR"] = work_dir
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace-out", spans],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkFile(unittest.TestCase):
    def test_names_match_the_emitted_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in WORKLOADS:
            self.assertEqual(make_inputs(workload, 7), make_inputs(workload, 7))

    def test_other_seed_other_inputs(self):
        a, b = make_inputs("dynamic", 0), make_inputs("dynamic", 1)
        self.assertNotEqual((a["flap_link"], a["flap_phase"], a["fault_seed"]),
                            (b["flap_link"], b["flap_phase"], b["fault_seed"]))
        self.assertNotEqual(a["cluster"], b["cluster"])
        a, b = make_inputs("sweep-workers", 0), make_inputs("sweep-workers", 1)
        self.assertNotEqual(a["rrgs"], b["rrgs"])
        self.assertEqual(len(set(a["rrgs"])), len(a["rrgs"]))

    def test_every_lp_scenario_is_pinned(self):
        import make_pins
        from worker import LP_SCHEMES, load_pins, pin_key

        pins = load_pins()
        self.assertEqual(set(pins), {pin_key(t, s) for t, s in make_pins.pinned_scenarios()})
        for workload in WORKLOADS:
            for seed in range(50):
                for fields in scenario_fields(workload, make_inputs(workload, seed)):
                    if fields["scheme"] in LP_SCHEMES:
                        self.assertIn(pin_key(fields["topology"], fields["scheme"]), pins)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        outer, a, b = tracer.spans
        self.assertEqual((a["parent"], b["parent"]), (outer["id"], outer["id"]))
        covered = (a["end"] - a["start"]) + (b["end"] - b["start"])
        self.assertAlmostEqual(tracer.self_times()["outer"],
                               outer["end"] - outer["start"] - covered, places=12)
        self.assertAlmostEqual(tracer.total("inner"), covered, places=12)

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("outer"):
            pass
        self.assertEqual(tracer.spans, [])


class Determinism(unittest.TestCase):
    def repeat(self, workload: str) -> dict:
        os.makedirs(run.WORK_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as work_dir:
            first = traced_pass(workload, 3, work_dir)
            second = traced_pass(workload, 3, work_dir)
        self.assertEqual(first["failures"], second["failures"])
        self.assertEqual(first["sim_time_s"], second["sim_time_s"])
        for name in DETERMINISTIC:
            if name not in RACY.get(workload, ()):
                self.assertEqual(first["layers"][name], second["layers"][name], name)
        return first

    def test_dynamic(self):
        first = self.repeat("dynamic")
        # Every flap epoch falls inside the faulted run, plus one failure
        # per adversarial candidate.
        self.assertEqual(first["layers"]["faults.fabric_events"],
                         FLAP_EPOCHS + ADVERSARIAL_CANDIDATES)

    def test_sweep_workers(self):
        first = self.repeat("sweep-workers")
        self.assertEqual(len(first["worker_peaks_kb"]), worker.SWEEP_WORKERS)

    def test_synth_paper(self):
        """The slowest (about 50 s): the one workload whose LP sizes matter."""
        first = self.repeat("synth-paper")
        self.assertGreater(first["layers"]["engine.lp_rows"], 0)

    def test_sim_buffers(self):
        first = self.repeat("sim-buffers")
        self.assertGreater(first["layers"]["simulator.fill_rounds"], 0)


if __name__ == "__main__":
    unittest.main()
