"""The four benchmark workloads: their inputs, generated from a seed.

This module is standard-library only, so ``run.py`` and the
self-tests can build and compare inputs without importing the program.

The seed picks which ``rrg:d=3,n=16`` instances ``sweep-workers`` sweeps:
a sample from a fixed pool whose LP optima (and ``sssp`` flows) are pinned
in ``pins.json`` (regenerate with ``make_pins.py``), so every scenario of
every seed has a pin to check against.  It also picks ``dynamic``'s
flapping link, flap phase, fault seed and cluster-trace seed; the flap's
times are laid out over the schedule's own zero-fault completion time,
which the pass's first operation computes.

``sim-buffers`` runs one fixed ``rrg:d=4,n=24`` instance (generator seed
1).  Over generator seeds 0-15 its four-buffer sweep takes from 0.6 s to
4.5 s (2-CPU host, numpy fill kernel), so a seeded instance would let the
input draw, not the program, set the spread of ``wall_s``.  Both of its
topologies have 24 nodes, not 32: at 32 one pass took about 18 s, so a
run held a single pass, and its ``wall_s`` one pass's noise.

The fixed topologies (``genkautz``, ``hypercube``) are the paper's families
and do not depend on the seed.
"""

from __future__ import annotations

import random
from typing import Dict, List

KIB = 1024
MIB = 1024 * KIB

WORKLOADS = ("synth-paper", "sim-buffers", "dynamic", "sweep-workers")

#: The two topologies of ``sim-buffers``.
SIM_GENKAUTZ = "genkautz:d=4,n=24"
SIM_RRG = "rrg:d=4,n=24,seed=1"
#: Generator seeds ``0..RRG16_POOL-1`` of the ``rrg:d=3,n=16`` pool
#: sampled by ``sweep-workers``.
RRG16_POOL = 64
#: Distinct ``rrg:d=3,n=16`` instances in one ``sweep-workers`` grid.
SWEEP_INSTANCES = 48

SIM_BUFFERS = (64 * KIB, 1 * MIB, 16 * MIB, 256 * MIB)
SWEEP_BUFFERS = (1 * MIB, 16 * MIB)
SWEEP_SCHEMES = ("mcf-extp", "sssp")

#: ``dynamic`` runs on this schedule at this buffer size.
DYNAMIC_TOPOLOGY = "hypercube:dim=4"
DYNAMIC_BUFFER = 16 * MIB
FLAP_EPOCHS = 40
ADVERSARIAL_CANDIDATES = 10
CLUSTER_JOBS = 6
#: Poisson arrivals per second.  High enough that the six jobs overlap for
#: every seed, so the seed moves the cluster's fill work by only about 5%.
CLUSTER_RATE = 100000
CLUSTER_ROUNDS = 2


def rrg16_spec(index: int) -> str:
    return f"rrg:d=3,n=16,seed={index}"


def hypercube_links(dim: int) -> List[tuple]:
    """Undirected links ``(u, v)`` with ``u < v`` of a ``dim``-cube."""
    return [(u, u ^ (1 << b)) for u in range(1 << dim) for b in range(dim)
            if u < u ^ (1 << b)]


def flap_spec(link: tuple, phase: float, seed: int, baseline_seconds: float) -> str:
    """A fault spec taking ``link`` down and up ``FLAP_EPOCHS`` times.

    Epochs are evenly spaced over 90% of ``baseline_seconds``, the
    schedule's zero-fault completion time (simulated seconds), shifted by
    ``phase`` (a fraction of one spacing); the last one comes before 93% of
    it, so every epoch falls inside the faulted run.
    """
    u, v = link
    step = 0.9 * baseline_seconds / FLAP_EPOCHS
    events = []
    for i in range(FLAP_EPOCHS):
        at_us = (0.02 * baseline_seconds + (i + phase) * step) * 1e6
        kind = "down" if i % 2 == 0 else "up"
        events.append(f"{kind}={u}~{v}@{at_us:.4f}us")
    return "faults:" + ":".join(events) + f":seed={seed}"


def cluster_spec(seed: int) -> str:
    return (f"cluster:jobs={CLUSTER_JOBS}:arrival=poisson~{CLUSTER_RATE}"
            f":placement=packed:rounds={CLUSTER_ROUNDS}:seed={seed}")


def make_inputs(workload: str, seed: int) -> Dict[str, object]:
    """Every seed-dependent input of ``workload``; same seed, same inputs."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    if workload in ("synth-paper", "sim-buffers"):
        return {}
    if workload == "dynamic":
        link = rng.choice(hypercube_links(4))
        fault_seed = rng.randrange(1 << 16)
        return {"flap_link": link, "flap_phase": rng.random(),
                "fault_seed": fault_seed,
                "cluster": cluster_spec(rng.randrange(1 << 16))}
    picks = sorted(rng.sample(range(RRG16_POOL), SWEEP_INSTANCES))
    return {"rrgs": [rrg16_spec(i) for i in picks]}


def scenario_fields(workload: str, inputs: Dict[str, object]) -> List[Dict[str, object]]:
    """The ``Scenario`` fields of each plan operation, in execution order.

    ``dynamic`` adds its faulted run and adversarial search on the first
    plan's schedule; ``sweep-workers`` hands all its scenarios to one sweep.
    """
    if workload == "synth-paper":
        return [{"topology": "genkautz:d=4,n=64", "scheme": "mcf-extp"},
                {"topology": "hypercube:dim=6", "scheme": "mcf-extp"},
                {"topology": "genkautz:d=4,n=16", "scheme": "tsmcf",
                 "buffers": (1 * MIB,)},
                {"topology": "hypercube:dim=6", "scheme": "ewsp"}]
    if workload == "sim-buffers":
        return [{"topology": topo, "scheme": "mcf-extp", "buffers": (b,)}
                for topo in (SIM_GENKAUTZ, SIM_RRG)
                for b in SIM_BUFFERS]
    if workload == "dynamic":
        return [{"topology": DYNAMIC_TOPOLOGY, "scheme": "mcf-extp",
                 "buffers": (DYNAMIC_BUFFER,)},
                {"topology": DYNAMIC_TOPOLOGY, "scheme": "mcf-extp",
                 "buffers": (DYNAMIC_BUFFER,), "cluster": inputs["cluster"]}]
    return [{"topology": topo, "scheme": scheme, "buffers": (b,)}
            for topo in inputs["rrgs"] for scheme in SWEEP_SCHEMES
            for b in SWEEP_BUFFERS]
