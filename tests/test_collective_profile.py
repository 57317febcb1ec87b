"""Simulate once per schedule: rescaled profiles vs a per-buffer oracle.

``throughput_sweep`` simulates a schedule once, at the reference shard, and
rescales the transfer times to every buffer.  The oracle here is the
pre-profile execution path, kept only in this file: compile the flows at
each buffer's true byte sizes and execute them (per step, for link
schedules).  Completion times must agree to 1e-9 relative, and the fill
rounds and events must be identical — the guard on the choice of
``SIM_REFERENCE_SHARD_BYTES``.  The oracle runs on a budget of five times
the reference's events, so a per-buffer run that stalls on a sub-ulp
completion edge fails fast instead of exhausting the default budget.
"""

from __future__ import annotations

import pytest

from repro.experiments import Plan, Scenario, configure_plan_cache, result_from_plan
from repro.schedule import LinkSchedule, RoutedSchedule
from repro.simulator import (
    FabricModel,
    FluidFlow,
    compile_flows,
    engine_counters,
    execute,
    throughput_sweep,
)

REL = 1e-9
BUFFERS = (0.0, 2.0 ** 10, 2.0 ** 15, 2.0 ** 20, 2.0 ** 25, 2.0 ** 30)
#: The rrg is one whose mcf-extp fill rounds change (9,014 instead of
#: 9,035) if the profile is simulated at a 1-byte reference shard, so the
#: oracle comparison below fails for a too-small reference.  Its tsmcf LP
#: takes minutes to solve, so it runs the routed schemes only.
RRG = "rrg:d=4,n=20,seed=1"
#: A 2^32-byte shard: flows so large that the absolute ``SIM_BYTES_EPS``
#: window is below one ulp of their residues, so only the relative edge
#: window retires them (the reference takes 105 fill rounds / 31 events).
LARGE = ("genkautz:d=3,n=12", "mcf-extp")
EXTRA_BUFFERS = {LARGE: (12 * 2.0 ** 32,)}
CASES = [(topology, scheme)
         for topology in ("hypercube:dim=3", "torus:dims=3x3", "genkautz:d=3,n=10", RRG)
         for scheme in ("mcf-extp", "sssp", "tsmcf")
         if (topology, scheme) != (RRG, "tsmcf")] + [LARGE]


def _copy_names(overlap):
    return tuple(f"copy{c}" for c in range(overlap))


def oracle_routed(schedule, buffer_bytes, fabric, overlap, max_events):
    """Per-buffer execution: every chunk a flow of its true byte size."""
    shard = buffer_bytes / schedule.topology.num_nodes
    flows, set_ids = [], []
    for copy in range(overlap):
        for a in schedule.assignments:
            flows.append(FluidFlow(path=a.route, size_bytes=a.chunk.bytes(shard)))
            set_ids.append(copy)
    sim = execute(compile_flows(schedule.topology, flows, fabric, set_ids=set_ids,
                                set_names=_copy_names(overlap)),
                  max_events=max_events)
    per_copy = [sim.set_completion_times[name] for name in _copy_names(overlap)]
    return sim.completion_time, per_copy, sim.fill_rounds, sim.events_processed


def oracle_link(schedule, buffer_bytes, fabric, overlap, max_events):
    """Per-buffer stepped execution: each step's link loads at true size."""
    fabric = fabric or FabricModel(nic_forwarding=False)
    shard = buffer_bytes / schedule.topology.num_nodes
    total, rounds, events = 0.0, 0, 0
    for step in range(1, schedule.num_steps + 1):
        link_bytes = schedule.link_bytes(step, shard)
        if not link_bytes:
            continue
        flows = [FluidFlow(path=edge, size_bytes=nbytes)
                 for _ in range(overlap) for edge, nbytes in link_bytes.items()]
        set_ids = [copy for copy in range(overlap) for _ in link_bytes]
        sim = execute(compile_flows(schedule.topology, flows, fabric, set_ids=set_ids,
                                    set_names=_copy_names(overlap),
                                    include_latency=False, include_ejection=True),
                      max_events=max_events)
        total += (fabric.per_step_latency + fabric.per_message_overhead
                  + sim.completion_time)
        rounds += sim.fill_rounds
        events += sim.events_processed
    return total, [total] * overlap, rounds, events


@pytest.fixture(scope="module")
def lowered():
    """Lowered schedules (and fabrics) for every case."""
    out = {}
    for topology, scheme in CASES:
        plan = Plan(Scenario(topology=topology, scheme=scheme))
        out[topology, scheme] = (plan.run("lower").lowered,
                                 plan.scenario.resolved_fabric())
    return out


@pytest.mark.parametrize("overlap", [1, 2])
@pytest.mark.parametrize("topology,scheme", CASES)
def test_rescaled_sweep_matches_per_buffer_oracle(lowered, topology, scheme, overlap):
    schedule, fabric = lowered[topology, scheme]
    expect_link = scheme == "tsmcf"
    assert isinstance(schedule, LinkSchedule if expect_link else RoutedSchedule)
    oracle = oracle_link if expect_link else oracle_routed
    buffers = BUFFERS + EXTRA_BUFFERS.get((topology, scheme), ())
    results = throughput_sweep(schedule, buffers, fabric=fabric, overlap=overlap)
    assert [r.buffer_bytes for r in results] == list(buffers)
    for res in results:
        completion, per_copy, rounds, events = oracle(
            schedule, res.buffer_bytes, fabric, overlap,
            max_events=5 * max(res.meta["events"], 1))
        assert res.completion_time == pytest.approx(completion, rel=REL, abs=0.0)
        assert res.per_collective_seconds == pytest.approx(per_copy, rel=REL, abs=0.0)
        assert res.meta["fill_rounds"] == rounds
        assert res.meta["events"] == events


def test_single_buffer_plans_share_one_simulation():
    """Four single-buffer scenarios of one schedule simulate exactly once."""
    buffers = (2 ** 16, 2 ** 20, 2 ** 24, 2 ** 28)
    scenarios = [Scenario(topology="hypercube:dim=3", scheme="mcf-extp",
                          buffers=(b,)) for b in buffers]

    def run_all():
        before = engine_counters()["simulations"]
        records = [result_from_plan(s, Plan(s).run()).to_record()["metrics"]
                   for s in scenarios]
        return engine_counters()["simulations"] - before, records

    configure_plan_cache(enabled=True).clear()
    cold_sims, cold = run_all()
    assert cold_sims == 1
    # A second pass re-simulates nothing.  With the simulate artifacts gone
    # but the profile kept, every scenario is a profile hit; its records
    # must equal the cold pass's, where one scenario computed the profile.
    cache = configure_plan_cache()
    profile_key = scenarios[0].stage_key("profile")
    profile = cache.get(profile_key)
    cache.clear()
    cache.put(profile_key, profile)
    warm_sims, warm = run_all()
    assert warm_sims == 0
    keys = ("completion_seconds", "sim_fill_rounds", "sim_events")
    assert [{k: m[k] for k in keys} for m in warm] == \
        [{k: m[k] for k in keys} for m in cold]
    assert cold[0]["sim_fill_rounds"] > 0
