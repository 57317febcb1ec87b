"""Shared numerical tolerances.

Every tolerance used to interpret LP output or drive the fluid simulator
lives here so that the semantics are documented once and the values cannot
drift apart between modules.

FLOW_TOL
    Threshold below which an LP flow variable is treated as zero when a
    solution is read back from the solver.  HiGHS reports primal values with
    ~1e-10 noise around zero; 1e-9 cleanly separates genuine (rational) flow
    values from that noise for the unit-capacity problems solved here.  Used
    by every MCF formulation and by the path decomposition in
    :mod:`repro.core.flow`.

SIM_EPS
    Epsilon for the fluid (progressive-filling) simulator's *rate*
    comparisons: a rate below ``SIM_EPS`` bytes/second is treated as zero
    (the flow is stalled), and two resource fair-shares closer than
    ``SIM_EPS`` are considered tied.  It is much tighter than ``FLOW_TOL``
    because the simulator accumulates byte counts over many events and a
    loose epsilon would terminate transfers early.

SIM_BYTES_EPS
    Threshold below which a flow's *remaining bytes* count as delivered.
    Progressive filling advances time by ``remaining / rate`` divisions
    whose float round-off leaves residues far above ``SIM_EPS``; without
    this coarser cutoff a flow could survive its own completion event and
    spin the event loop.  Shared by the vectorized engine and the scalar
    reference simulator so their completion times stay comparable.

SIM_REFERENCE_SHARD_BYTES
    Shard size at which a schedule's buffer-free collective profile
    (:mod:`repro.simulator.collective`) is simulated before its transfer
    times are rescaled to each buffer.  Rates never read byte counts, so
    transfer times are homogeneous in the shard size, but the absolute
    ``SIM_BYTES_EPS`` completion window is not: with few-byte flows it
    merges near-simultaneous completions (a 1-byte reference changes the
    fill rounds), and with flows of ~2^30 bytes round-off outgrows it.  A
    fixed power of two between those extremes reproduces per-buffer runs
    with identical fill rounds and events, and makes the rescale factor
    exact in the exponent.

SCHEDULE_TOL
    Coverage tolerance for schedule validation: a commodity counts as fully
    covered when its chunk assignments sum to at least ``1 - SCHEDULE_TOL``.
    Chunking quantizes path weights to small rational fractions, so the
    round-off is far larger than LP noise.
"""

from __future__ import annotations

__all__ = ["FLOW_TOL", "SIM_EPS", "SIM_BYTES_EPS",
           "SIM_REFERENCE_SHARD_BYTES", "SCHEDULE_TOL"]

FLOW_TOL = 1e-9

SIM_EPS = 1e-12

SIM_BYTES_EPS = 1e-6

SIM_REFERENCE_SHARD_BYTES = float(2 ** 20)

SCHEDULE_TOL = 1e-6
