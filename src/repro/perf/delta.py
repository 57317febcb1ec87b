"""The mutable compiled flow program behind the fluid driver.

:class:`DeltaProgram` is the one program type whose flow set or fabric
changes while a simulation runs (static runs keep a plain
:class:`~repro.simulator.engine.FlowProgram`).  Its flows live in a slotted
incidence arena with a warm :class:`~repro.perf.fillkernel.FillWorkspace`,
and it serves two kinds of mutation:

* **fabric epochs** (:mod:`repro.faults.runner`) — the full flow set is
  compiled **once** per (schedule, fabric) and each epoch then patches the
  per-link capacities in place for ``down`` / ``up`` / ``scale`` events
  (:meth:`DeltaProgram.set_capacities` — injection and forwarding rows
  never change across epochs, the fault timeline only touches links) and
  swaps the incidence slots of rerouted flows
  (:meth:`DeltaProgram.set_paths`).  Flow ids never change, so epoch traces
  can key on them; retired or stranded flows are simply masked out of the
  fill;
* **flow injection** (:mod:`repro.cluster.runner`) — an arena that starts
  empty; :meth:`DeltaProgram.append` adds a flow set's slot spans when a
  job's comm phase starts, retired rows stay masked, and
  :meth:`DeltaProgram.compact` drops them wholesale once they outnumber the
  live ones — an amortized, not per-completion, O(nnz) rebuild.

Every flow compiled at build time owns a fixed span of incidence slots;
unused slots point at an appended **slack resource** whose capacity
(:data:`SLACK_CAP`) is so large it can never be a bottleneck, so slot
padding is invisible to the max-min fill (the rates are bit-identical to a
fresh ``compile_flows`` of the survivors — asserted in
``tests/test_faults.py``).  A reroute that overflows its span triggers one
geometric regrow of the whole arena (``rebuilds`` counts them; spans
double, so regrows amortize out).  Appended spans carry no padding:
injected flows are never rerouted.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fillkernel import FillWorkspace

__all__ = ["DeltaProgram", "SLACK_CAP"]

Path = Tuple[int, ...]

#: Capacity of the slack resource backing unused incidence slots.  Large
#: enough that its fair share can never be the round minimum, finite so the
#: kernels never do ``inf`` arithmetic.
SLACK_CAP = 1e30

#: Free incidence slots appended to every flow's span at build time, so the
#: common BFS repair (same length or slightly longer than the planned path)
#: fits without a regrow.
_PAD_SLOTS = 2

#: Arenas smaller than this are never compacted: the sweep would cost more
#: than the dead rows it drops.
_COMPACT_MIN = 16


class DeltaProgram:
    """A mutable compiled flow program: slotted incidence + warm workspace.

    Built over an initial flow set (original planned paths, against the
    base fabric with its down set stripped — a planned path may cross a
    base down link only if the caller reroutes it before the first fill),
    which may be empty.  Callers mask inactive flows instead of compacting
    them, which is rate-identical to compiling the survivors: the fill
    kernels read only the incidence, capacities and active mask, never the
    sizes.

    ``program`` / ``workspace`` are live views over the mutable arrays —
    the edit methods change them in place (or replace them on a regrow,
    append or compaction) between fills.  :meth:`clone` gives an
    independent copy sharing the immutable layout (used by concurrent
    adversarial evaluations).
    """

    def __init__(self, topology, fabric, paths: Sequence[Path] = (),
                 sizes: Sequence[float] = ()) -> None:
        from ..simulator.engine import FluidFlow, compile_flows

        self.topology = topology
        self.base_fabric = fabric
        template_fabric = replace(fabric, down_links=())
        flows = [FluidFlow(path=tuple(p), size_bytes=max(float(s), 0.0))
                 for p, s in zip(paths, sizes)]
        base = compile_flows(topology, flows, template_fabric,
                             include_latency=False)
        self.num_flows = int(base.num_flows)
        self.num_real_res = len(base.res_cap)
        self.slack = self.num_real_res
        self._edges = tuple(topology.edges)
        self._num_links = len(self._edges)
        self._edge_index = {e: i for i, e in enumerate(self._edges)}
        self._topo_cap = np.array(
            [topology.capacity(u, v) for u, v in self._edges], dtype=float)
        max_deg = topology.max_degree()
        self._inj_base = (self._num_links
                          if fabric.injection_limited(max_deg) else None)
        fwd_base = self._num_links + (
            topology.num_nodes if self._inj_base is not None else 0)
        self._fwd_base = (fwd_base if fabric.forwarding_bandwidth is not None
                          else None)
        self.res_cap = np.concatenate([base.res_cap, [SLACK_CAP]])
        self._cap_key: Optional[Tuple[object, object]] = None
        self.set_capacities(fabric)

        # One slot span per flow: the template entries (compile_flows emits
        # them flow-major) plus _PAD_SLOTS of slack headroom.
        counts = np.bincount(base.inc_flow,
                             minlength=self.num_flows).astype(np.int64)
        self._caps = counts + _PAD_SLOTS
        self._starts = np.zeros(self.num_flows + 1, dtype=np.int64)
        np.cumsum(self._caps, out=self._starts[1:])
        self._lens = counts.copy()
        nnz = int(self._starts[-1])
        self.ent_flow = np.repeat(
            np.arange(self.num_flows, dtype=np.int64), self._caps)
        self.ent_res = np.full(nnz, self.slack, dtype=np.int64)
        src = np.zeros(self.num_flows + 1, dtype=np.int64)
        np.cumsum(counts, out=src[1:])
        for i in range(self.num_flows):
            s = int(self._starts[i])
            self.ent_res[s:s + counts[i]] = base.inc_res[src[i]:src[i + 1]]
        self._encoded: List[Path] = [tuple(p) for p in paths]
        self._sizes = np.asarray(base.sizes, dtype=float)
        self.start_delays = np.zeros(self.num_flows)
        self.set_ids = np.zeros(self.num_flows, dtype=np.int64)
        self.set_names: Tuple[str, ...] = ("delta",) if self.num_flows else ()
        self.rebuilds = 0
        self.compactions = 0
        self._init_views()

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def _program_view(self):
        """A FlowProgram over the current arenas (no copies)."""
        from ..simulator.engine import FlowProgram

        return FlowProgram(
            num_flows=self.num_flows,
            sizes=self._sizes,
            start_delays=self.start_delays,
            set_ids=self.set_ids,
            set_names=self.set_names,
            res_cap=self.res_cap,
            inc_res=self.ent_res,
            inc_flow=self.ent_flow,
            meta={"delta": True},
        )

    def _init_views(self) -> None:
        """(Re)build the FlowProgram/FillWorkspace views over the arenas."""
        self.program = self._program_view()
        ws = FillWorkspace(self.program)
        # The flow-major view must alias the slot arena so in-place slot
        # writes propagate without re-sorting: ent_flow is sorted, so the
        # stable argsort inside FillWorkspace is the identity permutation.
        ws.flow_res = self.ent_res
        ws.res_cap = self.res_cap
        self.workspace = ws
        self._csr_dirty = False

    def _refresh_csr(self) -> None:
        """Recompute the resource-major CSR into the existing arenas."""
        ws = self.workspace
        order = np.argsort(self.ent_res, kind="stable")
        np.take(self.ent_flow, order, out=ws.res_flows)
        np.cumsum(np.bincount(self.ent_res, minlength=len(self.res_cap)),
                  out=ws.res_ptr[1:])
        self._csr_dirty = False

    # ------------------------------------------------------------------ #
    # Fabric-epoch edits
    # ------------------------------------------------------------------ #
    def set_capacities(self, epoch_fabric) -> None:
        """Patch the per-link capacities for one epoch fabric, in place.

        Down links get capacity zero (their flows must have been rerouted
        or masked; a zero-rate stall is the canary for a missed reroute).
        Injection/forwarding rows are epoch-invariant and never touched.
        Idempotent per ``(down_links, link_scale)`` state, so flapping
        timelines that revisit a state skip the rebuild entirely.
        """
        key = (epoch_fabric.down_links, epoch_fabric.link_scale)
        if key == self._cap_key:
            return
        bw = epoch_fabric.link_bandwidths(self._edges)
        self.res_cap[:self._num_links] = self._topo_cap * np.array(
            [bw[e] for e in self._edges], dtype=float)
        self._cap_key = key

    def _entries_for(self, path: Path) -> List[int]:
        """Resource entries for one path, in ``compile_flows`` order."""
        index = self._edge_index
        try:
            ents = [index[e] for e in zip(path[:-1], path[1:])]
        except KeyError as exc:
            raise ValueError(
                f"path {path} uses non-existent link {exc.args[0]}") from exc
        if self._inj_base is not None:
            ents.append(self._inj_base + path[0])
        if self._fwd_base is not None:
            ents.extend(self._fwd_base + node for node in path[1:-1])
        return ents

    def set_paths(self, paths: Sequence[Optional[Path]]) -> int:
        """Point each flow's incidence slots at its route in force.

        Only flows whose route differs from the encoded one are touched;
        ``None`` (stranded) keeps the previous slots — the caller masks the
        flow out of the fill.  Returns the number of arena regrows (0 or 1):
        a route overflowing its span rebuilds the whole arena with doubled
        spans for the overflowing flows.
        """
        encoded = self._encoded
        pending: Dict[int, List[int]] = {}
        overflow = False
        for i, path in enumerate(paths):
            if path is None or path == encoded[i]:
                continue
            ents = self._entries_for(path)
            pending[i] = ents
            if len(ents) > self._caps[i]:
                overflow = True
        if not pending:
            return 0
        if overflow:
            self._rebuild(pending, paths)
            return 1
        slack = self.slack
        for i, ents in pending.items():
            s = int(self._starts[i])
            ln = len(ents)
            self.ent_res[s:s + ln] = ents
            self.ent_res[s + ln:s + int(self._caps[i])] = slack
            self._lens[i] = ln
            encoded[i] = paths[i]
        self._csr_dirty = True
        return 0

    def apply(self, epoch_fabric, paths: Sequence[Optional[Path]]) -> int:
        """One epoch's full delta: capacities + routes + CSR refresh.

        Returns the number of arena rebuilds (0 for a pure in-place epoch).
        """
        self.set_capacities(epoch_fabric)
        rebuilds = self.set_paths(paths)
        if self._csr_dirty:
            self._refresh_csr()
        return rebuilds

    def _set_spans(self, caps: np.ndarray) -> None:
        """Lay out one slot span of ``caps[i]`` entries per flow."""
        self._caps = caps
        self._starts = np.zeros(len(caps) + 1, dtype=np.int64)
        np.cumsum(caps, out=self._starts[1:])
        self.ent_flow = np.repeat(np.arange(len(caps), dtype=np.int64), caps)

    def _rebuild(self, pending: Dict[int, List[int]],
                 paths: Sequence[Optional[Path]]) -> None:
        """Geometric regrow: double the span of every overflowing flow."""
        per_flow: List[np.ndarray] = [
            self.ent_res[self._starts[i]:self._starts[i] + self._lens[i]]
            for i in range(self.num_flows)]
        encoded = list(self._encoded)
        new_caps = self._caps.copy()
        for i, ents in pending.items():
            per_flow[i] = np.asarray(ents, dtype=np.int64)
            encoded[i] = paths[i]
            new_caps[i] = max(int(new_caps[i]), 2 * len(ents))
        self._set_spans(new_caps)
        self._lens = np.array([len(e) for e in per_flow], dtype=np.int64)
        ent_res = np.full(int(self._starts[-1]), self.slack, dtype=np.int64)
        for i in range(self.num_flows):
            s = int(self._starts[i])
            ent_res[s:s + self._lens[i]] = per_flow[i]
        self.ent_res = ent_res
        self._encoded = encoded
        self.rebuilds += 1
        self._init_views()

    # ------------------------------------------------------------------ #
    # Flow injection
    # ------------------------------------------------------------------ #
    def append(self, flows, name: str) -> int:
        """Append a flow set as new rows; returns its set id.

        The batch is compiled with the engine's ``compile_flows`` against
        the base fabric (so degraded fabrics, injection and forwarding caps
        and start-up latencies behave exactly as in a static run) and its
        incidence appended with the flow ids offset past the current rows.
        """
        from ..simulator.engine import compile_flows

        batch = compile_flows(self.topology, flows, self.base_fabric)
        counts = np.bincount(batch.inc_flow,
                             minlength=batch.num_flows).astype(np.int64)
        offset = self.num_flows
        set_id = len(self.set_names)
        self._set_spans(np.concatenate([self._caps, counts]))
        self._lens = np.concatenate([self._lens, counts])
        self.ent_res = np.concatenate([self.ent_res, batch.inc_res])
        self._encoded.extend(tuple(f.path) for f in flows)
        self._sizes = np.concatenate([self._sizes, batch.sizes])
        self.start_delays = np.concatenate([self.start_delays,
                                            batch.start_delays])
        self.set_ids = np.concatenate(
            [self.set_ids, np.full(batch.num_flows, set_id, dtype=np.int64)])
        self.set_names = self.set_names + (name,)
        self.num_flows = offset + batch.num_flows
        self._init_views()
        return set_id

    def compact(self, live: np.ndarray) -> bool:
        """Drop the rows outside ``live`` once they outnumber the live ones.

        Lazy by design: until then retired rows just stay masked out of
        the fill.  Returns True when the arena was compacted — the caller
        then keeps only the ``live`` entries of its own per-flow arrays.
        """
        num_live = int(np.count_nonzero(live))
        if (self.num_flows - num_live <= num_live
                or self.num_flows < _COMPACT_MIN):
            return False
        entry_keep = live[self.ent_flow]
        self.ent_res = self.ent_res[entry_keep]
        self._set_spans(self._caps[live])
        self._lens = self._lens[live]
        self._encoded = [p for p, keep in zip(self._encoded, live) if keep]
        self._sizes = self._sizes[live]
        self.start_delays = self.start_delays[live]
        self.set_ids = self.set_ids[live]
        self.num_flows = num_live
        self.compactions += 1
        self._init_views()
        return True

    # ------------------------------------------------------------------ #
    # Cloning (concurrent adversarial evaluations)
    # ------------------------------------------------------------------ #
    def clone(self) -> "DeltaProgram":
        """An independent mutable copy sharing the immutable layout.

        The slot layout (``ent_flow``, spans) and topology metadata are
        shared — a regrow *replaces* those arrays rather than mutating
        them, so sharing is safe even if the clone later rebuilds.  The
        mutable state (``ent_res``, ``res_cap``, CSR view, scratch arenas)
        is copied, so clones evolve independently.
        """
        new = object.__new__(DeltaProgram)
        new.__dict__.update(self.__dict__)
        new.ent_res = self.ent_res.copy()
        new.res_cap = self.res_cap.copy()
        new._lens = self._lens.copy()
        new._encoded = list(self._encoded)
        new.rebuilds = 0
        new.compactions = 0
        new.program = new._program_view()
        src = self.workspace
        ws = object.__new__(FillWorkspace)
        ws.num_res = src.num_res
        ws.num_flows = src.num_flows
        ws.res_cap = new.res_cap
        ws.res_flows = src.res_flows.copy()
        ws.res_ptr = src.res_ptr.copy()
        ws.flow_res = new.ent_res
        ws.flow_ptr = src.flow_ptr
        ws.rates = np.zeros(new.num_flows)
        ws.frozen = np.empty(new.num_flows, dtype=np.bool_)
        ws.freeze = np.empty(new.num_flows, dtype=np.bool_)
        ws.stack = np.empty(new.num_flows, dtype=np.int64)
        ws.residual = np.empty(len(new.res_cap))
        ws.counts = np.empty(len(new.res_cap), dtype=np.int64)
        ws.share = np.empty(len(new.res_cap))
        new.workspace = ws
        new._csr_dirty = False
        return new
