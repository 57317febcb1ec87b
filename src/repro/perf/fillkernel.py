"""Native-speed progressive-filling kernels for the fluid simulator.

The max-min saturation fill is the simulator's hottest loop: it re-runs on
every completion event and every cluster injection, and the million-scenario
sweeps multiply each microsecond by the grid size.  This module provides the
interchangeable kernels behind
:func:`repro.simulator.engine.fill_rates`:

* :func:`fill_rates_numpy` — the vectorized fallback.  Same saturation-round
  algorithm the engine always ran, with the ``np.subtract.at`` residual
  update replaced by a single ``bincount`` and the per-fill ``share`` /
  ``freeze`` scratch allocations hoisted into a reusable
  :class:`FillWorkspace`.
* :func:`fill_rates_csr` — the flat-CSR kernel from
  :mod:`repro.perf._numba_impl`, JIT-compiled with
  ``numba.njit(cache=True)`` when numba is installed and interpreted
  otherwise.  It touches no temporary arrays at all: every arena lives in
  the workspace and is reused across fills.

Kernel selection is environment-driven (``REPRO_KERNEL=auto|numba|numpy``,
see :func:`fill_kernel_name`) with automatic numpy fallback when numba is
absent; :func:`run_fill` is the dispatch point the simulator engine calls.
All kernels agree with each other and with the scalar oracle in
``tests/oracles/reference.py`` to 1e-9 (``tests/test_kernels.py``).
"""

from __future__ import annotations

import os
import threading
from typing import Optional, Tuple

import numpy as np

from ..constants import SIM_EPS
from . import _numba_impl

__all__ = ["FillWorkspace", "fill_rates_numpy", "fill_rates_csr", "run_fill",
           "fill_kernel_name", "set_fill_kernel", "numba_available",
           "KERNEL_NAMES"]

#: Selectable kernel names.  ``auto`` resolves to ``numba`` when available
#: and ``numpy`` otherwise; ``python-csr`` runs the exact CSR algorithm the
#: JIT compiles, interpreted — kept selectable so the numba code path is
#: differentially tested even where the compiler is missing.
KERNEL_NAMES = ("auto", "numba", "numpy", "python-csr")

_override_lock = threading.Lock()
_override: Optional[str] = None


class FillWorkspace:
    """Preallocated scratch arenas + CSR incidence for one flow program.

    Built once per :class:`~repro.simulator.engine.FlowProgram` (the fluid
    driver owns one per static run; a :class:`~repro.perf.delta.DeltaProgram`
    rebuilds its own on flow-set changes) and reused across every fill, so
    the per-event cost is the saturation rounds themselves — no allocation,
    no incidence re-sorting.

    The COO incidence is flattened both ways: ``res_ptr``/``res_flows`` list
    each resource's entries (flow ids, duplicates preserved) and
    ``flow_ptr``/``flow_res`` each flow's entries (resource ids).  The rate
    vector ``rates`` is part of the workspace and is *reused across fills* —
    callers that keep rates beyond the next fill must copy them.
    """

    def __init__(self, program) -> None:
        """Flatten ``program``'s incidence to CSR and allocate the arenas."""
        inc_res = np.asarray(program.inc_res, dtype=np.int64)
        inc_flow = np.asarray(program.inc_flow, dtype=np.int64)
        num_res = len(program.res_cap)
        num_flows = int(program.num_flows)
        self.num_res = num_res
        self.num_flows = num_flows
        self.res_cap = np.asarray(program.res_cap, dtype=float)

        order = np.argsort(inc_res, kind="stable")
        self.res_flows = inc_flow[order]
        self.res_ptr = np.zeros(num_res + 1, dtype=np.int64)
        np.cumsum(np.bincount(inc_res, minlength=num_res), out=self.res_ptr[1:])

        order = np.argsort(inc_flow, kind="stable")
        self.flow_res = inc_res[order]
        self.flow_ptr = np.zeros(num_flows + 1, dtype=np.int64)
        np.cumsum(np.bincount(inc_flow, minlength=num_flows),
                  out=self.flow_ptr[1:])

        self.rates = np.zeros(num_flows)
        self.frozen = np.empty(num_flows, dtype=np.bool_)
        self.freeze = np.empty(num_flows, dtype=np.bool_)
        self.stack = np.empty(num_flows, dtype=np.int64)
        self.residual = np.empty(num_res)
        self.counts = np.empty(num_res, dtype=np.int64)
        self.share = np.empty(num_res)


def fill_rates_numpy(program, active: np.ndarray,
                     workspace: Optional[FillWorkspace] = None
                     ) -> Tuple[np.ndarray, int]:
    """Max-min fair rates as vectorized numpy saturation rounds.

    Each round: count unfrozen users per resource (one ``bincount``), take
    the smallest fair share, freeze every flow touching a bottleneck
    resource at that share, and retire their capacity with a second
    ``bincount`` (one vectorized multiply-subtract instead of the scattered
    ``np.subtract.at``).  With a ``workspace`` the ``share``/``freeze``
    scratch and the returned rate vector are reused across calls.
    """
    num_res = len(program.res_cap)
    num_flows = program.num_flows
    if workspace is None:
        rates = np.zeros(num_flows)
        share = np.empty(num_res)
        freeze = np.empty(num_flows, dtype=np.bool_)
        residual = program.res_cap.astype(float, copy=True)
    else:
        rates = workspace.rates
        rates.fill(0.0)
        share = workspace.share
        freeze = workspace.freeze
        residual = workspace.residual
        np.copyto(residual, program.res_cap)
    unfrozen = active.copy()
    # Compress the incidence to the surviving flows once per fill; rounds
    # then touch only these entries.
    sel = unfrozen[program.inc_flow]
    ent_res = program.inc_res[sel]
    ent_flow = program.inc_flow[sel]
    ent_alive = np.ones(ent_res.shape, dtype=bool)
    counts = np.bincount(ent_res, minlength=num_res)
    rounds = 0
    n_unfrozen = int(unfrozen.sum())
    while n_unfrozen:
        rounds += 1
        used = counts > 0
        if not used.any():
            # No constraining resource (cannot happen for well-formed paths,
            # every flow crosses at least one link): unbounded rate.
            rates[unfrozen] = np.inf
            break
        share.fill(np.inf)
        np.divide(residual, counts, out=share, where=used)
        best = float(share.min())
        # Freeze every resource tied for the minimum share.  Max-min fair
        # allocations are unique, so an exactly-tied resource would yield the
        # same share next round anyway; grouping within SIM_EPS only saves
        # the round.
        bottleneck = used & (share <= best + SIM_EPS + 1e-12 * abs(best))
        freeze.fill(False)
        freeze[ent_flow[ent_alive & bottleneck[ent_res]]] = True
        rates[freeze] = best
        ent_frozen = ent_alive & freeze[ent_flow]
        retired = np.bincount(ent_res[ent_frozen], minlength=num_res)
        residual -= best * retired
        np.maximum(residual, 0.0, out=residual)
        counts -= retired
        ent_alive &= ~ent_frozen
        unfrozen &= ~freeze
        n_unfrozen -= int(np.count_nonzero(freeze))
    return rates, rounds


def fill_rates_csr(program, active: np.ndarray,
                   workspace: Optional[FillWorkspace] = None,
                   impl=None) -> Tuple[np.ndarray, int]:
    """Run the flat-CSR saturation kernel (JIT-compiled when numba exists).

    ``impl`` overrides the kernel callable (the interpreted
    ``fill_csr_python`` for the differential test path); by default the
    jitted kernel is used, falling back to the interpreted one.
    """
    ws = workspace if workspace is not None else FillWorkspace(program)
    if impl is None:
        impl = _numba_impl.fill_csr or _numba_impl.fill_csr_python
    active_arr = np.ascontiguousarray(active, dtype=np.bool_)
    rounds = impl(ws.res_cap, ws.res_ptr, ws.res_flows, ws.flow_ptr,
                  ws.flow_res, active_arr, ws.rates, ws.frozen, ws.counts,
                  ws.residual, ws.stack, SIM_EPS)
    return ws.rates, int(rounds)


def numba_available() -> bool:
    """True when the jitted kernel exists and ``REPRO_NO_NUMBA`` is unset."""
    if os.environ.get("REPRO_NO_NUMBA"):
        return False
    return _numba_impl.fill_csr is not None


def set_fill_kernel(name: Optional[str]) -> None:
    """Force the fill kernel programmatically (``None`` restores env control).

    Accepts any of :data:`KERNEL_NAMES`; takes precedence over the
    ``REPRO_KERNEL`` environment variable until cleared.
    """
    global _override
    if name is not None and name not in KERNEL_NAMES:
        raise ValueError(
            f"unknown fill kernel {name!r}; choose from {KERNEL_NAMES}")
    with _override_lock:
        _override = name


def fill_kernel_name() -> str:
    """The kernel the next fill will dispatch to, after fallback resolution.

    Resolution order: :func:`set_fill_kernel` override, then the
    ``REPRO_KERNEL`` environment variable, then ``auto``.  ``auto`` and an
    unavailable ``numba`` request both degrade to ``numpy`` — requesting the
    JIT where the compiler is missing is never an error.
    """
    with _override_lock:
        name = _override
    if name is None:
        name = os.environ.get("REPRO_KERNEL", "auto").lower()
    if name not in KERNEL_NAMES:
        raise ValueError(
            f"REPRO_KERNEL must be one of {KERNEL_NAMES}, got {name!r}")
    if name == "auto":
        return "numba" if numba_available() else "numpy"
    if name == "numba" and not numba_available():
        return "numpy"
    return name


def run_fill(program, active: np.ndarray,
             workspace: Optional[FillWorkspace] = None
             ) -> Tuple[np.ndarray, int, str]:
    """Dispatch one fill to the selected kernel.

    Returns ``(rates, rounds, kernel_name)`` — the engine surfaces the
    kernel name and cumulative fill seconds in the ``[stats]`` footer.
    """
    name = fill_kernel_name()
    if name == "numba":
        rates, rounds = fill_rates_csr(program, active, workspace)
    elif name == "python-csr":
        rates, rounds = fill_rates_csr(program, active, workspace,
                                       impl=_numba_impl.fill_csr_python)
    else:
        rates, rounds = fill_rates_numpy(program, active, workspace)
    return rates, rounds, name
