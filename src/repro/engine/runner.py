"""Process-pool map for the decomposed MCF's independent child LPs.

The paper's decomposed MCF solves one master LP and then N independent
per-source child LPs, which it spreads across cores.  :class:`ParallelRunner`
is that fan-out: a plain loop for ``jobs <= 1`` (deterministic and debugger
friendly) and a ``ProcessPoolExecutor`` otherwise, so the mapped function
must be a picklable module-level callable.  Results come back in input
order, so parallel runs are byte-identical to serial ones for deterministic
work.

Scenario-level parallelism lives elsewhere: sweeps, comparisons and reports
fan out across worker processes through
:func:`repro.experiments.run_sweep` (``workers=N``).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, TypeVar

__all__ = ["ParallelRunner"]

T = TypeVar("T")
R = TypeVar("R")


class ParallelRunner:
    """Order-preserving map: serial for ``jobs <= 1``, a process pool otherwise."""

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``fn`` to every item, returning results in input order.

        Exceptions propagate to the caller.
        """
        items = list(items)
        if self.jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            return list(pool.map(fn, items))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelRunner(jobs={self.jobs})"
