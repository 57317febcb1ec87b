"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded by the benchmark's own code around each call it makes
into a layer of the program (``Plan.run(through=stage)``, ``run_faulted``,
``worst_case_failures``, ``run_sweep``); nothing inside the program is
instrumented.  Each span has a name, start, end, parent span id and the id
of the operation it belongs to.  Spans stay in memory and are written out
once, when the pass ends.

With tracing off the recorder is a no-op, so the untraced pass runs the
same code path minus the bookkeeping.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


class Tracer:
    """Collects spans when ``enabled``; otherwise records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []
        self.op_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record ``name`` around the body; the innermost open span is its parent."""
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        record: Dict[str, object] = {
            "id": span_id, "name": name, "op": self.op_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None, "error": None}
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the time its child spans cover.

        Children of one span run one after another (the load is closed-loop
        from a single thread), so the covered time is the sum of their
        durations.
        """
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        out: Dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        base = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "start": s["start"] - base,
                                     "end": s["end"] - base}) + "\n")
