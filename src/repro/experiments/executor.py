"""Work-stealing multiprocess sweep executor with shared-memory artifacts.

:func:`run_sweep_workers` scales :func:`~repro.experiments.sweep.run_sweep`
past the GIL: the scenario grid becomes a work queue keyed by scenario hash,
N worker *processes* pull scenarios from their own contiguous slice and steal
from the tail of the busiest sibling when idle, and each worker streams one
JSONL record per completed scenario to its own resumable shard under
``<out>.shards/``.  When every worker has drained, the parent merges the
shards (plus any pre-existing output) into the same single JSONL file the
serial sweep emits: records sorted by scenario hash, duplicate keys
deduped (``ok`` beats ``error``, first occurrence wins), torn trailing lines
healed by being skipped.

Workers skip re-synthesis through a :class:`SharedArtifactPlane`: a
read-mostly artifact tier for hot stage keys (stage keys shared by two or
more pending scenarios — the topology/``FlowProgram``/schedule payloads of
hot ``(topology, scheme)`` pairs).  The plane attaches to the per-process
stage cache (:meth:`repro.engine.cache.SolutionCache.attach_shared`), so the
first worker to synthesize a schedule publishes it and every other worker's
lookup is a cross-process hit instead of an LP solve.  Two backends:

* ``shm``  — ``multiprocessing.shared_memory`` segments with deterministic
  names derived from the run id and stage key (POSIX; the default);
* ``mmap`` — memory-mapped pickle files under a run-scoped directory
  (``$REPRO_CACHE_DIR`` when set, else the system temp dir).

Either way the parent owns cleanup: segments/files are removed when the
executor returns, whether workers exited cleanly or crashed.

Execution accounting (per-worker completed counts, steal count, shared
hits/misses, scenarios/sec) is returned as :class:`ExecutorStats` and kept
retrievable via :func:`last_executor_stats` for callers that reach the
executor through ``run_sweep(workers=N)`` and only want the footer numbers.
"""

from __future__ import annotations

import json
import mmap
import os
import pickle
import shutil
import signal
import struct
import tempfile
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .scenario import STAGES, Scenario

__all__ = ["ExecutorStats", "SharedArtifactPlane", "merge_shards",
           "run_sweep_workers", "last_executor_stats", "shard_paths"]

#: Record sections that describe *how* a run executed (wall-clock, cache
#: luck) rather than *what* it computed.  Dropped by canonical comparisons —
#: everything else in a record is deterministic for a deterministic scenario.
VOLATILE_RECORD_FIELDS = ("timings", "engine", "stage_cache")


# --------------------------------------------------------------------------- #
# Stats
# --------------------------------------------------------------------------- #
@dataclass
class ExecutorStats:
    """Accounting for one multiprocess sweep execution."""

    workers: int = 0
    completed: List[int] = field(default_factory=list)  # per-worker fresh records
    steals: int = 0
    shared_hits: int = 0
    shared_misses: int = 0
    elapsed_seconds: float = 0.0
    failed_workers: List[int] = field(default_factory=list)

    @property
    def scenarios_per_sec(self) -> float:
        """Fresh scenarios completed per wall-clock second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return sum(self.completed) / self.elapsed_seconds

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (the ``--workers`` stats footer)."""
        return {"workers": self.workers, "completed": list(self.completed),
                "steals": self.steals, "shared_hits": self.shared_hits,
                "shared_misses": self.shared_misses,
                "elapsed_seconds": self.elapsed_seconds,
                "scenarios_per_sec": self.scenarios_per_sec,
                "failed_workers": list(self.failed_workers)}


_last_stats: Optional[ExecutorStats] = None


def last_executor_stats() -> Optional[ExecutorStats]:
    """Stats of the most recent :func:`run_sweep_workers` call in this process.

    ``run_sweep(workers=N)`` keeps its historical return type (the result
    list); callers that want the executor footer (the CLI, examples) read the
    stats from here afterwards.
    """
    return _last_stats


# --------------------------------------------------------------------------- #
# Shared artifact plane
# --------------------------------------------------------------------------- #
_LEN_HEADER = struct.Struct("<Q")


def _shm_unregister(name: str) -> None:
    """Detach a segment from this process's resource tracker.

    Each worker's tracker would otherwise unlink segments when that worker
    exits (killing the plane for its siblings) and warn about "leaked"
    objects; the parent owns the real cleanup in :meth:`SharedArtifactPlane.cleanup`.
    """
    try:  # pragma: no cover - tracker layout is interpreter-internal
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:  # noqa: BLE001 - best effort on every platform
        pass


class SharedArtifactPlane:
    """Cross-process, read-mostly store for hot stage artifacts.

    Only keys in ``publishable`` (the hot set computed by the parent) are
    accepted; everything else is silently ignored so cold artifacts never
    bloat shared memory.  Payloads are opaque bytes (pickled stage
    artifacts); the plane never unpickles on behalf of a caller.

    The object is picklable/fork-inheritable: it carries only the run id,
    backend choice, root directory and the publishable key set.  Hit/miss
    counters are therefore *per process*; workers report theirs back to the
    parent, which aggregates them into :class:`ExecutorStats`.
    """

    def __init__(self, run_id: Optional[str] = None, backend: str = "auto",
                 root: Optional[str] = None,
                 publishable: Optional[Set[str]] = None) -> None:
        if backend not in ("auto", "shm", "mmap"):
            raise ValueError(f"backend must be auto/shm/mmap, got {backend!r}")
        self.run_id = run_id or uuid.uuid4().hex[:12]
        if backend == "auto":
            backend = "shm" if _shm_available() else "mmap"
        self.backend = backend
        self.publishable = set(publishable or ())
        if backend == "mmap":
            if root is None:
                base = os.environ.get("REPRO_CACHE_DIR") or tempfile.gettempdir()
                root = os.path.join(base, f"repro-shared-{self.run_id}")
            os.makedirs(root, exist_ok=True)
        self.root = root
        self.hits = 0
        self.misses = 0
        self.publishes = 0

    # -- naming ---------------------------------------------------------- #
    def segment_name(self, key: str) -> str:
        """Deterministic segment/file name for a stage key.

        Deterministic on purpose: workers discover each other's artifacts by
        name alone (no registry process), and the parent can clean up after a
        crashed worker by recomputing the candidate names from the grid.
        """
        return f"repro-{self.run_id}-{key[:16]}"

    def _file_path(self, key: str) -> str:
        return os.path.join(self.root, self.segment_name(key) + ".artifact")

    # -- publish / get --------------------------------------------------- #
    def publish(self, key: str, payload: bytes) -> bool:
        """Publish a payload for a hot key; returns True if stored.

        First writer wins; a concurrent publish of the same key is a no-op
        (the payloads are content-addressed, so they are identical anyway).
        """
        if key not in self.publishable:
            return False
        if self.backend == "shm":
            from multiprocessing import shared_memory

            try:
                seg = shared_memory.SharedMemory(
                    name=self.segment_name(key), create=True,
                    size=_LEN_HEADER.size + len(payload))
            except FileExistsError:
                return False
            except OSError:  # pragma: no cover - ENOSPC etc.: plane is best effort
                return False
            try:
                seg.buf[:_LEN_HEADER.size] = _LEN_HEADER.pack(len(payload))
                seg.buf[_LEN_HEADER.size:_LEN_HEADER.size + len(payload)] = payload
            finally:
                _shm_unregister(seg.name)
                seg.close()
        else:
            path = self._file_path(key)
            if os.path.exists(path):
                return False
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp, path)
            except OSError:  # pragma: no cover - best effort
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                return False
        self.publishes += 1
        return True

    def get(self, key: str) -> Optional[bytes]:
        """Fetch a payload published by any process, or None."""
        if key not in self.publishable:
            return None
        payload = self._read(key)
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
        return payload

    def _read(self, key: str) -> Optional[bytes]:
        if self.backend == "shm":
            from multiprocessing import shared_memory

            try:
                seg = shared_memory.SharedMemory(name=self.segment_name(key))
            except (FileNotFoundError, OSError):
                return None
            try:
                _shm_unregister(seg.name)
                (length,) = _LEN_HEADER.unpack_from(seg.buf, 0)
                return bytes(seg.buf[_LEN_HEADER.size:_LEN_HEADER.size + length])
            finally:
                seg.close()
        try:
            with open(self._file_path(key), "rb") as fh:
                with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as view:
                    return bytes(view)
        except (OSError, ValueError):
            return None

    # -- counters / cleanup --------------------------------------------- #
    def counters(self) -> Dict[str, int]:
        """Per-process hit/miss/publish counts."""
        return {"hits": self.hits, "misses": self.misses,
                "publishes": self.publishes}

    def cleanup(self) -> None:
        """Remove every segment/file this plane could have created.

        Parent-side; safe to call multiple times and after worker crashes —
        candidate names are recomputed from the publishable key set, so a
        segment published by a since-killed worker is still found.
        """
        if self.backend == "shm":
            from multiprocessing import shared_memory

            for key in self.publishable:
                try:
                    seg = shared_memory.SharedMemory(name=self.segment_name(key))
                except (FileNotFoundError, OSError):
                    continue
                # No explicit tracker unregister here: attaching registered
                # the name, and unlink() below unregisters it itself — the
                # pair stays balanced, with no tracker KeyError noise.
                seg.close()
                try:
                    seg.unlink()
                except (FileNotFoundError, OSError):  # pragma: no cover
                    pass
        elif self.root and os.path.isdir(self.root):
            shutil.rmtree(self.root, ignore_errors=True)


def _shm_available() -> bool:
    try:
        from multiprocessing import shared_memory  # noqa: F401

        return os.name == "posix"
    except ImportError:  # pragma: no cover - always present on >=3.8
        return False


def hot_stage_keys(scenarios: Sequence[Scenario]) -> Set[str]:
    """Stage keys shared by >= 2 scenarios (the plane's publishable set).

    These are exactly the artifacts worth sharing across workers: e.g. the
    synthesized schedule of a hot ``(topology, scheme)`` pair that a grid
    sweeps over many fabrics/overlaps/buffer sets, or the buffer-free
    collective profile two buffer points of one schedule simulate once.
    Scenario hashing failures (bad specs) are skipped — those scenarios
    produce error records instead.
    """
    counts: Dict[str, int] = {}
    for scenario in scenarios:
        for stage in STAGES + ("profile",):
            try:
                key = scenario.stage_key(stage)
            except Exception:  # noqa: BLE001 - bad spec errors at execution
                break
            counts[key] = counts.get(key, 0) + 1
    return {key for key, n in counts.items() if n >= 2}


# --------------------------------------------------------------------------- #
# Work-stealing queue
# --------------------------------------------------------------------------- #
def partition_ranges(num_items: int, workers: int) -> List[Tuple[int, int]]:
    """Split ``range(num_items)`` into ``workers`` contiguous [lo, hi) slices."""
    base, extra = divmod(num_items, workers)
    ranges = []
    lo = 0
    for i in range(workers):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def claim_index(worker: int, ranges, lock, steals) -> Optional[Tuple[int, bool]]:
    """Claim the next work index for ``worker``; steal when its slice is dry.

    ``ranges`` is a flat shared array ``[head0, tail0, head1, tail1, ...]``.
    Owners pop from their *head*; a dry worker steals one index from the
    *tail* of the victim with the most remaining work (tail-stealing keeps
    the victim's cache-warm head region with its owner).  Returns
    ``(index, stolen)`` or ``None`` when the whole queue is drained.
    """
    workers = len(ranges) // 2
    with lock:
        head, tail = ranges[2 * worker], ranges[2 * worker + 1]
        if head < tail:
            ranges[2 * worker] = head + 1
            return head, False
        victim, best = -1, 0
        for j in range(workers):
            remaining = ranges[2 * j + 1] - ranges[2 * j]
            if remaining > best:
                victim, best = j, remaining
        if victim < 0:
            return None
        ranges[2 * victim + 1] -= 1
        steals.value += 1
        return ranges[2 * victim + 1], True


# --------------------------------------------------------------------------- #
# Shards and merge
# --------------------------------------------------------------------------- #
def shard_dir_for(out_path: str) -> str:
    """Directory holding the per-worker shards for an output file."""
    return out_path + ".shards"


def shard_paths(shard_dir: str) -> List[str]:
    """Existing worker shards in a shard directory, in deterministic order."""
    if not os.path.isdir(shard_dir):
        return []
    return sorted(os.path.join(shard_dir, name)
                  for name in os.listdir(shard_dir)
                  if name.startswith("worker-") and name.endswith(".jsonl"))


def _open_shard(path: str):
    """Open a shard for appending, healing a torn trailing line first."""
    fh = open(path, "a")
    if fh.tell() > 0:
        with open(path, "rb") as check:
            check.seek(-1, os.SEEK_END)
            if check.read(1) != b"\n":
                fh.write("\n")
    return fh


def merge_shards(out_path: str, shard_dir: str) -> int:
    """Merge worker shards (and any existing output) into one JSONL file.

    Deterministic by construction: records are parsed with torn trailing
    lines skipped (:func:`~repro.experiments.sweep.load_results`), deduped by
    scenario hash (``ok`` beats ``error``; among equals the first occurrence
    in ``out_path``-then-sorted-shards order wins), sorted by hash, and
    written atomically.  Records with an empty key (scenarios whose spec
    failed to hash) cannot be deduped by identity and are all kept, ordered
    by their serialized form.  Returns the number of records written.
    """
    from .sweep import load_results

    def rank(rec: Dict[str, object]) -> Tuple[int, int]:
        """Dedup preference: ok beats error, deeper pipeline beats shallower.

        A simulate re-run must displace a stale synthesize-only record.
        """
        ok = 1 if rec.get("status") == "ok" else 0
        through = rec.get("through")
        return ok, STAGES.index(through) if through in STAGES else -1

    paths = ([out_path] if os.path.exists(out_path) else []) + shard_paths(shard_dir)
    by_key: Dict[str, Dict[str, object]] = {}
    unkeyed: List[Dict[str, object]] = []
    for path in paths:
        for rec in load_results(path):
            key = str(rec.get("key") or "")
            if not key:
                unkeyed.append(rec)
                continue
            existing = by_key.get(key)
            if existing is None or rank(rec) > rank(existing):
                by_key[key] = rec
    lines = [json.dumps(rec, sort_keys=True)
             for rec in (by_key[k] for k in sorted(by_key))]
    unkeyed_lines = sorted(json.dumps(rec, sort_keys=True) for rec in unkeyed)
    lines = unkeyed_lines + lines

    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out_path)),
                               suffix=".jsonl.tmp")
    with os.fdopen(fd, "w") as fh:
        for line in lines:
            fh.write(line + "\n")
    os.replace(tmp, out_path)
    return len(lines)


# --------------------------------------------------------------------------- #
# Worker process
# --------------------------------------------------------------------------- #
def _worker_main(worker: int, scenarios: Sequence[Scenario],
                 pending: Sequence[int], ranges, lock, steals,
                 shard_path: str, through: str,
                 plane: Optional[SharedArtifactPlane], result_q,
                 fault: Optional[Mapping[str, int]]) -> None:
    """Worker loop: claim -> execute -> append record -> repeat.

    Runs in a child process.  Scenario failures become error records exactly
    like the serial path (:func:`~repro.experiments.sweep._execute` is
    shared); only a crash of the worker itself loses in-flight work, and the
    flushed shard bounds that loss to one scenario.
    """
    from .plan import get_plan_cache
    from .sweep import _execute

    if plane is not None:
        get_plan_cache().attach_shared(plane)
    completed = 0
    fh = _open_shard(shard_path)
    try:
        while True:
            claim = claim_index(worker, ranges, lock, steals)
            if claim is None:
                break
            index, _stolen = claim
            result = _execute(scenarios[pending[index]], through)
            fh.write(json.dumps(result.to_record(), sort_keys=True) + "\n")
            fh.flush()
            completed += 1
            if fault and fault.get("worker") == worker \
                    and completed >= int(fault.get("after", 0)):
                # Test seam: simulate a hard crash mid-write.  The torn line
                # exercises exactly the healing path a real SIGKILL leaves.
                fh.write('{"key": "torn-')
                fh.flush()
                os.kill(os.getpid(), signal.SIGKILL)
    finally:
        fh.close()
    stage_stats = get_plan_cache().stats()
    result_q.put({"worker": worker, "completed": completed,
                  "shared": plane.counters() if plane is not None else {},
                  "stage_shared_hits": int(stage_stats.get("shared_hits", 0))})


# --------------------------------------------------------------------------- #
# Parent orchestration
# --------------------------------------------------------------------------- #
def run_sweep_workers(scenarios: Sequence[Scenario],
                      out_path: Optional[str] = None,
                      workers: int = 2, resume: bool = False,
                      through: str = "simulate",
                      shared_artifacts: bool = True,
                      shared_backend: str = "auto",
                      fault_injection: Optional[Mapping[str, int]] = None):
    """Execute a sweep across worker processes; returns (results, stats).

    Semantics match :func:`~repro.experiments.sweep.run_sweep`: one record
    per scenario, resume by scenario hash, per-scenario error capture.  The
    differences are mechanical — workers are processes, records stream to
    per-worker shards, and the final ``out_path`` is the deterministic merge
    of those shards (sorted by scenario hash; a serial run's output sorted
    the same way matches it record for record, modulo the
    :data:`VOLATILE_RECORD_FIELDS` execution-accounting sections).

    A worker dying (OOM kill, crash) does not lose the sweep: surviving
    workers drain the queue including the dead worker's unclaimed slice
    (work stealing doubles as crash redistribution for unstarted scenarios),
    completed records persist in its shard, and the parent merges what exists
    before raising ``RuntimeError`` — a re-run with ``resume=True`` finishes
    only what is missing, with zero duplicate records after the merge.

    ``fault_injection`` (tests only) kills ``{"worker": i}`` after it has
    written ``{"after": n}`` records, leaving a torn trailing line.
    """
    import multiprocessing as mp

    from .sweep import ScenarioResult, _execute, completed_records, load_results

    global _last_stats
    scenarios = list(scenarios)
    workers = max(1, int(workers))
    start = time.perf_counter()

    keys: List[str] = []
    for scenario in scenarios:
        try:
            keys.append(scenario.key())
        except Exception:  # noqa: BLE001 - recorded as an error record later
            keys.append("")

    own_tmp: Optional[str] = None
    if out_path is not None:
        shard_dir = shard_dir_for(out_path)
    else:
        own_tmp = tempfile.mkdtemp(prefix="repro-sweep-")
        out_path = os.path.join(own_tmp, "sweep.jsonl")
        shard_dir = shard_dir_for(out_path)
    os.makedirs(shard_dir, exist_ok=True)

    done: Dict[str, Dict[str, object]] = {}
    if resume:
        sources = ([out_path] if os.path.exists(out_path) else []) \
            + shard_paths(shard_dir)
        done = completed_records(sources, through=through)

    pending = [i for i, key in enumerate(keys) if not key or key not in done]
    stats = ExecutorStats(workers=workers, completed=[0] * workers)

    plane: Optional[SharedArtifactPlane] = None
    if shared_artifacts and workers > 1 and pending:
        hot = hot_stage_keys([scenarios[i] for i in pending])
        if hot:
            plane = SharedArtifactPlane(backend=shared_backend, publishable=hot)

    procs: List = []
    try:
        if pending:
            ctx = mp.get_context()
            ranges = ctx.Array("q", 2 * workers, lock=False)
            for i, (lo, hi) in enumerate(partition_ranges(len(pending), workers)):
                ranges[2 * i], ranges[2 * i + 1] = lo, hi
            lock = ctx.Lock()
            steals = ctx.Value("q", 0, lock=False)
            result_q = ctx.Queue()
            shard_files = [os.path.join(shard_dir, f"worker-{i}.jsonl")
                           for i in range(workers)]
            before = [len(load_results(p)) if os.path.exists(p) else 0
                      for p in shard_files]
            for i in range(workers):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(i, scenarios, pending, ranges, lock, steals,
                          shard_files[i], through, plane, result_q,
                          fault_injection),
                    name=f"sweep-worker-{i}")
                proc.start()
                procs.append(proc)
            for proc in procs:
                proc.join()
            while True:
                try:
                    report = result_q.get_nowait()
                except Exception:  # noqa: BLE001 - queue.Empty or closed
                    break
                shared = report.get("shared", {})
                stats.shared_hits += int(shared.get("hits", 0))
                stats.shared_misses += int(shared.get("misses", 0))
            result_q.close()
            # Completed counts from shard growth: correct even for a worker
            # that died before reporting its stats.
            for i, path in enumerate(shard_files):
                after = len(load_results(path)) if os.path.exists(path) else 0
                stats.completed[i] = max(0, after - before[i])
            stats.steals = int(steals.value)
            stats.failed_workers = [i for i, proc in enumerate(procs)
                                    if proc.exitcode != 0]
        merged = merge_shards(out_path, shard_dir)
        if not stats.failed_workers:
            shutil.rmtree(shard_dir, ignore_errors=True)
        stats.elapsed_seconds = time.perf_counter() - start
        _last_stats = stats

        if stats.failed_workers:
            raise RuntimeError(
                f"sweep worker(s) {stats.failed_workers} died; {merged} "
                f"record(s) merged to {out_path} — re-run with resume=True "
                f"to complete the sweep")

        final = completed_records([out_path], through=through, ok_only=False)
        results: List[ScenarioResult] = []
        for scenario, key in zip(scenarios, keys):
            rec = final.get(key) if key else None
            if rec is None:
                # Hash failure: the worker recorded an empty-key error record;
                # reconstruct the same error result shape locally.
                results.append(_execute(scenario, through)
                               if not key else ScenarioResult(
                                   scenario=scenario, key=key, status="error",
                                   error="record missing after merge"))
                continue
            results.append(ScenarioResult(
                scenario=scenario, key=key,
                status=str(rec.get("status", "error")),
                metrics=dict(rec.get("metrics") or {}),
                timings=dict(rec.get("timings") or {}),
                engine=dict(rec.get("engine") or {}),
                stage_cache=dict(rec.get("stage_cache") or {}),
                through=str(rec.get("through", through)),
                error=rec.get("error"),
                resumed=key in done,
            ))
        return results, stats
    finally:
        if plane is not None:
            plane.cleanup()
        if own_tmp is not None:
            shutil.rmtree(own_tmp, ignore_errors=True)
