"""Shared pieces of the benchmark: statistics, spans, the machine header.

Everything here is stdlib plus NumPy.  The tracer records spans from the
benchmark's own code around calls into the library's public API; nothing in
``src/`` is instrumented.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scratch directory inside the checkout (checkpoints, span dumps).
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Thread variables recorded (never set) in the machine header.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    if not len(values):
        raise ValueError("percentile of no values")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


# --------------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------------- #
class Tracer:
    """In-memory spans: name, start, end, parent; nesting is per thread.

    ``call(name, fn, ...)`` records a span around one call;
    ``wrap(owner, attr, name)`` replaces a callable attribute of one object
    (an instance or a module) with a version that records a span around
    every call, and ``restore()`` puts every replaced attribute back.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, parent: Optional[int] = None) -> None:
        self.spans.append(
            {"id": next(self._ids), "name": name, "start": start, "end": end, "parent": parent}
        )

    def call(self, name: str, fn: Callable, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
            )

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        had_own = attr in vars(owner)
        self._patched.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        self.patch(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original, had_own in reversed(self._patched):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    def self_time_ms(self) -> Dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child_total: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_total[span["parent"]] = child_total.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = (span["end"] - span["start"]) - child_total.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own * 1e3
        return totals


# --------------------------------------------------------------------------- #
# machine and environment header
# --------------------------------------------------------------------------- #
def _blas_name() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older NumPy has no dict mode
        return "unknown"


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def machine_header(workload: str, seed: int, trace: bool) -> Dict[str, object]:
    from repro.backend import get_backend

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": nproc,
        "blas": _blas_name(),
        "thread_vars": {name: os.environ[name] for name in THREAD_VARS if name in os.environ},
        "backend": get_backend().name,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


# --------------------------------------------------------------------------- #
# set-up timing in fresh processes
# --------------------------------------------------------------------------- #
def fresh_setup_seconds(workload: str, seed: int, count: int) -> List[float]:
    """Set-up time of ``count`` fresh interpreter processes, run one by one.

    Each child is ``run.py --setup-only``: it imports the library, builds
    the workload's inputs and system exactly as a measured run does, prints
    its own set-up time and exits.
    """
    script = os.path.join(ROOT, "perfbench", "run.py")
    times: List[float] = []
    for index in range(count):
        out = subprocess.run(
            [sys.executable, script, "--workload", workload,
             "--seed", str(seed + 1 + index), "--setup-only"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up child failed ({out.returncode}): {out.stderr[-2000:]}")
        times.append(float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]))
    return times


def stop_children(timeout: float = 10.0) -> None:
    """End and reap every process this run started through ``multiprocessing``.

    Cluster workers are joined (killed if they outlive ``timeout``), and the
    resource tracker that ``spawn`` starts is stopped and waited for, so no
    process of the run outlives it, not even as a zombie left to init.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join(timeout)
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def write_artifact(name: str, payload: Dict[str, object]) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, default=float)
        handle.write("\n")
    return path
