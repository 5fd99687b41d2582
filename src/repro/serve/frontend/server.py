"""The concurrent model server: queue -> batcher -> engine -> futures.

:class:`ModelServer` is the deployment facade over the whole serving stack.
Clients on any number of threads call :meth:`submit` (future-returning) or
:meth:`predict` (synchronous); per hosted model, a bounded
:class:`~repro.serve.frontend.queuing.RequestQueue` absorbs the burst, a
:class:`~repro.serve.frontend.batcher.DynamicBatcher` coalesces concurrent
single-sample requests into backend-friendly micro-batches under a latency
deadline, and one dedicated worker thread drives the model's
:class:`~repro.serve.InferenceEngine` over each batch and scatters the logits
rows back into the callers' futures.

The request lifecycle is :class:`~repro.serve.frontend.core.ServingCore`,
shared with the cluster router; this module adds the model registry and the
local executor, ``engine.predict_logits`` under the lane's model lock.

Design invariants:

* **One worker per engine.**  Engines (and the autograd modules under them)
  are not thread-safe; pinning each engine to exactly one worker thread makes
  the whole stack safe without locking the hot path.  Concurrency across
  *models* is real (one thread per registry entry); concurrency within a
  model comes from batching, which on BLAS-backed kernels is where the
  throughput lives anyway.
* **Batched results are bitwise-identical to a direct engine call.**  The
  worker stacks request arrays in arrival order and calls
  ``engine.predict_logits`` once per micro-batch — each caller receives
  exactly the rows that a direct call on the stacked batch would produce.
* **Failures are per-request.**  Requests are grouped by sample shape before
  stacking, so one malformed request can only fail its own future (and any
  request with the same bad shape), never the co-batched others.
* **Lifecycle is explicit.**  ``start`` spawns workers, ``stop(drain=True)``
  completes everything already admitted before returning, ``stop(drain=False)``
  fails queued futures with :class:`~repro.serve.frontend.queuing.ServerClosed`,
  and the context manager maps to ``start``/``stop(drain=True)``.  Submitting
  before ``start`` is allowed — requests queue up and are served once workers
  run (tests use this for deterministic batch composition).
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional

import numpy as np

from ...nn.tensor import no_grad
from ...obs.health import DriftDetector, ModelHealth, QuantHealthTap, ShadowExecutor
from .core import (
    REQUEST_KINDS,
    BatchObserver,
    Lane,
    ServingCore,
    shadow_sample_every_default,
)
from .queuing import Request, ServerClosed
from .registry import ModelEntry, ModelRegistry

__all__ = ["ModelServer"]


class _Lane(Lane):
    """Per-hosted-model serving state: the core's lane plus its engine."""

    def __init__(self, server: "ModelServer", entry: ModelEntry, model_lock: threading.Lock) -> None:
        super().__init__(server, entry.name)
        self.entry = entry
        # Shared between lanes hosting the same model object (float + integer
        # variants of one checkpoint): engine.predict_logits toggles the
        # model's train/eval mode, so two engines over one model must never
        # serve concurrently.  Lanes over distinct models get distinct locks
        # and never contend.
        self.model_lock = model_lock

    @property
    def uses_fallback(self) -> bool:
        return self.entry.engine.uses_fallback


class ModelServer(ServingCore):
    """Concurrent, dynamically-batched serving over a multi-model registry.

    Parameters
    ----------
    registry:
        An existing :class:`ModelRegistry` to serve (one is created when
        omitted); :meth:`register` adds models either way.
    max_batch_size:
        Hard bound on the samples coalesced into one micro-batch.
    max_delay_ms:
        Micro-batch deadline: how long the first request of a batch may wait
        for co-travellers before being served (the latency price of
        batching).
    max_queue_depth:
        Per-model admission-control bound; :meth:`submit` beyond it raises
        :class:`ServerOverloaded` (``block=False``) or blocks
        (``block=True``).
    latency_window:
        Number of recent requests the latency percentiles cover.
    on_batch:
        Optional observer called after each served micro-batch with
        ``(model_name, requests)`` — a telemetry/testing hook.
    trace:
        When true (the default), every request carries a
        :class:`~repro.obs.TraceContext` and its finished span (queue-wait /
        batch / execute stage durations) lands in :attr:`spans`, a bounded
        ring.  The per-request cost is one small object and a few
        ``time.monotonic()`` reads.
    span_capacity:
        How many finished spans the ring retains.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        *,
        max_batch_size: int = 32,
        max_delay_ms: float = 2.0,
        max_queue_depth: int = 512,
        latency_window: int = 8192,
        on_batch: Optional[BatchObserver] = None,
        trace: bool = True,
        span_capacity: int = 2048,
    ) -> None:
        super().__init__(
            "server",
            execute=self._predict,
            max_batch_size=max_batch_size,
            max_delay_ms=max_delay_ms,
            max_queue_depth=max_queue_depth,
            latency_window=latency_window,
            on_batch=on_batch,
            trace=trace,
            span_capacity=span_capacity,
        )
        self.registry = registry if registry is not None else ModelRegistry()
        self._lanes: "Dict[str, _Lane]" = {}
        self._model_locks: "Dict[int, threading.Lock]" = {}
        for entry in self.registry.entries():
            self._ensure_lane(entry)

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        model=None,
        *,
        mode: str = "float",
        engine=None,
        description: str = "",
    ) -> ModelEntry:
        """Host ``model`` under ``name``; live-registration is supported.

        The engine's internal batch size must cover ``max_batch_size`` so a
        micro-batch is always served by a single backend call (which is what
        makes batched results bitwise-identical to a direct call on the
        stacked batch): engines built here are pinned accordingly, and a
        caller-supplied ``engine`` with a smaller batch size is refused.
        """
        if engine is not None and engine.batch_size < self.max_batch_size:
            raise ValueError(
                f"engine batch_size={engine.batch_size} cannot cover the "
                f"server's max_batch_size={self.max_batch_size}; a micro-batch "
                f"must be served by a single backend call"
            )
        entry = self.registry.register(
            name,
            model,
            mode=mode,
            batch_size=max(64, self.max_batch_size),
            engine=engine,
            description=description,
        )
        self._ensure_lane(entry)
        return entry

    def _ensure_lane(self, entry: ModelEntry) -> _Lane:
        with self._lock:
            if self._closed:
                raise ServerClosed("cannot register models on a stopped server")
            lane = self._lanes.get(entry.name)
            if lane is None:
                model_lock = self._model_locks.setdefault(
                    id(entry.engine.model), threading.Lock()
                )
                lane = self._lanes[entry.name] = _Lane(self, entry, model_lock)
                if self._started:
                    self._spawn(lane)
            return lane

    def _lane(self, model_name: str) -> _Lane:
        lane = self._lanes.get(model_name)
        if lane is None:
            # Registered directly on the registry after construction.
            entry = self.registry.get(model_name)  # raises a helpful KeyError
            lane = self._ensure_lane(entry)
        return lane

    def lanes(self) -> List[_Lane]:
        with self._lock:  # live registration mutates _lanes concurrently
            return list(self._lanes.values())

    @staticmethod
    def _predict(lane: _Lane, stacked: np.ndarray, requests: List[Request]):
        """The local executor: one engine call under the lane's model lock.

        ``predict_logits`` is looked up on every call, so instrumentation
        that patches it on the engine instance sees the served batches.
        """
        with lane.model_lock:
            return lane.entry.engine.predict_logits(stacked), None

    # ------------------------------------------------------------------ #
    # submission API
    # ------------------------------------------------------------------ #
    def submit(
        self,
        model_name: str,
        inputs,
        block: bool = True,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
        priority: int = 0,
        trace_id: Optional[str] = None,
    ) -> "Future[np.ndarray]":
        """Enqueue one request; returns a future resolving to its logits.

        ``inputs`` is a single sample ``(C, H, W)`` (the future resolves to
        one logits row) or a small batch ``(n, C, H, W)`` with ``n`` at most
        ``max_batch_size`` (the future resolves to ``n`` rows).  Larger
        offline batches belong on :meth:`InferenceEngine.predict_logits`
        directly.  ``block``/``timeout`` select backpressure (wait for queue
        space) versus admission control (:class:`ServerOverloaded` at once).

        ``deadline_s`` bounds how long the caller will wait for the answer:
        a request that expires while queued (or mid-flight) fails with the
        typed :class:`DeadlineExceeded` and never occupies a batch slot.
        ``priority`` feeds load shedding: when admission control trips on a
        full queue, a strictly lower-priority queued request is shed (failed
        with :class:`ServerOverloaded`) to make room, instead of rejecting
        the higher-priority newcomer.

        ``trace_id`` names the request's trace span (auto-generated when
        tracing is on and none is given); look the finished span up with
        ``server.spans.find(trace_id)``.
        """
        lane = self._lane(model_name)
        request = self._make_request(inputs, deadline_s, priority, trace_id)
        self._admit(lane, request, block, timeout)
        return request.future

    def predict(
        self,
        model_name: str,
        inputs,
        timeout: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> np.ndarray:
        """Synchronous :meth:`submit`: blocks until the logits are ready."""
        return self.submit(model_name, inputs, trace_id=trace_id).result(timeout)

    def predict_classes(
        self,
        model_name: str,
        inputs,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """Class predictions (argmax over the logits axis)."""
        return self.predict(model_name, inputs, timeout=timeout).argmax(axis=-1)

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def enable_model_health(
        self,
        model_name: Optional[str] = None,
        *,
        tap_sample_every: int = 16,
        shadow_sample_every: Optional[int] = None,
        drift_reference_size: int = 256,
        drift_window: int = 512,
        seed: int = 0,
    ) -> "ModelHealth | Dict[str, ModelHealth]":
        """Attach quantization taps, a float shadow and drift detection.

        Builds one :class:`~repro.obs.health.ModelHealth` per lane (every
        lane when ``model_name`` is ``None``): a
        :class:`~repro.obs.health.QuantHealthTap` installed on the lane's
        engine (sampling ~1/``tap_sample_every`` plan runs), a
        :class:`~repro.obs.health.ShadowExecutor` re-running
        ~1/``shadow_sample_every`` served batches through the float module
        path of the same model (under the lane's model lock, so it never
        races the engine), and a :class:`~repro.obs.health.DriftDetector`
        over served prediction entropy/class histograms.  Served logits stay
        bitwise-identical — everything here observes after the fact.

        ``shadow_sample_every`` defaults to ``REPRO_SHADOW_SAMPLE_EVERY``
        (else 16); ``0`` disables the shadow entirely.  Returns the health
        object (or a name-keyed dict of them) — the exporter picks the same
        objects up through :meth:`telemetry_targets`.
        """
        if shadow_sample_every is None:
            shadow_sample_every = shadow_sample_every_default()
        lanes = [self._lane(model_name)] if model_name is not None else self.lanes()
        built: Dict[str, ModelHealth] = {}
        for lane in lanes:
            tap = QuantHealthTap(sample_every=tap_sample_every, seed=seed)
            lane.entry.engine.enable_health_tap(tap)
            shadow = None
            if shadow_sample_every > 0:
                shadow = ShadowExecutor(
                    self._shadow_reference(lane),
                    sample_every=shadow_sample_every,
                    seed=seed,
                )
            lane.health = ModelHealth(
                lane.name,
                quant=tap,
                shadow=shadow,
                drift=DriftDetector(
                    reference_size=drift_reference_size, window=drift_window
                ),
            )
            built[lane.name] = lane.health
        if model_name is not None:
            return built[model_name]
        return built

    @staticmethod
    def _shadow_reference(lane: _Lane) -> Callable[[np.ndarray], np.ndarray]:
        """A float module-path forward over the lane's model, made safe.

        Takes the lane's model lock (the engine worker holds it while
        serving, so the shadow forward can never interleave with a served
        batch's train/eval flip) and restores the training flag afterwards.
        """

        def reference(batch: np.ndarray) -> np.ndarray:
            engine = lane.entry.engine
            with lane.model_lock, no_grad():
                was_training = engine.model.training
                engine.model.eval()
                try:
                    return engine._module_forward(batch)
                finally:
                    engine.model.train(was_training)

        return reference

    def metrics(self, model_name: Optional[str] = None) -> Dict[str, object]:
        """Telemetry snapshot: one model's, or every model's plus totals."""
        if model_name is not None:
            lane = self._lane(model_name)
            return lane.metrics.snapshot(queue_depth=lane.queue.depth)
        lanes = self.lanes()
        models = {
            lane.name: lane.metrics.snapshot(queue_depth=lane.queue.depth)
            for lane in lanes
        }
        # One locked counters() read per lane: each lane's contribution to
        # the totals is internally consistent (no torn reads between the
        # per-field sums while workers are recording).
        counters = [lane.metrics.counters() for lane in lanes]
        totals = {
            f"requests_{kind}": sum(c[kind] for c in counters) for kind in REQUEST_KINDS
        }
        totals["requests_compiled"] = sum(c["served_compiled"] for c in counters)
        totals["requests_fallback"] = sum(c["served_fallback"] for c in counters)
        totals["samples_completed"] = sum(c["samples"] for c in counters)
        totals["batches_served"] = sum(c["batches"] for c in counters)
        return {
            "server": {
                "running": self.running,
                "max_batch_size": self.max_batch_size,
                "max_delay_ms": self.max_delay_ms,
                "max_queue_depth": self.max_queue_depth,
                "models_hosted": self.registry.describe(),
                **totals,
            },
            "models": models,
        }

    def metrics_json(self, model_name: Optional[str] = None, indent: int = 2) -> str:
        return json.dumps(self.metrics(model_name), indent=indent)

    def __repr__(self) -> str:
        state = "running" if self.running else ("stopped" if self._closed else "idle")
        return (
            f"ModelServer(models={self.registry.names()}, state={state}, "
            f"max_batch_size={self.max_batch_size}, max_delay_ms={self.max_delay_ms})"
        )
