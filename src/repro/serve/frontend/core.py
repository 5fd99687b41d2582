"""The request lifecycle shared by both servers: submit -> queue -> batch -> future.

:class:`ServingCore` owns everything between ``submit`` and the future it
returns, over any number of :class:`Lane` s (a bounded queue, its batcher,
its metrics and the thread that serves them): validation, request ids,
admission and priority shedding, the serving loop, per-shape grouping and
stacking, deadlines, completion, metrics, spans, the health feed,
``stop``/``drain`` and telemetry.  Only executing one stacked batch differs
between the servers, and it sits behind the executor seam::

    execute(lane, stacked, requests) -> (logits, remote_execute_s)

:class:`~repro.serve.frontend.ModelServer` calls ``engine.predict_logits``
in-process and returns ``None``: the whole call is the ``execute`` stage.
:class:`~repro.serve.cluster.ClusterServer` round-trips the batch to a worker
process and returns the worker's own engine time, so the span splits the call
into ``wire`` and ``execute``.  An executor whose backend died raises
:class:`ExecutorLost`; the unserved requests of the batch then go to
:meth:`ServingCore._recover`, which the cluster overrides to re-dispatch them
and restart the worker.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, InvalidStateError
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ...obs import EventLog, SpanRecorder, TraceContext
from ...obs.health import ModelHealth
from .batcher import DynamicBatcher
from .metrics import ServerMetrics
from .queuing import (
    DeadlineExceeded,
    Request,
    RequestQueue,
    ServerClosed,
    ServerOverloaded,
)

__all__ = ["ExecutorLost", "Lane", "ServingCore", "shadow_sample_every_default"]

# Called after a micro-batch is served, with (model_name, requests in batch
# order).  A telemetry/testing hook: the parity tests reconstruct the exact
# stacked batch from it and compare against a direct engine call.
BatchObserver = Callable[[str, List[Request]], None]

#: The request outcomes both servers total as ``requests_<kind>``.
REQUEST_KINDS = ("admitted", "completed", "failed", "rejected", "expired", "shed", "retried")

#: ``(lane, stacked, requests) -> (logits, remote_execute_s or None)``.
Executor = Callable[["Lane", np.ndarray, List[Request]], Tuple[np.ndarray, Optional[float]]]


class ExecutorLost(RuntimeError):
    """The executor's backend died mid-batch: nothing it was handed was served."""


def shadow_sample_every_default() -> int:
    """The float shadow's default rate: ``REPRO_SHADOW_SAMPLE_EVERY``, else 16."""
    try:
        return int(os.environ.get("REPRO_SHADOW_SAMPLE_EVERY", "16"))
    except ValueError:
        return 16


class Lane:
    """One queue -> batcher -> executor unit with its metrics and pending count.

    ``model`` is the hosted model's name (what ``on_batch`` receives);
    ``name`` names the lane in error messages.  ``labels`` go on every span
    and, stringified, on the lane's telemetry target; ``event_labels`` go on
    its lifecycle events and ``health_labels`` on its health series.  All
    three default to ``{"model": model}``.
    """

    #: Optional :class:`~repro.obs.health.ModelHealth` fed each served batch.
    health: Optional[ModelHealth] = None
    #: Whether batches run on the module-path fallback.
    uses_fallback = False

    def __init__(
        self,
        core: "ServingCore",
        model: str,
        *,
        name: Optional[str] = None,
        labels: Optional[Dict[str, object]] = None,
        event_labels: Optional[Dict[str, object]] = None,
        health_labels: Optional[Dict[str, object]] = None,
    ) -> None:
        self.model = model
        self.name = model if name is None else name
        self.labels = {"model": model} if labels is None else labels
        self.event_labels = self.labels if event_labels is None else event_labels
        self.health_labels = self.labels if health_labels is None else health_labels
        self.queue = RequestQueue(max_depth=core.max_queue_depth)
        # Deadline-aware eviction: a request that expires while queued is
        # failed with the typed error and never wins a batch slot.
        self.batcher = DynamicBatcher(
            self.queue,
            max_batch_size=core.max_batch_size,
            max_delay=core.max_delay_ms / 1e3,
            on_expired=lambda request: core._expire_request(self, request),
        )
        self.metrics = ServerMetrics(core.latency_window)
        self.worker: Optional[threading.Thread] = None
        self._pending = 0
        self._idle = threading.Condition()

    def note_admitted(self) -> None:
        with self._idle:
            self._pending += 1

    def note_done(self) -> None:
        with self._idle:
            self._pending -= 1
            if self._pending <= 0:
                self._idle.notify_all()

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        with self._idle:
            return self._idle.wait_for(lambda: self._pending == 0, timeout)

    @property
    def pending(self) -> int:
        """Admitted requests not yet resolved (queued or in flight)."""
        with self._idle:
            return self._pending


class ServingCore:
    """The request lifecycle over a set of lanes, with one executor seam.

    Subclasses list their lanes through :meth:`lanes` and start one serving
    thread per lane with :meth:`_spawn`; ``execute`` runs one stacked batch
    (see the module docstring).  ``noun`` names the server in messages
    ("the cluster is stopped").  The remaining parameters mean what they
    mean on :class:`~repro.serve.frontend.ModelServer`.
    """

    _POLL_SECONDS = 0.05

    def __init__(
        self,
        noun: str,
        *,
        execute: Executor,
        max_batch_size: int,
        max_delay_ms: float,
        max_queue_depth: int,
        latency_window: int,
        on_batch: Optional[BatchObserver],
        trace: bool,
        span_capacity: int,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        if max_delay_ms < 0:
            raise ValueError(f"max_delay_ms must be >= 0, got {max_delay_ms}")
        self.max_batch_size = int(max_batch_size)
        self.max_delay_ms = float(max_delay_ms)
        self.max_queue_depth = int(max_queue_depth)
        self.latency_window = int(latency_window)
        self.trace_enabled = bool(trace)
        self.spans = SpanRecorder(span_capacity)
        self.events = EventLog()
        self._noun = noun
        self._execute = execute
        self._on_batch = on_batch
        # Guards _started/_closed and the subclass's lane registry; re-entrant
        # so start() can list lanes while holding it.
        self._lock = threading.RLock()
        self._started = False
        self._closed = False
        self._abort = threading.Event()
        self._request_ids = itertools.count(1)

    def lanes(self) -> List[Lane]:
        """Every lane currently served (a snapshot)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self):
        with self._lock:
            if self._closed:
                raise ServerClosed(f"this {self._noun} was stopped; build a new one")
            if self._started:
                raise RuntimeError(f"the {self._noun} is already running")
            self._started = True
            for lane in self.lanes():
                self._spawn(lane)
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting requests and shut the serving threads down.

        ``drain=True`` serves everything already admitted before returning;
        ``drain=False`` fails still-queued futures with :class:`ServerClosed`
        (an in-flight micro-batch always completes).  ``timeout`` bounds each
        thread's join.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not drain:
                self._abort.set()
            lanes = self.lanes()
            was_started = self._started
        for lane in lanes:
            lane.queue.close()
        if was_started:
            for lane in lanes:
                if lane.worker is not None:
                    lane.worker.join(timeout)
        error = ServerClosed(f"the {self._noun} stopped before this request was served")
        for lane in lanes:
            for request in lane.queue.drain_remaining():
                self._fail_request(lane, request, error)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted request has completed (keeps running)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for lane in self.lanes():
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            if not lane.wait_idle(remaining):
                return False
        return True

    @property
    def running(self) -> bool:
        return self._started and not self._closed

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop(drain=exc_type is None)

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def _make_request(
        self,
        inputs,
        deadline_s: Optional[float],
        priority: int,
        trace_id: Optional[str],
    ) -> Request:
        """Validate one submission and build its :class:`Request`."""
        if self._closed:
            raise ServerClosed(f"the {self._noun} is stopped")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline_s}")
        array = np.ascontiguousarray(np.asarray(inputs, dtype=np.float32))
        if array.ndim == 3:
            array = array[np.newaxis]
            squeeze = True
        elif array.ndim == 4:
            squeeze = False
        else:
            raise ValueError(
                f"expected a (C, H, W) sample or (n, C, H, W) small batch, "
                f"got shape {array.shape}"
            )
        if array.shape[0] == 0:
            raise ValueError("cannot submit an empty request")
        if array.shape[0] > self.max_batch_size:
            raise ValueError(
                f"request of {array.shape[0]} samples exceeds max_batch_size="
                f"{self.max_batch_size}; use InferenceEngine.predict_logits "
                f"for large offline batches"
            )
        now = time.monotonic()
        return Request(
            inputs=array,
            future=Future(),
            squeeze=squeeze,
            enqueue_time=now,
            request_id=next(self._request_ids),
            deadline=None if deadline_s is None else now + deadline_s,
            priority=int(priority),
            trace=TraceContext(trace_id, started=now) if self.trace_enabled else None,
        )

    def _admit(
        self, lane: Lane, request: Request, block: bool, timeout: Optional[float]
    ) -> None:
        """Queue ``request`` on ``lane``, shedding a lower-priority one if full.

        Raises :class:`ServerOverloaded` (nothing to shed) or
        :class:`ServerClosed` with the lane's accounting left unchanged.
        """
        lane.note_admitted()
        try:
            try:
                lane.queue.put(request, block=block, timeout=timeout)
            except ServerOverloaded:
                try:
                    victim = lane.queue.shed_lower_priority(request)
                except ServerOverloaded:
                    lane.metrics.record_rejected()
                    raise
                if victim is not None:
                    self._shed_request(lane, victim)
        except (ServerOverloaded, ServerClosed):
            lane.note_done()
            raise
        lane.metrics.record_admitted(lane.queue.depth)

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def _spawn(self, lane: Lane) -> None:
        name = f"{self._noun}/{lane.name}"
        lane.worker = threading.Thread(target=self._run_lane, args=(lane,), name=name, daemon=True)
        lane.worker.start()

    def _run_lane(self, lane: Lane) -> None:
        """The lane's thread body; the cluster layers worker restarts on it."""
        self._serve(lane)

    def _serve(self, lane: Lane, tick: Optional[Callable[[], bool]] = None) -> bool:
        """Serve ``lane`` until its queue closes and drains.

        ``tick`` runs before every poll; when it returns False the loop
        stops at once and this returns False.  Returns True once drained.
        """
        while True:
            if tick is not None and not tick():
                return False
            batch = lane.batcher.next_batch(timeout=self._POLL_SECONDS)
            if batch:
                if self._abort.is_set():
                    error = ServerClosed(
                        f"the {self._noun} stopped before this request was served"
                    )
                    for request in batch:
                        self._fail_request(lane, request, error)
                else:
                    self._serve_batch(lane, batch)
                continue
            if lane.queue.closed:
                return True

    def _serve_batch(self, lane: Lane, batch: List[Request]) -> None:
        formed = time.monotonic()
        live: List[Request] = []
        for request in batch:
            # A re-dispatched request's future is already RUNNING.
            if request.attempts > 0 or request.future.set_running_or_notify_cancel():
                live.append(request)
            else:
                lane.metrics.record_cancelled()
                lane.note_done()
        # Group by per-sample shape so a malformed request can only fail its
        # own group, never the well-formed co-batched requests.
        by_shape: "OrderedDict[tuple, List[Request]]" = OrderedDict()
        for request in live:
            by_shape.setdefault(request.sample_shape, []).append(request)
        groups = list(by_shape.values())
        for index, requests in enumerate(groups):
            stacked = (
                requests[0].inputs
                if len(requests) == 1
                else np.concatenate([r.inputs for r in requests], axis=0)
            )
            start = time.monotonic()
            traced = [r for r in requests if r.trace is not None]
            for request in traced:
                # queue_wait ends at the batcher's pop; everything from there
                # to the executor call is batch formation.
                request.trace.advance("queue_wait", request.dequeue_time or formed)
                request.trace.advance("batch", start)
            try:
                logits, remote_s = self._execute(lane, stacked, requests)
            except ExecutorLost as error:
                self._recover(lane, [r for group in groups[index:] for r in group], error)
                return
            except Exception as error:  # noqa: BLE001 - forwarded to futures
                for request in requests:
                    self._fail_request(lane, request, error)
                continue
            done = time.monotonic()
            if remote_s is not None:
                # The batch crossed a wire: the backend's own engine time is
                # execute, everything else of the call (serialization,
                # transit, worker-side queuing) is wire.
                remote_s = min(max(remote_s, 0.0), done - start)
                for request in traced:
                    request.trace.advance("wire", done - remote_s)
            for request in traced:
                request.trace.advance("execute", done)
            lane.metrics.record_batch(int(stacked.shape[0]), done - formed)
            # Read after the call: the first predict is what traces the plan
            # or falls back.
            lane.metrics.record_served_path(len(requests), fallback=lane.uses_fallback)
            if lane.health is not None:
                # Before the futures resolve, so a caller holding its answer
                # finds it in the health snapshot.  Health only reads the
                # served logits and can never fail a caller's future.
                try:
                    lane.health.observe_batch(stacked, logits)
                except Exception:  # noqa: BLE001 - health must never break serving
                    pass
            offset = 0
            for request in requests:
                rows = logits[offset : offset + request.num_samples]
                offset += request.num_samples
                if request.expired(done):
                    # Expired mid-flight: the caller stopped waiting, so the
                    # answer is discarded and the typed error is returned.
                    self._expire_request(lane, request)
                    continue
                result = rows[0] if request.squeeze else rows
                try:
                    request.future.set_result(np.ascontiguousarray(result))
                except InvalidStateError:
                    pass  # cancelled after set_running: impossible, but harmless
                lane.metrics.record_completion(
                    latency_seconds=done - request.enqueue_time,
                    wait_seconds=formed - request.enqueue_time,
                    samples=request.num_samples,
                )
                self._record_span(lane, request, "completed", finished=done)
                lane.note_done()
            if self._on_batch is not None:
                self._on_batch(lane.model, requests)

    def _recover(self, lane: Lane, unserved: List[Request], error: ExecutorLost) -> None:
        """The executor lost its backend mid-batch: fail what it was handed."""
        for request in unserved:
            self._fail_request(lane, request, error)

    # ------------------------------------------------------------------ #
    # terminal outcomes
    # ------------------------------------------------------------------ #
    def _record_span(
        self, lane: Lane, request: Request, status: str, finished: Optional[float] = None
    ) -> None:
        if request.trace is None:
            return
        request.trace.finish(finished)
        self.spans.record(
            request.trace.to_span(
                status=status,
                **lane.labels,
                request_id=request.request_id,
                samples=request.num_samples,
                priority=request.priority,
                attempts=request.attempts,
            )
        )

    def _resolve(self, lane: Lane, request: Request, error: BaseException, status: str) -> None:
        if not request.future.cancelled():
            try:
                request.future.set_exception(error)
            except InvalidStateError:
                pass
        if status != "failed":
            self.events.emit(
                f"request_{status}",
                **lane.event_labels,
                request_id=request.request_id,
                priority=request.priority,
            )
        self._record_span(lane, request, status)
        lane.note_done()

    def _fail_request(self, lane: Lane, request: Request, error: BaseException) -> None:
        lane.metrics.record_failed()
        self._resolve(lane, request, error, "failed")

    def _expire_request(self, lane: Lane, request: Request) -> None:
        """Fail a request whose deadline passed (queued or mid-flight)."""
        late = time.monotonic() - (request.deadline or 0.0)
        lane.metrics.record_expired()
        self._resolve(
            lane,
            request,
            DeadlineExceeded(
                f"request {request.request_id} on {lane.name} missed its "
                f"deadline by {late:.3f}s"
            ),
            "expired",
        )

    def _shed_request(self, lane: Lane, request: Request) -> None:
        """Fail a shed victim: a higher-priority arrival took its queue slot."""
        lane.metrics.record_shed()
        self._resolve(
            lane,
            request,
            ServerOverloaded(
                f"request {request.request_id} on {lane.name} was shed for a "
                f"higher-priority request"
            ),
            "shed",
        )

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def telemetry_targets(self) -> List[Dict[str, object]]:
        """Label/metrics pairs for the Prometheus exporter: one per lane.

        Each target is ``{"labels": ..., "metrics": the lane's live
        ServerMetrics, "queue_depth": current depth, "health": its
        ModelHealth or None, "health_labels": ...}`` — the contract
        :func:`repro.obs.collect_families` consumes.  Per-lane (not merged)
        series keep counters monotonic across scrapes.
        """
        return [
            {
                "labels": {key: str(value) for key, value in lane.labels.items()},
                "metrics": lane.metrics,
                "queue_depth": lane.queue.depth,
                "health": lane.health,
                "health_labels": lane.health_labels,
            }
            for lane in self.lanes()
        ]
