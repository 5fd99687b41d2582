"""The cluster router: process-sharded serving behind the ModelServer API.

:class:`ClusterServer` mirrors :class:`~repro.serve.frontend.ModelServer`'s
``submit``/``predict`` surface, but each registered *variant* (a quantized
checkpoint + engine mode) is served by **N worker processes** instead of one
worker thread.  That is the scaling step the frontend seam called for: a
GIL-bound serving path (module-path fallback, Python glue in compiled plans)
caps a single process at roughly one core no matter how many threads it
runs; processes shard it across cores.

Topology, per variant::

    submit(name, x) ──> least-outstanding shard pick
                          ├── shard 0: RequestQueue -> DynamicBatcher -> dispatcher thread ══socketpair══ worker process 0
                          ├── shard 1: RequestQueue -> DynamicBatcher -> dispatcher thread ══socketpair══ worker process 1
                          └── ...

Both servers are thin layers over one request lifecycle,
:class:`~repro.serve.frontend.core.ServingCore`; each shard is one of its
lanes.  The router plugs in the cluster executor (one round trip to the
shard's worker, whose reply carries the worker's own engine time, so spans
split the call into ``wire`` and ``execute``) and layers shard picking,
circuit breakers, restarts, scaling and the health monitor on top.

Failure containment:

* **Per-request failures** (bad shape, worker-side exception) come back as
  typed ERROR frames and fail only the affected futures.
* **A crashed worker** (the executor raises
  :class:`~repro.serve.frontend.core.ExecutorLost`) fails only the requests
  *in flight on its wire* with
  :class:`~repro.serve.cluster.protocol.WorkerCrashed`, or re-dispatches
  them within ``max_request_retries``; everything still in its queue
  survives, and the shard's dispatcher respawns the worker from the same
  checkpoint (bounded by ``max_restarts``) while the other shards keep
  serving.  A health monitor notices workers that die while idle.  Only the
  dispatcher restarts, and only for a handle that is current and dead: one
  death costs one respawn.
* **Scale-down** retires a shard gracefully: it stops receiving new
  requests, drains its queue, then shuts the worker down.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional

import numpy as np

from ...backend import get_backend
from ...obs.health import DriftDetector, ModelHealth, ShadowExecutor
from ..frontend.core import (
    REQUEST_KINDS,
    BatchObserver,
    ExecutorLost,
    Lane,
    ServingCore,
    shadow_sample_every_default,
)
from ..frontend.metrics import ServerMetrics
from ..frontend.queuing import Request, ServerClosed
from .breaker import BreakerPolicy, CircuitBreaker
from .protocol import (
    FrameKind,
    ProtocolError,
    WorkerCrashed,
    decode_response,
    encode_request,
    exception_from_error,
)
from .transport import ChannelClosed
from .worker import WorkerBootError, WorkerHandle, WorkerOptions, spawn_worker

__all__ = ["ClusterServer"]


class _Shard(Lane):
    """One worker process plus its router-side serving lane."""

    LIVE = "live"
    RETIRING = "retiring"
    FAILED = "failed"

    def __init__(self, cluster: "ClusterServer", variant: "_Variant", index: int) -> None:
        name = f"{variant.name}[{index}]"
        super().__init__(
            cluster,
            variant.name,
            name=name,
            labels={"variant": variant.name, "shard": index},
            event_labels={"variant": variant.name, "shard": name},
            health_labels={"variant": variant.name},
        )
        self.variant = variant
        self.index = index
        self.breaker = CircuitBreaker(
            cluster.breaker_policy, on_open=self.metrics.record_breaker_open
        )
        self.handle: Optional[WorkerHandle] = None
        self.state = self.LIVE
        self.restarts = 0
        # The handle the monitor last saw dead.  The dispatcher restarts
        # only if it is still the shard's current handle, so a death the
        # dispatcher already handled can never trigger a second respawn.
        self.dead_handle: Optional[WorkerHandle] = None
        # Wire frame ids, per shard; request ids are server-wide.
        self.frame_ids = itertools.count(1)

    @property
    def health(self) -> Optional[ModelHealth]:
        return self.variant.health

    @property
    def uses_fallback(self) -> bool:
        return self.handle.uses_fallback if self.handle else False


class _Variant:
    """One registered checkpoint/mode pair and its shard set."""

    def __init__(
        self,
        name: str,
        options: WorkerOptions,
        *,
        min_shards: int,
        max_shards: int,
        target_shards: int,
        description: str,
    ) -> None:
        self.name = name
        self.options = options
        self.min_shards = min_shards
        self.max_shards = max_shards
        self.target_shards = target_shards
        self.description = description
        self.shards: List[_Shard] = []
        self.lock = threading.Lock()
        self.next_index = 0
        # Optional repro.obs.health.ModelHealth shared by every shard of the
        # variant (the engines live in worker processes, so the router feeds
        # it from served batches; telemetry rows all reference this one
        # object and the exporter dedups by identity).
        self.health: Optional[ModelHealth] = None

    def live_shards(self) -> List[_Shard]:
        with self.lock:
            return [s for s in self.shards if s.state == _Shard.LIVE]

    def all_shards(self) -> List[_Shard]:
        with self.lock:
            return list(self.shards)


class ClusterServer(ServingCore):
    """Process-sharded, wire-connected serving over quantized checkpoints.

    Parameters mirror :class:`~repro.serve.frontend.ModelServer` where they
    mean the same thing; the new knobs govern the process fleet.

    Parameters
    ----------
    max_batch_size / max_delay_ms / max_queue_depth / latency_window:
        Per-shard micro-batching and admission-control bounds (the same
        semantics as on ``ModelServer``).
    start_method:
        ``multiprocessing`` start method for workers.  ``"spawn"`` (default)
        boots each worker in a pristine interpreter; ``"fork"`` is faster
        but only safe from a single-threaded parent.
    boot_timeout_s:
        How long a worker may take from process start to HELLO.
    request_timeout_s:
        How long a dispatcher waits for one micro-batch's reply before
        declaring the worker dead.
    max_restarts:
        Crash-loop bound per shard; beyond it the shard is failed and its
        queued requests are failed with :class:`WorkerCrashed`.
    max_request_retries:
        How many times a request caught in flight on a crashed worker's
        wire may be re-dispatched (to another live shard when one exists)
        before it fails with :class:`WorkerCrashed`.  Inference is pure, so
        the retry is idempotent; the default of 0 preserves the historical
        fail-fast contract.
    breaker_policy:
        Per-shard circuit-breaker thresholds (:class:`BreakerPolicy`).  A
        shard whose worker keeps crashing or timing out is skipped by the
        router until a cooldown probe succeeds; its queue is never dropped.
    on_batch:
        Test/telemetry hook called with ``(variant_name, requests)`` after
        each served micro-batch.
    trace:
        When true (the default), every request carries a
        :class:`~repro.obs.TraceContext` across the whole path — queue,
        batcher, *wire* (the trace block added in protocol version 2), the
        worker's engine call — and its finished span lands in :attr:`spans`.
        The worker reports its own execute time, so the span separates wire
        transit from engine work.
    span_capacity:
        How many finished spans the bounded ring retains.
    """

    _MONITOR_SECONDS = 0.25

    def __init__(
        self,
        *,
        max_batch_size: int = 32,
        max_delay_ms: float = 2.0,
        max_queue_depth: int = 512,
        latency_window: int = 8192,
        start_method: str = "spawn",
        boot_timeout_s: float = 120.0,
        request_timeout_s: float = 60.0,
        max_restarts: int = 3,
        max_request_retries: int = 0,
        breaker_policy: Optional[BreakerPolicy] = None,
        on_batch: Optional[BatchObserver] = None,
        trace: bool = True,
        span_capacity: int = 4096,
    ) -> None:
        super().__init__(
            "cluster",
            execute=self._execute_remote,
            max_batch_size=max_batch_size,
            max_delay_ms=max_delay_ms,
            max_queue_depth=max_queue_depth,
            latency_window=latency_window,
            on_batch=on_batch,
            trace=trace,
            span_capacity=span_capacity,
        )
        if max_request_retries < 0:
            raise ValueError(
                f"max_request_retries must be >= 0, got {max_request_retries}"
            )
        self.start_method = start_method
        self.boot_timeout_s = float(boot_timeout_s)
        self.request_timeout_s = float(request_timeout_s)
        self.max_restarts = int(max_restarts)
        self.max_request_retries = int(max_request_retries)
        self.breaker_policy = breaker_policy
        #: Chaos seam (see :mod:`repro.serve.chaos.faults`): when set, its
        #: ``before_dispatch(cluster, variant_name, shard_name)`` hook runs
        #: right before each micro-batch hits the wire.  None in production.
        self.fault_injector = None
        self._variants: "OrderedDict[str, _Variant]" = OrderedDict()
        self._monitor: Optional[threading.Thread] = None
        self._scaling_events: List[Dict[str, object]] = []

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        checkpoint_path: str,
        *,
        mode: str = "float",
        shards: int = 1,
        min_shards: int = 1,
        max_shards: int = 8,
        require_compiled: bool = True,
        backend: Optional[str] = None,
        description: str = "",
        chaos_latency_s: float = 0.0,
    ) -> None:
        """Host the checkpoint at ``checkpoint_path`` under ``name``.

        The checkpoint must be a versioned quantized checkpoint with a model
        factory spec (:func:`repro.utils.save_quantized_checkpoint`) — the
        workers rebuild the model from it in their own processes.  ``shards``
        is the initial shard count; the autoscaler (or :meth:`scale`) moves
        it inside ``[min_shards, max_shards]``.
        """
        if not isinstance(name, str) or not name:
            raise ValueError(f"variant name must be a non-empty string, got {name!r}")
        if not 1 <= min_shards <= max_shards:
            raise ValueError(
                f"need 1 <= min_shards <= max_shards, got [{min_shards}, {max_shards}]"
            )
        if not min_shards <= shards <= max_shards:
            raise ValueError(
                f"shards={shards} outside [{min_shards}, {max_shards}]"
            )
        options = WorkerOptions(
            checkpoint_path=checkpoint_path,
            variant=name,
            mode=mode,
            batch_size=max(64, self.max_batch_size),
            require_compiled=require_compiled,
            backend=backend if backend is not None else get_backend().name,
            chaos_latency_s=float(chaos_latency_s),
        )
        variant = _Variant(
            name,
            options,
            min_shards=min_shards,
            max_shards=max_shards,
            target_shards=shards,
            description=description,
        )
        with self._lock:
            if self._closed:
                raise ServerClosed("cannot register variants on a stopped cluster")
            if name in self._variants:
                raise ValueError(f"variant name {name!r} is already registered")
            self._variants[name] = variant
            started = self._started
        if started:
            self._reconcile(variant)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ClusterServer":
        super().start()
        for variant in self._variant_list():
            self._reconcile(variant)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="cluster/monitor", daemon=True
        )
        self._monitor.start()
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the fleet. ``drain=True`` serves everything already admitted."""
        super().stop(drain, timeout)
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)

    def lanes(self) -> List[_Shard]:
        return [shard for variant in self._variant_list() for shard in variant.all_shards()]

    # ------------------------------------------------------------------ #
    # submission API (mirrors ModelServer)
    # ------------------------------------------------------------------ #
    def submit(
        self,
        name: str,
        inputs,
        block: bool = True,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
        priority: int = 0,
        trace_id: Optional[str] = None,
    ) -> "Future[np.ndarray]":
        """Enqueue one request on the least-loaded shard of ``name``.

        Accepts a single ``(C, H, W)`` sample (future resolves to one logits
        row) or an ``(n, C, H, W)`` small batch, exactly like
        :meth:`ModelServer.submit`.  ``deadline_s`` bounds the request's
        total life from now: once exceeded it never occupies a batch slot
        and its future fails with
        :class:`~repro.serve.frontend.queuing.DeadlineExceeded`.
        ``priority`` feeds load shedding — when the picked shard's queue is
        full, a queued lower-priority request is shed to admit this one.
        ``trace_id`` names the request's trace span (auto-generated when
        tracing is on and none is given); look it up afterwards with
        ``cluster.spans.find(trace_id)``.
        """
        variant = self._variant(name)
        request = self._make_request(inputs, deadline_s, priority, trace_id)
        excluded: set = set()
        while True:
            shard = self._pick_shard(variant, excluded)
            try:
                self._admit(shard, request, block, timeout)
            except ServerClosed:
                # Lost the race with this shard's retirement/failure; another
                # shard (if any is left) can still take the request.
                excluded.add(shard)
                continue
            return request.future

    def predict(
        self,
        name: str,
        inputs,
        timeout: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> np.ndarray:
        return self.submit(name, inputs, trace_id=trace_id).result(timeout)

    def predict_classes(self, name: str, inputs, timeout: Optional[float] = None) -> np.ndarray:
        return self.predict(name, inputs, timeout=timeout).argmax(axis=-1)

    def _pick_shard(self, variant: _Variant, excluded: Optional[set] = None) -> _Shard:
        """Least-outstanding routing over the variant's live shards.

        Shards whose circuit breaker is OPEN are skipped — their worker is
        flapping, and sending fresh traffic there only pays a timeout before
        a retry rescues it.  When *every* live shard is dark the router
        degrades to routing anyway (blackholing all traffic would turn a
        recoverable brownout into an outage).
        """
        live = variant.live_shards()
        if excluded:
            live = [shard for shard in live if shard not in excluded]
        if not live:
            raise ServerClosed(
                f"variant {variant.name!r} has no live shards "
                f"(crashed beyond max_restarts, or the cluster is not started)"
            )
        allowed = [shard for shard in live if shard.breaker.allow()]
        pool = allowed if allowed else live
        return min(pool, key=lambda shard: shard.pending)

    def _variant(self, name: str) -> _Variant:
        with self._lock:
            variant = self._variants.get(name)
            if variant is None:
                known = ", ".join(sorted(self._variants)) or "<none>"
                raise KeyError(f"no variant registered under {name!r} (registered: {known})")
        return variant

    def _variant_list(self) -> List[_Variant]:
        with self._lock:
            return list(self._variants.values())

    # ------------------------------------------------------------------ #
    # shard lifecycle
    # ------------------------------------------------------------------ #
    def _reconcile(self, variant: _Variant) -> None:
        """Bring the variant's live shard count up to its target."""
        while True:
            with variant.lock:
                live = [s for s in variant.shards if s.state == _Shard.LIVE]
                if len(live) >= variant.target_shards:
                    return
            self._add_shard(variant)

    def _add_shard(self, variant: _Variant) -> _Shard:
        with variant.lock:
            index = variant.next_index
            variant.next_index += 1
        shard = _Shard(self, variant, index)
        # Breaker OPEN/HALF_OPEN/CLOSED transitions become structured events
        # (the OPEN counter alone cannot say which shard darkened, or when
        # it recovered).
        shard.breaker.on_transition = (
            lambda old, new, now, shard=shard: self.events.emit(
                "breaker_transition",
                variant=shard.variant.name,
                shard=shard.name,
                from_state=old,
                to_state=new,
            )
        )
        shard.handle = spawn_worker(
            variant.options,
            start_method=self.start_method,
            boot_timeout=self.boot_timeout_s,
        )
        with variant.lock:
            variant.shards.append(shard)
        self._spawn(shard)
        return shard

    def _retire_shard(self, variant: _Variant, shard: _Shard) -> None:
        """Graceful scale-down: no new requests, drain, then shut down."""
        shard.state = _Shard.RETIRING
        shard.queue.close()  # dispatcher drains to empty, then exits and shuts the worker down

    def scale(self, name: str, target_shards: int) -> int:
        """Move ``name`` to ``target_shards`` live shards (within bounds).

        Growing spawns and boots workers synchronously; shrinking retires
        the highest-indexed shards gracefully (their queued requests are
        served before the worker exits).  Returns the new live-shard count.
        """
        variant = self._variant(name)
        target = max(variant.min_shards, min(variant.max_shards, int(target_shards)))
        with self._lock:
            started = self._started and not self._closed
        with variant.lock:
            variant.target_shards = target
        if not started:
            return target
        live = variant.live_shards()
        if len(live) < target:
            self._record_scaling(name, len(live), target, "scale_up")
            self._reconcile(variant)
        elif len(live) > target:
            self._record_scaling(name, len(live), target, "scale_down")
            for shard in sorted(live, key=lambda s: s.index)[target:]:
                self._retire_shard(variant, shard)
        return len(variant.live_shards())

    def num_shards(self, name: str) -> int:
        return len(self._variant(name).live_shards())

    def variants(self) -> List[str]:
        with self._lock:
            return list(self._variants)

    def _record_scaling(self, name: str, current: int, target: int, kind: str) -> None:
        self._scaling_events.append(
            {
                "variant": name,
                "kind": kind,
                "from": current,
                "to": target,
                "time": time.time(),
            }
        )
        self.events.emit(kind, variant=name, from_shards=current, to_shards=target)

    @property
    def scaling_events(self) -> List[Dict[str, object]]:
        return list(self._scaling_events)

    # ------------------------------------------------------------------ #
    # dispatcher: one thread per shard, owner of the shard's wire
    # ------------------------------------------------------------------ #
    def _run_lane(self, shard: _Shard) -> None:
        if not self._serve(shard, tick=lambda: self._restart_if_dead(shard)):
            return
        # Drained (stop or retirement): the dispatcher owns its worker, so it
        # shuts it down; retired shards also leave telemetry.
        if shard.handle is not None:
            shard.handle.shutdown(timeout=5.0)
        if shard.state == _Shard.RETIRING:
            with shard.variant.lock:
                if shard in shard.variant.shards:
                    shard.variant.shards.remove(shard)

    def _restart_if_dead(self, shard: _Shard) -> bool:
        """Restart the worker the monitor found dead; False once the shard failed.

        A flag the monitor sets between this read and the clear is lost,
        but the monitor sets it again on its next tick while the handle
        stays current and dead.
        """
        dead, shard.dead_handle = shard.dead_handle, None
        if dead is None or dead is not shard.handle or self._closed:
            return True
        return self._restart_worker(shard.variant, shard)

    def _execute_remote(self, shard: _Shard, stacked: np.ndarray, requests: List[Request]):
        """The cluster executor: one round trip to the shard's worker.

        Returns the logits and the worker's own engine time.  A lost wire
        (closed channel, garbled frame, no reply in time) raises
        :class:`ExecutorLost`; typed worker-side errors propagate as-is and
        fail only this group.
        """
        injector = self.fault_injector
        if injector is not None:
            injector.before_dispatch(self, shard.variant.name, shard.name)
        trace_ids = [r.trace.trace_id for r in requests if r.trace is not None]
        try:
            logits, worker_trace = self._roundtrip(shard, stacked, trace_ids or None)
        except (ChannelClosed, ProtocolError, TimeoutError) as error:
            raise ExecutorLost(str(error)) from error
        shard.breaker.record_success()
        return logits, float((worker_trace or {}).get("execute_s", 0.0))

    def _roundtrip(
        self,
        shard: _Shard,
        stacked: np.ndarray,
        trace_ids: Optional[List[str]] = None,
    ) -> "tuple[np.ndarray, Optional[dict]]":
        """One REQUEST/RESPONSE exchange; raises the typed worker error.

        Only the shard's dispatcher thread ever touches the wire, so the
        exchange needs no locking — frame ids still correlate replies in
        case a stale frame (e.g. from a boot-time exchange) lingers.

        ``trace_ids`` (when tracing) ride in the version-2 trace block; the
        worker echoes them back with its measured ``execute_s``, returned
        here as the second element (``None`` for untraced exchanges).
        """
        frame_id = next(shard.frame_ids)
        channel = shard.handle.channel
        channel.send(
            FrameKind.REQUEST,
            frame_id,
            encode_request(
                shard.variant.name,
                stacked,
                trace={"trace_ids": trace_ids} if trace_ids else None,
            ),
        )
        deadline = time.monotonic() + self.request_timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"no reply within request_timeout_s={self.request_timeout_s}"
                )
            frame = channel.recv(timeout=remaining)
            if frame is None:
                continue
            if frame.request_id != frame_id:
                continue  # stale reply from an abandoned exchange
            if frame.kind == FrameKind.RESPONSE:
                return decode_response(frame.payload)
            if frame.kind == FrameKind.ERROR:
                raise exception_from_error(frame.payload)

    def _recover(self, shard: _Shard, unserved: List[Request], error: ExecutorLost) -> None:
        """The worker's wire is gone mid-batch: re-dispatch, then restart.

        Everything popped for the batch is in flight from the router's
        perspective.  Requests with retry budget left are re-dispatched
        (inference is pure, so the retry is idempotent); the rest fail with
        WorkerCrashed.  The shard's *queue* survives untouched.
        """
        shard.breaker.record_failure()
        crash = WorkerCrashed(
            f"shard {shard.name} (pid={shard.handle.pid if shard.handle else '?'}) "
            f"died with this request in flight: {error}"
        )
        for request in unserved:
            if request.trace is not None:
                # Attribute the doomed attempt (send -> crash detection) to
                # the wire, so a retried request's span still tiles its
                # whole life.
                request.trace.advance("wire")
            if not self._redispatch(shard.variant, shard, request):
                self._fail_request(shard, request, crash)
        self._restart_worker(shard.variant, shard)

    def _restart_worker(self, variant: _Variant, shard: _Shard) -> bool:
        """Respawn a dead shard worker in place; False when the shard is failed."""
        dead_pid = shard.handle.pid if shard.handle is not None else None
        if shard.handle is not None:
            shard.handle.kill()
        if self._closed:
            return False
        shard.restarts += 1
        if shard.restarts > self.max_restarts:
            self._fail_shard(variant, shard)
            return False
        try:
            shard.handle = spawn_worker(
                variant.options,
                start_method=self.start_method,
                boot_timeout=self.boot_timeout_s,
            )
        except (WorkerBootError, OSError) as error:
            self._fail_shard(variant, shard, reason=str(error))
            return False
        self.events.emit(
            "worker_restart",
            variant=variant.name,
            shard=shard.name,
            restarts=shard.restarts,
            dead_pid=dead_pid,
            new_pid=shard.handle.pid,
        )
        return True

    def _fail_shard(self, variant: _Variant, shard: _Shard, reason: str = "") -> None:
        """Crash-loop bound hit: fail the shard and everything it still queues."""
        shard.state = _Shard.FAILED
        shard.queue.close()
        detail = f" ({reason})" if reason else ""
        error = WorkerCrashed(
            f"shard {shard.name} failed after {shard.restarts - 1} restarts{detail}"
        )
        self.events.emit(
            "shard_failed",
            variant=variant.name,
            shard=shard.name,
            restarts=shard.restarts,
            reason=reason,
        )
        for request in shard.queue.drain_remaining():
            self._fail_request(shard, request, error)
        with variant.lock:
            if shard in variant.shards:
                variant.shards.remove(shard)

    def _redispatch(self, variant: _Variant, shard: _Shard, request: Request) -> bool:
        """Requeue a crash-interrupted request; False when it must fail.

        The target is another live shard when one exists (the crashed
        shard's replacement worker is seconds away at best), else the same
        shard's surviving queue — its dispatcher serves the queue again
        once the restart completes.  ``put_front`` preserves the request's
        place at the head of the line; it already waited once.
        """
        if self._closed or request.attempts >= self.max_request_retries:
            return False
        if request.expired():
            self._expire_request(shard, request)
            return True  # handled: expired, not lost
        try:
            target = self._pick_shard(variant, excluded={shard})
        except ServerClosed:
            target = shard if shard.state == _Shard.LIVE else None
        if target is None:
            return False
        request.attempts += 1
        target.note_admitted()
        shard.note_done()
        target.queue.put_front(request)  # exempt from depth/closed: already admitted
        target.metrics.record_retried()
        self.events.emit(
            "request_retried",
            variant=variant.name,
            from_shard=shard.name,
            to_shard=target.name,
            request_id=request.request_id,
            attempt=request.attempts,
        )
        return True

    # ------------------------------------------------------------------ #
    # health monitoring
    # ------------------------------------------------------------------ #
    def _monitor_loop(self) -> None:
        """Detect workers that died while idle; the dispatcher owns restarts."""
        while not self._closed:
            time.sleep(self._MONITOR_SECONDS)
            for shard in self.lanes():
                handle = shard.handle
                if shard.state == _Shard.LIVE and handle is not None and not handle.is_alive():
                    shard.dead_handle = handle

    def healthy(self, name: Optional[str] = None) -> bool:
        """True when every (or the named) variant has all target shards live.

        Honest about permanent capacity loss: a shard that crash-looped past
        ``max_restarts`` leaves the live count under ``target_shards``, and
        this reports False until an operator (or the autoscaler) calls
        :meth:`scale` to rebuild it.
        """
        variants = [self._variant(name)] if name is not None else self._variant_list()
        for variant in variants:
            live = variant.live_shards()
            if len(live) < variant.target_shards:
                return False
            for shard in live:
                if shard.handle is None or not shard.handle.is_alive():
                    return False
        return True

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def enable_model_health(
        self,
        name: Optional[str] = None,
        *,
        reference: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        shadow_sample_every: Optional[int] = None,
        drift_reference_size: int = 256,
        drift_window: int = 512,
        seed: int = 0,
    ) -> "ModelHealth | Dict[str, ModelHealth]":
        """Attach drift detection (and optionally a float shadow) per variant.

        The cluster's engines live in worker processes, so per-layer
        quantization taps are out of reach from the router; what the router
        *does* see is every served batch, which is enough for the
        :class:`~repro.obs.health.DriftDetector` and — when the operator
        supplies a ``reference`` callable (typically
        ``InferenceEngine(model, mode="float").predict_logits`` over the same
        checkpoint loaded router-side) — the sampled
        :class:`~repro.obs.health.ShadowExecutor` comparing wire-served
        logits against the local float forward.

        ``shadow_sample_every`` defaults to ``REPRO_SHADOW_SAMPLE_EVERY``
        (else 16); without a ``reference`` no shadow runs.  Returns the
        health object (or a name-keyed dict); every shard's telemetry row
        shares the variant's object.
        """
        if shadow_sample_every is None:
            shadow_sample_every = shadow_sample_every_default()
        variants = (
            [self._variant(name)] if name is not None else self._variant_list()
        )
        built: Dict[str, ModelHealth] = {}
        for variant in variants:
            shadow = None
            if reference is not None and shadow_sample_every > 0:
                shadow = ShadowExecutor(
                    reference, sample_every=shadow_sample_every, seed=seed
                )
            variant.health = ModelHealth(
                variant.name,
                shadow=shadow,
                drift=DriftDetector(
                    reference_size=drift_reference_size, window=drift_window
                ),
            )
            built[variant.name] = variant.health
        if name is not None:
            return built[name]
        return built

    def metrics(self, name: Optional[str] = None) -> Dict[str, object]:
        """Aggregated cluster telemetry: per-shard, per-variant, and totals.

        Per variant: each shard's consistent :meth:`ServerMetrics.snapshot`
        plus a ``merged`` view (:meth:`ServerMetrics.merged` across shards).
        The cluster totals sum each variant's merged counters, read through
        the same torn-read-safe path a process-boundary poller would use.
        """
        if name is not None:
            return self._variant_metrics(self._variant(name))
        variants = {
            variant.name: self._variant_metrics(variant)
            for variant in self._variant_list()
        }
        merged = [view["merged"] for view in variants.values()]
        totals = {
            f"requests_{kind}": sum(m["requests"][kind] for m in merged)
            for kind in REQUEST_KINDS
        }
        totals["breaker_open_total"] = sum(m["breaker_open_total"] for m in merged)
        totals["samples_completed"] = sum(m["samples_completed"] for m in merged)
        totals["batches_served"] = sum(m["batches"]["served"] for m in merged)
        return {
            "cluster": {
                "running": self.running,
                "max_batch_size": self.max_batch_size,
                "max_delay_ms": self.max_delay_ms,
                "max_queue_depth": self.max_queue_depth,
                "start_method": self.start_method,
                "variants_hosted": {
                    v.name: {
                        "mode": v.options.mode,
                        "shards": len(v.live_shards()),
                        "target_shards": v.target_shards,
                        "bounds": [v.min_shards, v.max_shards],
                        "description": v.description,
                    }
                    for v in self._variant_list()
                },
                "scaling_events": self.scaling_events,
                **totals,
            },
            "variants": variants,
        }

    def variant_load(self, name: str) -> Dict[str, object]:
        """The load signals the autoscaler steers on — cheap reads only.

        Polled several times a second, so this avoids the full merged-
        snapshot path: counters come from each shard's locked
        :meth:`ServerMetrics.counters`, and the latency signal is the *worst*
        shard's p95 (the conservative trigger for scaling — one drowning
        shard is exactly what another shard would relieve).
        """
        variant = self._variant(name)
        shards = variant.live_shards()
        counters = [shard.metrics.counters() for shard in shards]
        return {
            "live_shards": len(shards),
            "target_shards": variant.target_shards,
            "bounds": (variant.min_shards, variant.max_shards),
            "outstanding": sum(shard.pending for shard in shards),
            "queue_depth": sum(shard.queue.depth for shard in shards),
            "p95_latency_ms": max(
                (shard.metrics.latency_percentile_ms(95.0) for shard in shards),
                default=0.0,
            ),
            "completed": sum(c["completed"] for c in counters),
        }

    def _variant_metrics(self, variant: _Variant) -> Dict[str, object]:
        shards = variant.all_shards()
        merged = ServerMetrics.merged([shard.metrics for shard in shards])
        queue_depth = sum(shard.queue.depth for shard in shards)
        return {
            "shards": {
                shard.name: {
                    "state": shard.state,
                    "breaker": shard.breaker.state,
                    "pid": shard.handle.pid if shard.handle else None,
                    "restarts": shard.restarts,
                    "outstanding": shard.pending,
                    "queue_depth": shard.queue.depth,
                    "uses_fallback": shard.handle.uses_fallback if shard.handle else None,
                    "metrics": shard.metrics.snapshot(queue_depth=shard.queue.depth),
                }
                for shard in shards
            },
            "merged": merged.snapshot(queue_depth=queue_depth),
            "live_shards": len([s for s in shards if s.state == _Shard.LIVE]),
            "target_shards": variant.target_shards,
        }

    def metrics_json(self, name: Optional[str] = None, indent: int = 2) -> str:
        return json.dumps(self.metrics(name), indent=indent)

    def __repr__(self) -> str:
        state = "running" if self.running else ("stopped" if self._closed else "idle")
        shards = {v.name: len(v.live_shards()) for v in self._variant_list()}
        return f"ClusterServer(variants={shards}, state={state})"
