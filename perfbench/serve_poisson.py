"""Workload ``serve_poisson``: open-loop Poisson load on the in-process server.

A :class:`repro.serve.ModelServer` at its shipped defaults serves an
integer-mode ResNet18 (width 0.125, 3x32x32 inputs, free layers alternating
4 and 2 bits).  One generator thread calls ``submit`` with single-sample
requests at Poisson due times; every request is timed from its due time to
its completion, so a stall also charges the requests queued behind it.

The measured phase runs a ladder of fixed rates in increasing order (the
``low`` and ``high`` rates are two of its steps, run longer), stopping after
the first failing step above ``high``, and then a saturated phase that keeps
a fixed number of requests in flight.  Served logits are checked against a
direct ``InferenceEngine.predict_logits`` on the same inputs.

Traced runs (``--trace 1``) measure the saturated phase in alternating
untraced and traced chunks (the tracing overhead), run the low and high
steps traced, and then boot a 2-shard ``ClusterServer`` from a quantized
checkpoint and run the low step against it, to record the cluster layer.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from common import OUT_DIR, Tracer, median, metric, percentile

MODEL = "resnet18"
MODEL_KWARGS = {"num_classes": 10, "width_multiplier": 0.125}
INPUT_SHAPE = (3, 32, 32)
POOL_SIZE = 512
NUM_CLASSES = 10

#: The ladder of offered rates (requests/s).  ``LOW_RPS`` sits where
#: requests mostly meet an idle server (latency-bound, batch size ~1);
#: ``HIGH_RPS`` keeps the server's worker about half busy while the batcher
#: already coalesces requests.  Above about 300/s the worker is over 80%
#: busy and latency swings with the host's scheduling noise; the steps
#: above ``HIGH_RPS`` find the knee.
LOW_RPS = 50
HIGH_RPS = 200
LADDER_RPS = (50, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 1100, 1250, 1400)
#: The knee wanders by a factor of two within one process from minute to
#: minute, so a run makes several passes (ladder, then a saturated chunk)
#: and reports medians over passes; low and high latencies pool the passes.
PASSES = 3
#: Seconds per pass for the low step, the high step and every other ladder
#: step, as shares of ``--seconds``; completions per saturated chunk per
#: second of ``--seconds``.
LOW_SHARE, HIGH_SHARE, STEP_SHARE = 0.055, 0.045, 0.033
SATURATED_PER_SECOND = 30
#: A pass stops climbing after this many consecutive steps over the limit.
STOP_AFTER_FAILURES = 2
#: Requests kept in flight in the saturated phase: four full micro-batches,
#: so the batcher always finds a full batch waiting.
WINDOW = 128
#: The latency limit of the ladder, on each step's p90.  A step meets it
#: when its p90 is within it, no request failed or was refused, and its
#: backlog did not grow.  At 40 ms p90 climbs steeply with rate, so where it
#: crosses the limit barely moves between runs.
TAIL = 90
LATENCY_LIMIT_MS = 40.0
#: Served-vs-direct parity: the plan compiler's verification tolerance and
#: the share of logits that must fall within it.
RTOL = ATOL = 1e-3
PARITY_SHARE = 0.97
#: Traced runs: share of ``--seconds`` for each traced step, the cluster's
#: shard count (= ``nproc`` on the 2-core machine the benchmark was written
#: on) and a span ring large enough for every traced step.
TRACED_SHARE = 0.15
CLUSTER_SHARDS = 2
SPAN_CAPACITY = 16384


#: Layers this workload never calls; their per-layer metrics read zero.
BYPASSED_LAYERS = ("data.", "nn.", "core.", "engine.eval_")


def build_model(seed: int):
    from repro.models import resnet18
    from repro.nn import Tensor

    model = resnet18(seed=seed, **MODEL_KWARGS)
    free = [name for name, layer in model.quantizable_layers().items() if not layer.pinned]
    model.apply_assignment({name: 4 if i % 2 == 0 else 2 for i, name in enumerate(free)})
    rng = np.random.default_rng(seed)
    model(Tensor(rng.standard_normal((32, *INPUT_SHAPE)).astype(np.float32)))  # BN statistics
    model.eval()
    return model


class Serving:
    """A running server plus the benchmark's request pool and generator RNG."""

    def __init__(self, server, model, pool: np.ndarray, rng, engine=None) -> None:
        self.server = server
        self.model = model
        self.pool = pool
        self.rng = rng
        self.engine = engine
        self._expected: Optional[np.ndarray] = None

    def submit(self, inputs, trace_id=None):
        return self.server.submit(MODEL, inputs, block=False, trace_id=trace_id)

    def expected(self) -> np.ndarray:
        """Direct engine logits for the whole pool (computed once)."""
        if self._expected is None:
            from repro.serve import InferenceEngine

            direct = InferenceEngine(self.model, mode="integer")
            self._expected = direct.predict_logits(self.pool)
        return self._expected

    def close(self) -> None:
        self.server.stop()


class Phase:
    """Requests of one phase: due and completion times, results, outcome."""

    def __init__(self, name: str, count: int) -> None:
        self.name = name
        self.count = count
        self.due = np.zeros(count)
        self.done = np.full(count, np.nan)
        self.sent = np.zeros(count, dtype=bool)
        self.ok = np.zeros(count, dtype=bool)
        self.slot = np.zeros(count, dtype=np.int64)
        self.results = np.zeros((count, NUM_CLASSES), dtype=np.float32)
        self.refused = 0
        self.late_ms = 0.0
        self.trace_ids: List[Optional[str]] = [None] * count
        self._pending = 0
        self._settled = threading.Condition()

    def track(self, index: int, future, window: Optional[threading.Semaphore] = None) -> None:
        """Record request ``index``'s completion time and result when it resolves."""
        self.sent[index] = True
        with self._settled:
            self._pending += 1

        def on_done(done_future) -> None:
            self.done[index] = time.perf_counter()
            if done_future.exception() is None:
                self.results[index] = done_future.result()
                self.ok[index] = True
            if window is not None:
                window.release()
            with self._settled:
                self._pending -= 1
                self._settled.notify_all()

        future.add_done_callback(on_done)

    def wait(self, timeout: float = 120.0) -> None:
        """Block until every sent request has resolved and been recorded."""
        with self._settled:
            if not self._settled.wait_for(lambda: self._pending == 0, timeout):
                raise TimeoutError(f"{self._pending} requests of {self.name} still pending")

    @property
    def failed(self) -> int:
        return int(self.refused + (self.sent & ~self.ok).sum())

    def latencies_ms(self) -> np.ndarray:
        return (self.done[self.ok] - self.due[self.ok]) * 1e3

    def summary(self) -> Dict[str, object]:
        lat = self.latencies_ms()
        return {
            "sent": int(self.sent.sum()),
            "succeeded": int(self.ok.sum()),
            "failed": self.failed,
            "refused": self.refused,
            "p50_ms": percentile(lat, 50) if len(lat) else None,
            "p90_ms": percentile(lat, 90) if len(lat) else None,
            "p99_ms": percentile(lat, 99) if len(lat) else None,
            "late_ms_max": self.late_ms,
        }


def open_loop(serving: Serving, name: str, rate: float, count: int, trace: bool = False) -> Phase:
    """Submit ``count`` requests at Poisson due times of mean ``rate``/s."""
    from repro.serve import ServerOverloaded

    phase = Phase(name, count)
    offsets = np.cumsum(serving.rng.exponential(1.0 / rate, size=count))
    phase.slot[:] = serving.rng.integers(0, POOL_SIZE, size=count)
    start = time.perf_counter() + 0.002
    phase.due[:] = start + offsets
    for index in range(count):
        delay = phase.due[index] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        phase.late_ms = max(phase.late_ms, (time.perf_counter() - phase.due[index]) * 1e3)
        trace_id = f"{name}-{index}" if trace else None
        phase.trace_ids[index] = trace_id
        try:
            future = serving.submit(serving.pool[phase.slot[index]], trace_id=trace_id)
        except ServerOverloaded:
            phase.refused += 1
            continue
        phase.track(index, future)
    phase.wait()
    return phase


def saturated(serving: Serving, count: int, name: str = "saturated") -> Phase:
    """Keep ``WINDOW`` requests in flight until ``count`` have completed."""
    phase = Phase(name, count)
    phase.slot[:] = serving.rng.integers(0, POOL_SIZE, size=count)
    window = threading.Semaphore(WINDOW)
    for index in range(count):
        window.acquire()
        phase.due[index] = time.perf_counter()
        phase.track(index, serving.submit(serving.pool[phase.slot[index]]), window)
    phase.wait()
    return phase


def capacity_rps(phase: Phase, chunks: int = 2) -> float:
    """Median completion rate over equal chunks of a saturated phase."""
    done = np.sort(phase.done[phase.ok])
    edges = np.linspace(0, len(done) - 1, chunks + 1).astype(int)
    rates = [(b - a) / (done[b] - done[a]) for a, b in zip(edges[:-1], edges[1:])]
    return median(rates)


def step_tail_ms(phase: Phase) -> float:
    """The step's p90, or infinity when it failed requests or its backlog grew.

    The backlog grew when the median latency of the step's second half
    exceeds its first half's by more than half the limit.
    """
    lat = phase.latencies_ms()
    if phase.failed or not len(lat):
        return float("inf")
    half = len(lat) // 2
    if np.median(lat[half:]) - np.median(lat[: max(half, 1)]) > LATENCY_LIMIT_MS / 2:
        return float("inf")
    return percentile(lat, TAIL)


def max_rate(rates: List[float], tails_ms: List[float]) -> float:
    """Where the step tail crosses the latency limit, interpolated in log.

    The tails are first made non-decreasing in rate (pool-adjacent-violators
    on log p90), so one erratic step neither ends nor extends the ladder.
    """
    blocks: List[list] = []
    for value in np.log(np.minimum(tails_ms, 1e6)):
        blocks.append([value, 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            (right, n_right), (left, n_left) = blocks.pop(), blocks.pop()
            count = n_left + n_right
            blocks.append([(left * n_left + right * n_right) / count, count])
    fitted = [value for value, count in blocks for _ in range(count)]
    limit = np.log(LATENCY_LIMIT_MS)
    for index, value in enumerate(fitted):
        if value > limit:
            if index == 0:
                return float(rates[0])
            share = (limit - fitted[index - 1]) / (value - fitted[index - 1])
            return float(rates[index - 1] + share * (rates[index] - rates[index - 1]))
    return float(rates[-1])


def one_pass(serving: Serving, seconds: float, index: int) -> Dict[str, object]:
    """Climb the ladder until it fails repeatedly, then a saturated chunk."""
    steps: List[Phase] = []
    over = 0
    for rate in LADDER_RPS:
        share = LOW_SHARE if rate == LOW_RPS else HIGH_SHARE if rate == HIGH_RPS else STEP_SHARE
        phase = open_loop(serving, f"pass{index}-rate{rate}", rate, int(rate * share * seconds))
        phase.rate = rate
        phase.tail_ms = step_tail_ms(phase)
        steps.append(phase)
        over = over + 1 if phase.tail_ms > LATENCY_LIMIT_MS else 0
        if rate > HIGH_RPS and over >= STOP_AFTER_FAILURES:
            break
    sat = saturated(serving, int(SATURATED_PER_SECOND * seconds), f"pass{index}-saturated")
    return {
        "steps": steps,
        "saturated": sat,
        "max_rate": max_rate([p.rate for p in steps], [p.tail_ms for p in steps]),
        "capacity": capacity_rps(sat),
    }


def check_parity(serving: Serving, phases: List[Phase], expected: Optional[np.ndarray] = None):
    """Served logits vs a direct ``predict_logits`` on the same inputs.

    The plan compiler's own acceptance rule applies per phase: at least
    ``PARITY_SHARE`` of the logits within ``ATOL + RTOL * |want|``, since a
    different batch composition may legitimately move one activation across
    a PACT rounding boundary.  Top-1 must agree on every request.  Returns
    ``(failed requests, per-phase report)``.
    """
    expected = serving.expected() if expected is None else expected
    failed = 0
    report = {}
    for phase in phases:
        want = expected[phase.slot[phase.ok]]
        got = phase.results[phase.ok]
        within = np.abs(got - want) <= ATOL + RTOL * np.abs(want)
        rows_off = ~within.all(axis=1)
        top1_off = got.argmax(axis=1) != want.argmax(axis=1)
        share = float(within.mean()) if within.size else 1.0
        failed += int(top1_off.sum()) + (int(rows_off.sum()) if share < PARITY_SHARE else 0)
        report[phase.name] = {
            "rows": int(len(got)),
            "rows_outside_tolerance": int(rows_off.sum()),
            "within_share": share,
            "top1_disagree": int(top1_off.sum()),
            "max_abs_diff": float(np.abs(got - want).max()) if within.size else 0.0,
        }
    return failed, report


def setup(seed: int, trace: bool) -> Serving:
    from repro.serve import ModelServer

    model = build_model(seed)
    server = ModelServer(span_capacity=SPAN_CAPACITY) if trace else ModelServer()
    engine = server.register(MODEL, model, mode="integer").engine
    engine.warmup()
    pool = np.random.default_rng(seed + 1).standard_normal((POOL_SIZE, *INPUT_SHAPE))
    pool = pool.astype(np.float32)
    # Run every micro-batch size once so no measured request pays a
    # first-use cost for its batch shape.
    for size in range(1, server.max_batch_size + 1):
        engine.predict_logits(pool[:size])
    server.start()
    return Serving(server, model, pool, np.random.default_rng(seed + 2), engine)


def teardown(serving: Serving) -> None:
    serving.close()


def measure(serving: Serving, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    if trace:
        return measure_traced(serving, seed, seconds)
    passes = [one_pass(serving, seconds, index) for index in range(PASSES)]
    phases = [phase for run in passes for phase in run["steps"] + [run["saturated"]]]
    mismatched, parity = check_parity(serving, phases)

    def at_rate(rate: int) -> List[Phase]:
        return [p for run in passes for p in run["steps"] if p.rate == rate]

    low, high = at_rate(LOW_RPS), at_rate(HIGH_RPS)
    pooled_low = np.concatenate([p.latencies_ms() for p in low])
    pooled_high = np.concatenate([p.latencies_ms() for p in high])
    return {
        "attempted": sum(p.count for p in phases),
        "failed": sum(p.failed for p in phases) + mismatched,
        "problems": [f"{mismatched} served results fail the parity check"] if mismatched else [],
        "detail": {
            "phases": {
                p.name: {**p.summary(), "tail_ms": getattr(p, "tail_ms", None)} for p in phases
            },
            "max_rate_per_pass": [run["max_rate"] for run in passes],
            "capacity_per_pass": [run["capacity"] for run in passes],
            "low_requests": len(pooled_low),
            "high_requests": len(pooled_high),

            "parity": parity,
            "latency_limit_ms": LATENCY_LIMIT_MS,
            "calibration": calibration(),
        },
        "metrics": {
            "samples_per_s": metric(median([run["capacity"] for run in passes]), "1/s"),
            "max_rate_rps": metric(median([run["max_rate"] for run in passes]), "1/s"),
            "p50_ms.low": metric(percentile(pooled_low, 50), "ms"),
            "p50_ms.high": metric(percentile(pooled_high, 50), "ms"),
        },
        "info": tails(pooled_low, pooled_high),
    }


def tails(low: np.ndarray, high: np.ndarray) -> Dict[str, object]:
    """Tail latencies, printed and recorded but not gated (see README)."""
    return {
        "p90_ms.low": metric(percentile(low, 90), "ms"),
        "p99_ms.low": metric(percentile(low, 99), "ms"),
        "requests.low": metric(len(low), "count"),
        "p90_ms.high": metric(percentile(high, 90), "ms"),
        "p99_ms.high": metric(percentile(high, 99), "ms"),
        "requests.high": metric(len(high), "count"),
    }


def calibration() -> Dict[str, object]:
    """The backend's per-process layout thresholds chosen at warm-up."""
    from repro.backend import get_backend

    backend = get_backend()
    return {
        name: getattr(backend, name, None)
        for name in ("cm_max_positions", "batched_max_fan_in")
    }


# --------------------------------------------------------------------------- #
# traced run
# --------------------------------------------------------------------------- #
def measure_traced(serving: Serving, seed: int, seconds: float) -> Dict[str, object]:
    tracer = Tracer()
    engine = serving.engine
    batch_sizes: List[tuple] = []

    def trace_on():
        engine.enable_step_profiling(True)
        predict = engine.predict_logits

        def execute(inputs, *args, **kwargs):
            batch_sizes.append((time.perf_counter(), len(inputs)))
            return tracer.call("engine.execute", predict, inputs, *args, **kwargs)

        tracer.patch(engine, "predict_logits", execute)
        tracer.wrap(serving.server, "submit", "frontend.submit")

    def trace_off():
        tracer.restore()
        engine.enable_step_profiling(False)

    # Tracing overhead: alternate untraced and traced saturated chunks.
    chunk = int(SATURATED_PER_SECOND * seconds / 2)
    untraced_rates, traced_rates = [], []
    chunks: List[Phase] = []
    for turn in range(6):
        if turn % 2:
            trace_on()
        label = "traced" if turn % 2 else "untraced"
        phase = saturated(serving, chunk, f"saturated-{label}{turn // 2}")
        chunks.append(phase)
        (traced_rates if turn % 2 else untraced_rates).append(capacity_rps(phase, chunks=1))
        if turn % 2:
            trace_off()
    tracer.spans.clear()
    batch_sizes.clear()
    engine.plan.reset_profile()

    trace_on()
    low = open_loop(serving, "low", LOW_RPS, int(LOW_RPS * TRACED_SHARE * seconds), trace=True)
    high_start = time.perf_counter()
    high = open_loop(serving, "high", HIGH_RPS, int(HIGH_RPS * TRACED_SHARE * seconds), trace=True)
    high_end = time.perf_counter()
    report = engine.plan_report()
    trace_off()
    snapshot = serving.server.metrics(MODEL)

    spans = {span["trace_id"]: span for span in serving.server.spans.spans()}
    residual, queue_wait_high, service_high = [], [], []
    for phase in (low, high):
        for index in np.flatnonzero(phase.ok):
            span = spans.get(phase.trace_ids[index])
            if span is None:
                continue
            e2e = (phase.done[index] - phase.due[index]) * 1e3
            residual.append(e2e - span["total_ms"])
            if phase is high:
                stages = span["stages_ms"]
                queue_wait_high.append(stages.get("queue_wait", 0.0))
                service_high.append(stages.get("batch", 0.0) + stages.get("execute", 0.0))
    executes = [s for s in tracer.spans if s["name"] == "engine.execute"]
    occupancy = [size for at, size in batch_sizes if high_start <= at <= high_end]
    timings = sorted(report["step_timings"] or [], key=lambda s: -s["total_ms"])

    mismatched, parity = check_parity(serving, chunks + [low, high])
    cluster = cluster_segment(serving, seed, seconds)
    mismatched += cluster.pop("mismatched")
    parity.update(cluster.pop("parity"))
    phases = chunks + [low, high] + cluster.pop("phases")
    layers = {
        "frontend.queue_wait_ms.p50": metric(percentile(queue_wait_high, 50), "ms"),
        "frontend.queue_wait_ms.p99": metric(percentile(queue_wait_high, 99), "ms"),
        "frontend.batch_occupancy_mean": metric(float(np.mean(occupancy)), "samples"),
        "frontend.batch_service_ms.p50": metric(percentile(service_high, 50), "ms"),
        "frontend.batches": metric(len(occupancy), "count"),
        "frontend.refused": metric(low.refused + high.refused, "count"),
        "engine.execute_ms.p50": metric(
            percentile([(s["end"] - s["start"]) * 1e3 for s in executes], 50), "ms"
        ),
        "plan.step_ms.top1": metric(timings[0]["mean_ms"], "ms"),
        "plan.step_ms.top2": metric(timings[1]["mean_ms"], "ms"),
        "plan.step_ms.top3": metric(timings[2]["mean_ms"], "ms"),
        "plan.steady_state_allocations": metric(report["steady_state_allocations"] or 0, "count"),
        "engine.fallback": metric(snapshot["engine_path"]["fallback"], "count"),
        "gen.late_ms.max": metric(max(low.late_ms, high.late_ms), "ms"),
        "e2e.residual_ms.p50": metric(percentile(residual, 50), "ms"),
        "trace.overhead_frac": metric(median(untraced_rates) / median(traced_rates) - 1.0, "frac"),
        **cluster.pop("layers"),
    }
    return {
        "attempted": sum(p.count for p in phases),
        "failed": sum(p.failed for p in phases) + mismatched,
        "problems": [f"{mismatched} served results fail the parity check"] if mismatched else [],
        "detail": {
            "phases": {p.name: p.summary() for p in phases},
            "parity": parity,
            "top_steps": timings[:5],
            "untraced_rps": untraced_rates,
            "traced_rps": traced_rates,
            "self_time_ms": tracer.self_time_ms(),
            **cluster,
        },
        "layers": layers,
    }


def cluster_segment(serving: Serving, seed: int, seconds: float) -> Dict[str, object]:
    """Boot a 2-shard cluster from a checkpoint and run the low step on it."""
    from repro.serve.cluster import ClusterServer
    from repro.utils import save_quantized_checkpoint

    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.perf_counter()
    path = save_quantized_checkpoint(
        os.path.join(OUT_DIR, f"serve_poisson-{seed}.npz"),
        serving.model,
        model_factory=f"repro.models:{MODEL}",
        factory_kwargs={**MODEL_KWARGS, "seed": seed},
    )
    save_ms = (time.perf_counter() - start) * 1e3
    size = os.path.getsize(path)
    try:
        start = time.perf_counter()
        server = ClusterServer(span_capacity=SPAN_CAPACITY)
        server.register(MODEL, path, mode="integer", shards=CLUSTER_SHARDS)
        server.start()
        boot_s = time.perf_counter() - start
        cluster = Serving(server, serving.model, serving.pool, serving.rng)
        try:
            count = int(LOW_RPS * TRACED_SHARE * seconds)
            low = open_loop(cluster, "cluster_low", LOW_RPS, count, trace=True)
            snapshot = server.metrics(MODEL)
            spans = [s for s in server.spans.spans() if s["status"] == "completed"]
        finally:
            cluster.close()
    finally:
        os.remove(path)
    mismatched, parity = check_parity(cluster, [low], serving.expected())
    shards = snapshot["shards"].values()
    completed = [shard["metrics"]["requests"]["completed"] for shard in shards]
    stage = lambda name: [s["stages_ms"].get(name, 0.0) for s in spans]  # noqa: E731
    return {
        "phases": [low],
        "mismatched": mismatched,
        "parity": parity,

        "layers": {
            "cluster.p50_ms.low": metric(percentile(low.latencies_ms(), 50), "ms"),
            "cluster.wire_ms.p50": metric(percentile(stage("wire"), 50), "ms"),
            "cluster.execute_ms.p50": metric(percentile(stage("execute"), 50), "ms"),
            "cluster.queue_wait_ms.p50": metric(percentile(stage("queue_wait"), 50), "ms"),
            "cluster.shard_share_max": metric(max(completed) / max(sum(completed), 1), "frac"),
            "cluster.worker_restarts": metric(sum(shard["restarts"] for shard in shards), "count"),
            "cluster.boot_s": metric(boot_s, "s"),
            "checkpoint.save_ms": metric(save_ms, "ms"),
            "checkpoint.bytes": metric(size, "bytes"),
        },
    }
