"""Workload ``train_bmpq``: the paper's algorithm, ``BMPQTrainer.train()``.

Each BMPQ run trains a fresh ResNet18 (width 0.0625) on synthetic CIFAR-10
(192 training and 96 test images, batch 32) for 3 epochs with
``target_average_bits=4`` over support bits {4, 2}.  The ILP re-assigns bits
after every epoch and the float inference plan evaluates after every epoch.
The trainer is called unmodified; the benchmark only swaps the two loaders
for pass-through proxies that read the clock once per batch.  The measured
phase runs as many BMPQ runs as fit in ``--seconds``.

Traced runs (``--trace 1``) alternate untraced and traced BMPQ runs.  A
traced run additionally wraps public calls on the objects the run built:
the model's ``forward``, the loss's ``backward``, the optimizer's ``step``,
the NBG inputs and reduction, the policy's ILP ``assign``, the per-epoch
``evaluate_model`` and the evaluation engine's ``predict_logits``.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from common import Tracer, median, metric, percentile

TRAIN_SAMPLES = 192
TEST_SAMPLES = 96
BATCH_SIZE = 32
EPOCHS = 3
WIDTH = 0.0625
NUM_CLASSES = 10
#: BMPQ runs made first in every measured run, checked but left out of the
#: timing: the first two runs of a fresh process take about 1.5x the time
#: of the later ones.
WARMUP_RUNS = 2


class ClockedLoader:
    """Pass-through loader recording per-batch wait and consumer time.

    ``wait_ms[k]`` is how long the consumer waited for batch ``k``;
    ``work_ms[k]`` is how long the consumer held batch ``k`` before asking
    for the next one (a training step, or one evaluation batch).
    """

    def __init__(self, loader, tracer: "Tracer | None" = None, span_name: str = "") -> None:
        self.loader = loader
        self.tracer = tracer
        self.span_name = span_name
        self.wait_ms: List[float] = []
        self.work_ms: List[float] = []

    def __len__(self) -> int:
        return len(self.loader)

    def __iter__(self):
        iterator = iter(self.loader)
        while True:
            asked = time.perf_counter()
            try:
                batch = next(iterator)
            except StopIteration:
                return
            got = time.perf_counter()
            if self.tracer is not None:
                self.tracer.record(self.span_name, asked, got)
            self.wait_ms.append((got - asked) * 1e3)
            yield batch
            self.work_ms.append((time.perf_counter() - got) * 1e3)


class _TracedLoss:
    """The loss tensor with its ``backward`` traced (Tensor has slots)."""

    def __init__(self, loss, tracer: Tracer) -> None:
        self._loss = loss
        self._tracer = tracer

    def backward(self, *args, **kwargs):
        return self._tracer.call("nn.backward", self._loss.backward, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._loss, name)


class _TracedCriterion:
    def __init__(self, criterion, tracer: Tracer) -> None:
        self._criterion = criterion
        self._tracer = tracer

    def __call__(self, *args, **kwargs):
        loss = self._tracer.call("nn.loss", self._criterion, *args, **kwargs)
        return _TracedLoss(loss, self._tracer)


def build_run(seed: int, index: int):
    """Fresh loaders, model and trainer for BMPQ run ``index`` of ``seed``."""
    from repro import BMPQConfig, BMPQTrainer, build_model
    from repro.data import DataLoader, SyntheticImageClassification, standard_augmentation

    data_seed = seed * 1000 + index
    train_set = SyntheticImageClassification(
        TRAIN_SAMPLES, num_classes=NUM_CLASSES, image_size=32, noise_std=0.12, seed=data_seed
    )
    test_set = SyntheticImageClassification(
        TEST_SAMPLES, num_classes=NUM_CLASSES, image_size=32, noise_std=0.12, seed=data_seed + 500
    )
    train = DataLoader(
        train_set,
        batch_size=BATCH_SIZE,
        shuffle=True,
        transform=standard_augmentation(32, padding=2),
        seed=data_seed,
    )
    test = DataLoader(test_set, batch_size=BATCH_SIZE, seed=data_seed)
    model = build_model("resnet18", width_multiplier=WIDTH, num_classes=NUM_CLASSES, seed=data_seed)
    config = BMPQConfig(
        epochs=EPOCHS,
        epoch_interval=1,
        learning_rate=0.08,
        momentum=0.9,
        weight_decay=5e-4,
        lr_milestones=(EPOCHS - 1,),
        support_bits=(4, 2),
        target_average_bits=4.0,
        evaluate_every_epoch=True,
    )
    return BMPQTrainer(model, train, test, config)


#: Layers this workload never calls; their per-layer metrics read zero.
BYPASSED_LAYERS = ("frontend.", "cluster.", "checkpoint.")


def setup(seed: int, trace: bool):
    return build_run(seed, 0)


def teardown(trainer) -> None:
    pass


def check_run(trainer, result) -> List[str]:
    """Output checks for one BMPQ run; returns the failures found."""
    problems: List[str] = []
    policy = trainer.policy
    support = set(trainer.config.support_bits)
    for epoch, bits in result.assignments_over_time[1:]:
        cost = sum(policy.cost_model.layer_cost(spec, bits[spec.name]) for spec in policy.layers)
        if cost > policy.budget_bits + 1e-6:
            problems.append(
                f"assignment after epoch {epoch} costs {cost:.0f} > budget {policy.budget_bits:.0f}"
            )
    final = result.final_bits_by_layer
    for spec in policy.layers:
        bits = final[spec.name]
        if spec.pinned and bits != spec.pinned_bits:
            problems.append(f"pinned layer {spec.name} at {bits} bits, not {spec.pinned_bits}")
        if not spec.pinned and bits not in support:
            problems.append(f"layer {spec.name} at {bits} bits, outside support {sorted(support)}")
    scheduled = len(trainer.schedule.reassignment_epochs())
    if len(result.assignments_over_time) - 1 != scheduled:
        problems.append(
            f"{len(result.assignments_over_time) - 1} ILP re-assignments, expected {scheduled}"
        )
    losses = [record.train_loss for record in result.history]
    accuracies = [record.test_accuracy for record in result.history]
    if len(losses) != EPOCHS or not np.all(np.isfinite(losses)):
        problems.append(f"training losses not finite: {losses}")
    if any(a is None or not 0.0 <= a <= 1.0 for a in accuracies):
        problems.append(f"test accuracies out of range: {accuracies}")
    return problems


class _TraceHooks:
    """Span wrappers around the public calls one BMPQ run makes."""

    def __init__(self, trainer, tracer: Tracer) -> None:
        import repro.core.trainer as trainer_module

        self.ilp_calls = 0
        self.ilp_changed = 0
        self.engines: list = []
        tracer.wrap(trainer, "train_one_epoch", "core.train_epoch")
        tracer.wrap(trainer.model, "forward", "nn.forward")
        tracer.wrap(trainer.optimizer, "step", "nn.optim_step")
        tracer.patch(trainer, "criterion", _TracedCriterion(trainer.criterion, tracer))
        for layer in trainer.layers.values():
            tracer.wrap(layer, "weight_bit_gradient_inputs", "core.nbg")
        tracer.wrap(trainer_module, "layer_nbg_from_grad", "core.nbg")
        tracer.wrap(trainer.tracker, "record_step", "core.nbg")

        assign = trainer.policy.assign

        def traced_assign(enbg):
            before = trainer.current_assignment()
            bits_by_layer, solved = tracer.call("core.ilp", assign, enbg)
            self.ilp_calls += 1
            if any(before[name] != bits for name, bits in bits_by_layer.items()
                   if not trainer.layers[name].pinned):
                self.ilp_changed += 1
            return bits_by_layer, solved

        tracer.patch(trainer.policy, "assign", traced_assign)

        evaluate = trainer_module.evaluate_model

        def traced_evaluate(model, loader, engine=None):
            if engine is not None and all(engine is not seen for seen in self.engines):
                self.engines.append(engine)
                engine.enable_step_profiling()
                tracer.wrap(engine, "predict_logits", "engine.eval_batch")
            return tracer.call("engine.eval", evaluate, model, loader, engine=engine)

        tracer.patch(trainer_module, "evaluate_model", traced_evaluate)


def _one_run(trainer, tracer: "Tracer | None" = None):
    """Run ``trainer.train()`` with clocked loaders; returns the run record."""
    train = ClockedLoader(trainer.train_loader, tracer, "data.batch")
    test = ClockedLoader(trainer.test_loader, tracer, "data.eval_batch")
    trainer.train_loader = train
    trainer.test_loader = test
    hooks = _TraceHooks(trainer, tracer) if tracer is not None else None
    start = time.perf_counter()
    try:
        if tracer is not None:
            result = tracer.call("bmpq.run", trainer.train)
        else:
            result = trainer.train()
    finally:
        run_s = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    record = {
        "run_s": run_s,
        "train_wait_ms": train.wait_ms,
        "train_work_ms": train.work_ms,
        "eval_work_ms": test.work_ms,
        "problems": check_run(trainer, result),
        "final_bits": result.final_bit_vector,
        "final_test_accuracy": result.final_test_accuracy,
    }
    if hooks is not None:
        record["hooks"] = hooks
    return record


def _step_ms(record) -> List[float]:
    """Training-step latency: wait for the batch plus the step itself."""
    return [w + s for w, s in zip(record["train_wait_ms"], record["train_work_ms"])]


def measure(first_trainer, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """Run BMPQ runs for ``seconds``; returns metrics, counts and details."""
    deadline = time.perf_counter() + seconds
    warmup: List[dict] = []
    records: List[dict] = []
    traced: List[dict] = []
    tracers: List[Tracer] = []
    index = 0
    trainer = first_trainer
    while True:
        traced_turn = trace and index >= WARMUP_RUNS and (index - WARMUP_RUNS) % 2 == 1
        into = warmup if index < WARMUP_RUNS else traced if traced_turn else records
        try:
            if traced_turn:
                tracer = Tracer()
                record = _one_run(trainer, tracer)
                tracers.append(tracer)
            else:
                record = _one_run(trainer)
        except Exception as error:  # noqa: BLE001 - a crashed run is a failed operation
            record = {"problems": [f"run raised {error!r}"]}
        into.append(record)
        index += 1
        if (
            time.perf_counter() >= deadline
            and len(records) >= 1
            and (not trace or len(traced) >= 1)
        ):
            break
        trainer = build_run(seed, index)

    every = warmup + records + traced
    attempted = len(every)
    failures = [p for r in every for p in r["problems"]]
    failed = sum(1 for r in every if r["problems"])
    good = [r for r in records if not r["problems"]]
    out: Dict[str, object] = {"attempted": attempted, "failed": failed, "problems": failures}
    if not good:
        out["metrics"] = {}
        return out

    samples_per_run = TRAIN_SAMPLES * EPOCHS
    run_s = [r["run_s"] for r in good]
    loop_rate = [
        samples_per_run / (sum(r["train_wait_ms"]) + sum(r["train_work_ms"])) * 1e3 for r in good
    ]
    eval_ms = [v for r in good for v in r["eval_work_ms"]]
    step_ms = [v for r in good for v in _step_ms(r)]
    out["detail"] = {
        "runs": len(good),
        "run_s": run_s,
        "final_bits": [r["final_bits"] for r in good],
        "final_test_accuracy": [r["final_test_accuracy"] for r in good],
    }
    if not trace:
        out["metrics"] = {
            "samples_per_s": metric(median(loop_rate), "1/s"),
            "max_rate_rps": metric(samples_per_run / median(run_s), "1/s"),
            "p50_ms.low": metric(percentile(eval_ms, 50), "ms"),
            "p50_ms.high": metric(percentile(step_ms, 50), "ms"),
        }
        out["info"] = {
            "p90_ms.low": metric(percentile(eval_ms, 90), "ms"),
            "eval_batches": metric(len(eval_ms), "count"),
            "p90_ms.high": metric(percentile(step_ms, 90), "ms"),
            "train_steps": metric(len(step_ms), "count"),
            "bmpq_run_s": metric(median(run_s), "s"),
        }
        return out
    ok_traced = [(r, t) for r, t in zip(traced, tracers) if not r["problems"]]
    out["layers"] = layer_metrics(good, [r for r, _ in ok_traced], [t for _, t in ok_traced])
    self_ms: Dict[str, float] = {}
    for _, tracer in ok_traced:
        for name, value in tracer.self_time_ms().items():
            self_ms[name] = self_ms.get(name, 0.0) + value / len(ok_traced)
    out["detail"]["self_time_ms_per_run"] = self_ms
    return out


def layer_metrics(
    untraced: List[dict], traced: List[dict], tracers: List[Tracer]
) -> Dict[str, object]:
    """Per-layer metrics of the traced BMPQ runs."""
    steps = sum(len(r["train_work_ms"]) for r in traced)
    forward: List[float] = []
    backward: List[float] = []
    optim: List[float] = []
    nbg_total = 0.0
    ilp: List[float] = []
    first_eval: List[float] = []
    later_eval: List[float] = []
    residual: List[float] = []
    data: List[float] = []
    top_steps: List[List[float]] = []
    allocations = 0
    fallback = 0
    ilp_calls = 0
    ilp_changed = 0
    for record, tracer in zip(traced, tracers):
        by_id = {s["id"]: s for s in tracer.spans}

        def durations(name, parent=None):
            return [
                (s["end"] - s["start"]) * 1e3
                for s in tracer.spans
                if s["name"] == name
                and (parent is None or by_id.get(s["parent"], {}).get("name") == parent)
            ]

        forward += durations("nn.forward", parent="core.train_epoch")
        backward += durations("nn.backward")
        optim += durations("nn.optim_step")
        nbg_total += sum(durations("core.nbg"))
        ilp += durations("core.ilp")
        data += durations("data.batch")
        for evaluation in (s for s in tracer.spans if s["name"] == "engine.eval"):
            batches = sorted(
                (
                    s
                    for s in tracer.spans
                    if s["name"] == "engine.eval_batch" and s["parent"] == evaluation["id"]
                ),
                key=lambda s: s["start"],
            )
            if batches:
                first_eval.append((batches[0]["end"] - batches[0]["start"]) * 1e3)
                later_eval += [(s["end"] - s["start"]) * 1e3 for s in batches[1:]]
        run = next(s for s in tracer.spans if s["name"] == "bmpq.run")
        stages = sum(
            s["end"] - s["start"]
            for s in tracer.spans
            if s["parent"] == run["id"]
        )
        residual.append(((run["end"] - run["start"]) - stages) * 1e3)
        hooks = record["hooks"]
        ilp_calls += hooks.ilp_calls
        ilp_changed += hooks.ilp_changed
        for engine in hooks.engines:
            report = engine.plan_report()
            allocations = max(allocations, int(report["steady_state_allocations"] or 0))
            fallback += int(engine.uses_fallback)
            timings = sorted(report["step_timings"] or [], key=lambda s: -s["total_ms"])
            top_steps.append([s["mean_ms"] for s in timings[:3]])
    traced_ms = sum(r["run_s"] for r in traced) * 1e3
    overhead = median([r["run_s"] for r in traced]) / median([r["run_s"] for r in untraced]) - 1.0
    return {
        "data.batch_ms": metric(median(data), "ms"),
        "nn.forward_ms": metric(median(forward), "ms"),
        "nn.backward_ms": metric(median(backward), "ms"),
        "nn.optim_step_ms": metric(median(optim), "ms"),
        "core.nbg_ms": metric(nbg_total / steps, "ms"),
        "core.ilp_ms": metric(median(ilp), "ms"),
        "core.ilp_calls": metric(ilp_calls, "count"),
        "core.ilp_changed_frac": metric(ilp_changed / max(ilp_calls, 1), "frac"),
        "core.nbg_ilp_epoch_frac": metric((nbg_total + sum(ilp)) / traced_ms, "frac"),
        "engine.eval_first_batch_ms": metric(median(first_eval), "ms"),
        "engine.eval_batch_ms": metric(median(later_eval), "ms"),
        "engine.execute_ms.p50": metric(percentile(first_eval + later_eval, 50), "ms"),
        "plan.step_ms.top1": metric(median([t[0] for t in top_steps]), "ms"),
        "plan.step_ms.top2": metric(median([t[1] for t in top_steps]), "ms"),
        "plan.step_ms.top3": metric(median([t[2] for t in top_steps]), "ms"),
        "plan.steady_state_allocations": metric(allocations, "count"),
        "engine.fallback": metric(fallback, "count"),
        "gen.late_ms.max": metric(max(data), "ms"),
        "e2e.residual_ms.p50": metric(percentile(residual, 50), "ms"),
        "trace.overhead_frac": metric(overhead, "frac"),
    }
