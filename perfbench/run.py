"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload train_bmpq --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload serve_poisson --seed 1 --seconds 45 --trace 1

``--trace 0`` measures the end-to-end metrics with no spans recorded;
``--trace 1`` is a separate run that records spans around the library's
public calls and reports the per-layer metrics.  The metric names, units and
bounds live in ``BENCHMARK.json``; ``perfbench/README.md`` explains the
workloads and what each layer metric is predicted to move.  The last line of
standard output is the result object; the lines before it are a machine
header, one ``name value unit`` line per metric and ``info`` lines for
numbers that are recorded but not gated.  The process exits
non-zero when an output check fails, and with code 2 when the checkout holds
no library to measure.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_bmpq", "serve_poisson")
#: Fresh processes whose set-up time joins the measured process's own.
SETUP_CHILDREN = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: {src}/repro not found; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import common

    if args.workload == "train_bmpq":
        import train_bmpq as workload
    else:
        import serve_poisson as workload

    try:
        return run(args, common, workload)
    finally:
        common.stop_children()


def run(args, common, workload) -> int:
    trace = bool(args.trace)
    system = workload.setup(args.seed, trace)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        workload.teardown(system)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spec = load_spec()
    header = common.machine_header(args.workload, args.seed, trace)
    print("header " + json.dumps(header), flush=True)
    try:
        result = workload.measure(system, args.seed, args.seconds, trace)
    finally:
        workload.teardown(system)

    attempted = int(result["attempted"])
    failed = int(result["failed"])
    if trace:
        produced = result.get("layers", {})
        wanted = spec["per_layer"]
        bypassed = workload.BYPASSED_LAYERS
    else:
        setups = [setup_s] + common.fresh_setup_seconds(args.workload, args.seed, SETUP_CHILDREN)
        produced = {
            "setup_s": common.metric(common.median(setups), "s"),
            "success_frac": common.metric((attempted - failed) / max(attempted, 1), "frac"),
            **result.get("metrics", {}),
        }
        result.setdefault("detail", {})["setup_s"] = setups
        wanted = spec["end_to_end"]
        bypassed = ()
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name in produced:
            metrics[name] = produced[name]
        elif name.startswith(bypassed):
            metrics[name] = common.metric(0.0, entry["unit"])  # layer not on this workload's path
        elif failed:
            continue
        else:
            raise RuntimeError(f"workload {args.workload} produced no metric {name!r}")
        if metrics[name]["unit"] != entry["unit"]:
            raise RuntimeError(f"{name}: unit {metrics[name]['unit']} != {entry['unit']}")

    for problem in result.get("problems", []):
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value['value']!r} {value['unit']}")
    for name, value in result.get("info", {}).items():
        print(f"info {name} {value['value']!r} {value['unit']}")
    common.write_artifact(
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {"header": header, "metrics": metrics, **result},
    )
    correct = failed == 0 and not result.get("problems")
    result_line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result_line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
