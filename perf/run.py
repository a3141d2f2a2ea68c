"""One command for every metric: ``python3 perf/run.py [--workload NAME]``.

For each selected workload: set the store up (several times, the
median is ``setup_s``), generate requests from ``--seed``, warm up,
measure untraced passes for ``--seconds``, check sampled answers
against the paper's reference semantics, print every metric by name
with its unit, and end with one JSON line (``correct``, ``attempted``,
``failed``, ``metrics``).  ``--trace 1`` alternates untraced and
traced passes instead and reports the per-layer table; with neither
``--workload`` nor ``--trace`` every workload is run both ways.
Exits 1 on any correctness failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
# The script's own directory must not shadow top-level modules
# (perf/trace.py vs the stdlib's trace); import through the package.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

try:
    import repro  # noqa: F401
except ImportError:
    sys.exit(f"perf/run.py: no repro package under {ROOT / 'src'}")

from perf import checks, metrics  # noqa: E402
from perf.hostspeed import SpeedLog, pin  # noqa: E402
from perf.trace import Tracer, build_targets, layer_table, layer_targets  # noqa: E402
from perf.workloads import WORKLOADS, Env, PassStats, Workload  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def set_up(
    workload: Workload, scratch: Path, times: int, smoke: bool,
    tracer: Tracer | None, speed: SpeedLog,
) -> tuple[Env, list[float]]:
    """Build the workload's store ``times`` times; keep the last.
    Returns it with each set-up's seconds at nominal host speed."""
    env, started, elapsed = None, [], []
    for _ in range(times):
        if env is not None:
            env.close()
        path = _fresh_dir(scratch / "db")
        speed.read()
        started.append(time.perf_counter_ns())
        if tracer is not None:
            with tracer.installed(build_targets()), tracer.request("setup"):
                env = workload.setup(path, smoke)
        else:
            env = workload.setup(path, smoke)
        elapsed.append(time.perf_counter_ns() - started[-1])
        speed.read()
    assert env is not None
    env.speed = speed
    return env, list(speed.nominal(started, elapsed) / 1e9)


def reference_pass(env: Env, requests: list, tracer: Tracer) -> dict[str, float]:
    """The paper's per-node path (R*-tree probe, page-ordered record
    fetch) on the same uniform requests, with the cost model's
    predicted disk accesses beside the counted ones."""
    actual, errors = [], []
    with tracer.installed(layer_targets()):
        for request in requests:
            box = request.query_box(env.store.e_cap)
            env.database.begin_measured_query()
            with tracer.request("reference"):
                env.store.uniform_query(request.roi, request.lod)
                predicted = env.store.cost_model.estimate(box)
            actual.append(env.database.disk_accesses)
            errors.append(abs(predicted - actual[-1]) / actual[-1])
    return {"da": statistics.fmean(actual), "error": statistics.median(errors)}


def measure(
    workload: Workload, seed: int, seconds: float, traced: bool,
    smoke: bool, scratch: Path,
) -> dict[str, Any]:
    """Run one workload; returns its result record."""
    tracer = Tracer() if traced else None
    times = 1 if traced or smoke else SETUPS
    speed = SpeedLog()
    env, setups = set_up(workload, scratch, times, smoke, tracer, speed)
    problems: list[str] = []
    try:
        requests = workload.requests(env, seed, smoke)
        workload.warm_up(env, requests)
        # The oracle's mesh and the request list are the harness's
        # own; keep them out of the program's collections.
        gc.collect()
        gc.freeze()
        plain: list[PassStats] = []
        spanned: list[PassStats] = []
        counters = env.engine.registry.counters()
        deadline = time.monotonic() + seconds
        while True:
            budget = max(0.0, deadline - time.monotonic())
            gc.collect()
            speed.read()
            plain.append(
                workload.run_pass(
                    env, requests, budget / 2 if traced else budget,
                    sample=not plain,
                )
            )
            speed.read()
            if tracer is not None:
                gc.collect()
                with tracer.installed(layer_targets()):
                    spanned.append(
                        workload.run_pass(
                            env, requests, budget / 2, span=tracer.request
                        )
                    )
                speed.read()
            if time.monotonic() >= deadline:
                break
        gc.unfreeze()

        if env.pm is not None:
            problems += checks.check_samples(
                env, workload.in_pass_order(requests), plain[0].samples
            )
            problems += checks.check_counts(plain)
        record: dict[str, Any] = {
            "workload": workload.name,
            "seed": seed,
            "passes": len(plain),
            # How many values a latency percentile is taken over.
            "n": len(metrics.latencies_ms(plain, env)),
        }
        if tracer is None:
            record["end_to_end"] = metrics.end_to_end(plain, setups, env)
            record["workload_metrics"] = metrics.workload_metrics(plain, env)
            p50s = [statistics.median(p.latencies_ms(speed)) for p in plain]
            record["pass_p50_ms"] = p50s
            record["setups_s"] = setups
            record["spread"] = {
                "latency": metrics.spread(p50s),
                "setup": metrics.spread(setups),
            }
        else:
            reference = {}
            if workload.paper_path:
                reference = reference_pass(env, requests, tracer)
            after = env.engine.registry.counters()
            delta = {k: v - counters.get(k, 0) for k, v in after.items()}
            table = layer_table(tracer.spans, speed.slowdown)
            record["per_layer"] = metrics.per_layer(
                spanned, plain, table, env, delta, reference
            )
            OUT.mkdir(exist_ok=True)
            tracer.write_jsonl(OUT / f"trace_{workload.name}.jsonl")
        every = plain + spanned
        record["attempted"] = sum(p.attempted for p in every)
        record["failed"] = sum(p.failed for p in every)
        failures = [e for p in every for e in p.errors]
        problems += failures[:5]
        if env.mutable is not None:
            problems += checks.check_reopen(
                env, sum(len(p.commits) for p in every), scratch
            )
    finally:
        env.close()
        shutil.rmtree(scratch, ignore_errors=True)
    record["problems"] = problems
    record["correct"] = not problems and record["failed"] == 0
    return record


def report(record: dict[str, Any]) -> None:
    """Every metric by name with its unit, then the contract's line."""
    name = record["workload"]
    print(
        f"== {name}  seed={record['seed']}  passes={record['passes']}  "
        f"n={record['n']}"
    )
    out: dict[str, dict[str, Any]] = {}
    if "end_to_end" in record:
        n = record["n"]
        for metric in metrics.END_TO_END:
            value = record["end_to_end"][metric.name]
            out[metric.name] = {"value": value, "unit": metric.unit}
            note = ""
            if metric.name == "latency_p50_ms":
                note = (
                    f"  spread over {record['passes']} passes "
                    f"{record['spread']['latency']:.3f}"
                )
            if metric.name == "setup_s":
                note = (
                    f"  spread over {len(record['setups_s'])} set-ups "
                    f"{record['spread']['setup']:.3f}"
                )
            for q in (95, 99):
                if metric.name == f"latency_p{q}_ms" and not metrics.supported(
                    n, q / 100
                ):
                    note = f"  (n={n}: fewer than 10 samples beyond)"
            print(f"  {metric.name:34s} {value:14.4f} {metric.unit}{note}")
        for metric in metrics.WORKLOAD_METRICS:
            if metric.name in record["workload_metrics"]:
                value = record["workload_metrics"][metric.name]
                print(f"  {metric.name:34s} {value:14.4f} {metric.unit}")
    if "per_layer" in record:
        for metric in metrics.PER_LAYER:
            value = record["per_layer"][metric.name]
            out[metric.name] = {"value": value, "unit": metric.unit}
            print(f"  {metric.name:34s} {value:14.4f} {metric.unit}")
    for problem in record["problems"]:
        print(f"  INCORRECT: {problem}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": out,
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="run only this workload (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long one run measures (default: BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end metrics, tracing off; 1: per-layer metrics "
        "from traced passes (default: both, one after the other)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="a quarter-size store, one set-up, one second per run",
    )
    parser.add_argument(
        "--out", type=Path, default=OUT / "result.json",
        help="where the result records are written",
    )
    args = parser.parse_args(argv)
    pin()
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(
            json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        )
    names = args.workload or list(WORKLOADS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    records = []
    for name in names:
        for traced in modes:
            scratch = OUT / f"run-{os.getpid()}"
            record = measure(
                WORKLOADS[name], args.seed, seconds, traced, args.smoke,
                scratch,
            )
            records.append(record)
            report(record)
            sys.stdout.flush()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"records": records}, indent=1))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
