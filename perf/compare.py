"""The one gate that compares two result files: ``compare.py A.json B.json``.

For each workload and end-to-end metric it prints both values, the
change of B against A, the bound, and a verdict:

* ``ok`` — B is no worse than A by more than the bound;
* ``regressed`` — it is (an exact count must be *equal*);
* ``unresolved`` — a timing whose spread over the passes of either run
  is wider than its bound: the runs cannot tell a change that size
  from noise, so it is reported as neither.

Exits 1 if any row regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from perf.metrics import END_TO_END, WORKLOAD_METRICS, Metric  # noqa: E402

TIMING_UNITS = ("ms", "s", "1/s")


def untraced_records(path: Path) -> dict[str, dict]:
    """``workload -> record`` for the runs that measured end to end."""
    records = json.loads(path.read_text())["records"]
    return {r["workload"]: r for r in records if "end_to_end" in r}


def verdict(metric: Metric, a: float, b: float, spread: float) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one row."""
    if metric.exact:
        return "ok" if a == b else "regressed"
    assert metric.bound is not None
    if metric.unit in TIMING_UNITS and spread > metric.bound:
        return "unresolved"
    worse = (b - a) / a if metric.better == "lower" else (a - b) / a
    return "regressed" if worse > metric.bound else "ok"


def compare(a: dict[str, dict], b: dict[str, dict]) -> list[tuple]:
    """Rows ``(workload, metric, a, b, delta, bound, verdict)``."""
    rows = []
    for workload in a:
        if workload not in b:
            continue
        ra, rb = a[workload], b[workload]
        for metric in END_TO_END + WORKLOAD_METRICS:
            values = [
                {**r["end_to_end"], **r["workload_metrics"]}.get(metric.name)
                for r in (ra, rb)
            ]
            if None in values:
                continue
            va, vb = values
            kind = "setup" if metric.name == "setup_s" else "latency"
            spread = max(ra["spread"][kind], rb["spread"][kind])
            delta = (vb - va) / va if va else 0.0
            rows.append(
                (
                    workload, metric.name, va, vb, delta, metric.bound,
                    verdict(metric, va, vb, spread),
                )
            )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    rows = compare(*(untraced_records(Path(p)) for p in argv))
    print(
        f"{'workload':15s} {'metric':22s} {'A':>12s} {'B':>12s} "
        f"{'change':>8s} {'bound':>6s}  verdict"
    )
    for workload, name, va, vb, delta, bound, status in rows:
        print(
            f"{workload:15s} {name:22s} {va:12.4f} {vb:12.4f} "
            f"{delta:+8.1%} {bound:6.1%}  {status}"
        )
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
