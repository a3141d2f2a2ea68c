"""Every metric the benchmark reports, by name, and how it is computed.

``END_TO_END`` is what ``--trace 0`` prints as its last line and what
``BENCHMARK.json`` lists with bounds: metrics every workload has and
that are never 0.  ``WORKLOAD_METRICS`` are end-to-end numbers only
some workloads have (the paper's disk accesses are 0 on a hot store,
only sessions put bytes on a wire, only ``patch_mix`` writes); they
are measured with tracing off, printed beside the others and gated by
``compare.py``.  ``PER_LAYER`` comes from the traced passes.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from perf.trace import LayerTable
from perf.workloads import Env, PassStats

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # share of the baseline; None = no gate
    exact: bool = False  # a count that must repeat bit for bit


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p95_ms", "ms", "lower", 0.20),
    Metric("latency_p99_ms", "ms", "lower", 0.25),
    Metric("throughput_qps", "1/s", "higher", 0.25),
    Metric("rss_mb", "MB", "lower", 0.15),
    Metric("store_bytes_per_node", "B", "lower", 0.001, exact=True),
)

#: ``workload_metrics`` decides which workload reports which.
WORKLOAD_METRICS = (
    Metric("da_per_query", "pages", "lower", 0.0, exact=True),
    Metric("wire_bytes_per_frame", "B", "lower", 0.0, exact=True),
    Metric("commit_p50_ms", "ms", "lower", 0.10),
    Metric("write_amp", "x", "lower", 0.0, exact=True),
    Metric("space_amp", "x", "lower", 0.0, exact=True),
    Metric("failed_frac", "ratio", "lower", 0.0, exact=True),
)

PER_LAYER = tuple(
    Metric(name, unit, better)
    for name, unit, better in (
        ("engine.self_ms", "ms", "lower"),
        ("engine.requests", "count", "higher"),
        ("engine.failed", "count", "lower"),
        ("engine.degraded", "count", "lower"),
        ("engine.install_ms", "ms", "lower"),
        ("cache.lookup_ms", "ms", "lower"),
        ("cache.insert_ms", "ms", "lower"),
        ("cache.invalidate_ms", "ms", "lower"),
        ("cache.hit_ratio", "ratio", "higher"),
        ("cache.subsume_hits", "count", "higher"),
        ("cache.evictions", "count", "lower"),
        ("cluster_cache.hit_ratio", "ratio", "higher"),
        ("cluster_cache.evictions", "count", "lower"),
        ("clusters.select_ms", "ms", "lower"),
        ("clusters.candidates_per_query", "count", "lower"),
        ("clusters.blob_ms", "ms", "lower"),
        ("clusters.narrow_ms", "ms", "lower"),
        ("clusters.useful_ratio", "ratio", "higher"),
        ("storage.read_ms", "ms", "lower"),
        ("storage.physical_reads_per_query", "pages", "lower"),
        ("storage.logical_reads_per_query", "pages", "lower"),
        ("storage.pool_hit_ratio", "ratio", "higher"),
        ("storage.write_ms", "ms", "lower"),
        ("storage.sync_ms", "ms", "lower"),
        ("storage.pages_written_per_commit", "pages", "lower"),
        ("record.decode_ms", "ms", "lower"),
        ("record.gather_ms", "ms", "lower"),
        ("record.nodes_decoded_per_query", "count", "lower"),
        ("query.filter_ms", "ms", "lower"),
        ("query.result_ratio", "ratio", "higher"),
        ("reconstruct.edges_ms", "ms", "lower"),
        ("reconstruct.triangles_ms", "ms", "lower"),
        ("reconstruct.triangles_per_query", "count", "higher"),
        ("streaming.update_self_ms", "ms", "lower"),
        ("streaming.churn", "ratio", "lower"),
        ("streaming.keyframes", "count", "lower"),
        ("streaming.resyncs", "count", "lower"),
        ("wire.encode_ms", "ms", "lower"),
        ("wire.apply_ms", "ms", "lower"),
        ("wire.bytes_per_changed_node", "B", "lower"),
        ("wire.bytes_per_frame", "B", "lower"),
        ("mutate.commit_ms", "ms", "lower"),
        ("mutate.rebuild_ms", "ms", "lower"),
        ("mutate.dem_patch_ms", "ms", "lower"),
        ("mutate.stage_ms", "ms", "lower"),
        ("mutate.tiles_rebuilt_per_commit", "count", "lower"),
        ("mutate.write_amp", "x", "lower"),
        ("mutate.space_amp", "x", "lower"),
        ("wal.append_ms", "ms", "lower"),
        ("wal.commit_ms", "ms", "lower"),
        ("wal.bytes_per_commit", "B", "lower"),
        ("wal.fsyncs_per_commit", "count", "lower"),
        ("rstar.search_ms", "ms", "lower"),
        ("rstar.nodes_visited_per_query", "count", "lower"),
        ("rstar.da_per_query", "pages", "lower"),
        ("cost_model.estimate_us", "us", "lower"),
        ("cost_model.da_error_ratio", "ratio", "lower"),
        ("terrain.synth_s", "s", "lower"),
        ("mesh.simplify_s", "s", "lower"),
        ("connectivity.build_s", "s", "lower"),
        ("direct_mesh.build_s", "s", "lower"),
        ("mutate.build_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.unattributed_ratio", "ratio", "lower"),
    )
)


# -- statistics -------------------------------------------------------------------


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def supported(n: int, q: float) -> bool:
    """Whether ``q`` leaves at least ``MIN_BEYOND`` of ``n`` samples
    beyond it; an unsupported tail is the maximum in disguise."""
    return n - math.ceil(q * n) >= MIN_BEYOND


def spread(values: Sequence[float]) -> float:
    """``(max - min) / median`` over passes."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def latencies_ms(passes: Sequence[PassStats], env: Env) -> list[float]:
    """Latencies at nominal host speed, ascending.  Where every pass
    timed the same list of ops, each op's median over the passes: a
    neighbour's burst slows an op in one pass, the program slows it
    in all.  ``patch_mix``'s open-ended passes are pooled."""
    per_pass = [p.latencies_ms(env.speed) for p in passes]
    if len({len(ms) for ms in per_pass}) == 1:
        return sorted(np.median(per_pass, axis=0).tolist())
    return sorted(np.concatenate(per_pass).tolist())


def commit_p50_ms(passes: Sequence[PassStats], env: Env) -> float:
    """Median commit latency at nominal host speed (0 without commits)."""
    commits = sorted(
        ms
        for p in passes
        for ms in env.speed.nominal(p.commit_t, p.commit_ns) / 1e6
    )
    return percentile(commits, 0.50) if commits else 0.0


def _total(passes: Sequence[PassStats], key: str) -> int:
    return sum(p.counts.get(key, 0) for p in passes)


# -- end to end -------------------------------------------------------------------


def end_to_end(
    passes: Sequence[PassStats], setups: Sequence[float], env: Env
) -> dict[str, float]:
    """The metrics every workload reports, from the untraced passes."""
    lat = latencies_ms(passes, env)
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": percentile(lat, 0.50),
        "latency_p95_ms": percentile(lat, 0.95),
        "latency_p99_ms": percentile(lat, 0.99),
        "throughput_qps": len(lat) / (sum(lat) / 1e3),
        "rss_mb": passes[-1].rss_mb,
        "store_bytes_per_node": env.store_bytes / env.n_nodes,
    }


def amplification(
    passes: Sequence[PassStats], env: Env
) -> tuple[float, float]:
    """``(write_amp, space_amp)`` over every commit of ``passes``:
    bytes physically written per patch-payload byte, and directory
    growth per commit relative to the store at epoch 0."""
    commits = [c for p in passes for c in p.commits]
    if not commits:
        return 0.0, 0.0
    written = sum(c.pages_written for c in commits) * env.database.page_size
    growth = sum(c.dir_growth for c in commits) / len(commits)
    return (
        _ratio(written, _total(passes, "patch_bytes")),
        1.0 + growth / env.store_bytes,
    )


def workload_metrics(
    passes: Sequence[PassStats], env: Env
) -> dict[str, float]:
    """The end-to-end numbers only some workloads have: disk accesses
    where one client makes the counts exact, wire bytes where frames
    were sent, commit cost where patches were committed."""
    attempted = sum(p.attempted for p in passes)
    out = {"failed_frac": _ratio(sum(p.failed for p in passes), attempted)}
    if env.mutable is None:
        out["da_per_query"] = _ratio(
            _total(passes, "physical_reads"), attempted
        )
    if _total(passes, "wire_bytes"):
        out["wire_bytes_per_frame"] = _ratio(
            _total(passes, "wire_bytes"), attempted
        )
    if any(p.commits for p in passes):
        out["commit_p50_ms"] = commit_p50_ms(passes, env)
        out["write_amp"], out["space_amp"] = amplification(passes, env)
    return out


# -- per layer --------------------------------------------------------------------


def per_layer(
    traced: Sequence[PassStats],
    untraced: Sequence[PassStats],
    table: LayerTable,
    env: Env,
    registry_delta: dict[str, float],
    reference: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric; a layer a workload never enters reads 0."""
    requests = sum(p.attempted for p in traced)
    commits = [c for p in traced for c in p.commits]
    n_commits = len(commits)
    # Mean self time per client request, per commit, per reference query.
    req = functools.partial(table.ms_per_root, "request")
    com = functools.partial(table.ms_per_root, "mutate.apply_patch")
    ref = functools.partial(table.ms_per_root, "reference")
    total = functools.partial(_total, traced)
    write_amp, space_amp = amplification(traced, env)

    def commit_calls(name: str) -> int:
        return table.calls.get(("mutate.apply_patch", name), 0)

    def setup_s(name: str) -> float:
        return table.self_ns.get(("setup", name), 0) / 1e9

    return {
        "engine.self_ms": req("engine.submit", "engine.wait"),
        "engine.requests": requests,
        "engine.failed": sum(p.failed for p in traced),
        "engine.degraded": registry_delta.get("engine.degraded", 0),
        "engine.install_ms": com("engine.install"),
        "cache.lookup_ms": req("cache.lookup"),
        "cache.insert_ms": req("cache.insert"),
        "cache.invalidate_ms": com(
            "cache.begin_epoch", "cluster_cache.invalidate"
        ),
        "cache.hit_ratio": _ratio(
            total("cache_hits"), total("cache_hits") + total("cache_misses")
        ),
        "cache.subsume_hits": total("cache_subsume_hits"),
        "cache.evictions": total("cache_evictions"),
        "cluster_cache.hit_ratio": _ratio(
            total("cluster_hits"),
            total("cluster_hits") + total("cluster_misses"),
        ),
        "cluster_cache.evictions": total("cluster_evictions"),
        "clusters.select_ms": req(
            "clusters.candidates", "cluster_cache.get", "cluster_cache.put"
        ),
        "clusters.candidates_per_query": _ratio(total("candidates"), requests),
        "clusters.blob_ms": req("clusters.decode", "clusters.blob"),
        "clusters.narrow_ms": req("clusters.narrow"),
        "clusters.useful_ratio": _ratio(
            total("retrieved"), total("nodes_decoded")
        ),
        "storage.read_ms": req(
            "storage.read_run", "storage.fetch",
            "storage.read_pages", "storage.read_page",
        ),
        "storage.physical_reads_per_query": _ratio(
            total("physical_reads"), requests
        ),
        "storage.logical_reads_per_query": _ratio(
            total("logical_reads"), requests
        ),
        "storage.pool_hit_ratio": 1.0 - _ratio(
            total("physical_reads"), total("logical_reads")
        ) if total("logical_reads") else 0.0,
        "storage.write_ms": com("storage.write_page"),
        "storage.sync_ms": com("storage.sync"),
        "storage.pages_written_per_commit": _ratio(
            sum(c.pages_written for c in commits), n_commits
        ),
        "record.decode_ms": req("record.decode"),
        "record.gather_ms": req("record.concat", "record.select"),
        "record.nodes_decoded_per_query": _ratio(
            total("nodes_decoded"), requests
        ),
        "query.filter_ms": req("query.filter_uniform", "query.filter_plane"),
        "query.result_ratio": _ratio(
            total("result_nodes"), total("filtered_from")
        ),
        "reconstruct.edges_ms": req("reconstruct.edges"),
        "reconstruct.triangles_ms": req("reconstruct.triangles"),
        "reconstruct.triangles_per_query": _ratio(
            total("triangles"), requests
        ),
        "streaming.update_self_ms": req("streaming.update", "streaming.diff"),
        "streaming.churn": _ratio(
            total("changed_nodes"),
            total("changed_nodes") + total("kept_nodes"),
        ),
        "streaming.keyframes": total("keyframes"),
        "streaming.resyncs": registry_delta.get("session.resyncs", 0)
        + registry_delta.get("session.patch_resyncs", 0),
        "wire.encode_ms": req("wire.encode"),
        "wire.apply_ms": req("wire.apply", "wire.decode"),
        "wire.bytes_per_changed_node": _ratio(
            total("wire_bytes"), total("changed_nodes")
        ),
        "wire.bytes_per_frame": _ratio(total("wire_bytes"), requests),
        "mutate.commit_ms": commit_p50_ms(traced, env),
        "mutate.rebuild_ms": com("mutate.apply_patch"),
        "mutate.dem_patch_ms": com("mutate.dem_patch"),
        "mutate.stage_ms": com("direct_mesh.materialize"),
        "mutate.tiles_rebuilt_per_commit": _ratio(
            sum(c.tiles_rebuilt for c in commits), n_commits
        ),
        "mutate.write_amp": write_amp,
        "mutate.space_amp": space_amp,
        "wal.append_ms": com("wal.begin_patch", "wal.log_page"),
        "wal.commit_ms": com("wal.commit_patch"),
        "wal.bytes_per_commit": _ratio(
            table.counts.get(("mutate.apply_patch", "wal.commit_patch"), 0),
            n_commits,
        ),
        "wal.fsyncs_per_commit": _ratio(
            commit_calls("wal.commit_patch") + commit_calls("storage.sync"),
            n_commits,
        ),
        "terrain.synth_s": setup_s("terrain.synth"),
        "mesh.simplify_s": setup_s("mesh.simplify"),
        "connectivity.build_s": setup_s("connectivity.build"),
        "direct_mesh.build_s": setup_s("direct_mesh.materialize"),
        "mutate.build_s": setup_s("mutate.build"),
        "trace.overhead_ratio": _ratio(
            statistics.fmean(latencies_ms(traced, env)),
            statistics.fmean(latencies_ms(untraced, env)),
        ),
        "trace.unattributed_ratio": table.unattributed_ratio("request"),
        "rstar.search_ms": ref("rstar.search"),
        "rstar.nodes_visited_per_query": _ratio(
            table.children.get(("rstar.search", "storage.fetch"), 0),
            table.roots.get("reference", 0),
        ),
        "rstar.da_per_query": reference.get("da", 0.0),
        "cost_model.estimate_us": ref("cost_model.estimate") * 1e3,
        "cost_model.da_error_ratio": reference.get("error", 0.0),
    }
