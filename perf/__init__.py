"""The repo's benchmark: workloads, named metrics, a traced per-layer table.

See ``perf/README.md``.  Nothing here imports ``repro.bench`` or
``benchmarks``; the layers of ``repro`` are measured from outside.
"""
