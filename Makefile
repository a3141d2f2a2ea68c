# Convenience targets for the Direct Mesh reproduction.
#
# `test` and `lint` run the exact commands CI runs
# (.github/workflows/ci.yml), so local and CI results cannot drift;
# `ci` chains both.

PYTHON ?= python3

.PHONY: install test test-fast lint lint-repro typecheck ci stress lockwatch perf-smoke perf-harness slo-smoke session-smoke cluster-smoke bench-slo bench-session bench-cluster fsck mutation-drill bench report examples clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest -q

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

lint:
	ruff check src tests benchmarks

# Project-specific static analysis: lock discipline, e_cap clamping,
# lazy-init safety, typed invariants, metric-name registry.  Rules and
# suppressions live in src/repro/analysis; `--list-rules` explains.
lint-repro:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src tests benchmarks --statistics

# Strict typing over the concurrency-critical layers (the `files` list
# in [tool.mypy]).  mypy is not vendored in the offline image, so skip
# gracefully when it is missing; CI always installs and runs it.
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "typecheck: mypy not installed; skipping (CI runs it)"; \
	fi

ci: lint lint-repro test

# Robustness gate: the fault-injection and concurrency suites (which
# run the engine at workers=8), repeated to shake out scheduling-
# dependent races.  Mirrors the `stress` job in CI.
STRESS_RUNS ?= 3
stress:
	@for i in $$(seq 1 $(STRESS_RUNS)); do \
		echo "stress run $$i/$(STRESS_RUNS)"; \
		$(PYTHON) -m pytest tests/test_faults.py tests/test_stress.py \
			tests/test_engine.py tests/test_metrics.py -q || exit 1; \
	done

# Runtime lock-order witness: re-run the stress suites with every
# engine/storage lock instrumented (REPRO_LOCKWATCH=1), dump the
# observed acquisition-order graph, then require it to be acyclic and
# a subgraph of the static graph computed by the R9 lockset analysis.
# Mirrors the `lockwatch` job in CI.
LOCKWATCH_OUT ?= lockorder.json
lockwatch:
	rm -f $(LOCKWATCH_OUT)
	REPRO_LOCKWATCH=1 REPRO_LOCKWATCH_OUT=$(LOCKWATCH_OUT) \
		STRESS_RUNS=1 $(MAKE) stress
	PYTHONPATH=src $(PYTHON) scripts/lockwatch_check.py $(LOCKWATCH_OUT)

# Performance gate: the semantic-cache / vectorized-kernel benchmark
# with its built-in guards (cached qps >= REPRO_CACHE_GUARD x uncached,
# vectorized filters >= REPRO_VEC_GUARD x scalar).  Mirrors the
# `perf-smoke` job in CI, which relaxes the guards for shared runners.
perf-smoke:
	$(PYTHON) -m pytest benchmarks/test_semantic_cache.py --benchmark-only -q

# Benchmark-harness gate: perf/ times the serving path from outside
# through wrappers on named callables (perf/trace.py layer_targets),
# so a refactor that renames one or stops calling it must fail here,
# not in the benchmark driver.  Runs the harness's own tests, then a
# quarter-size pass of all five workloads (exit 1 on a wrong answer).
# Mirrors the `perf-harness` job in CI.
perf-harness:
	$(PYTHON) -m pytest perf -q
	$(PYTHON) perf/run.py --smoke

# Open-loop SLO smoke: a short run of the admission-controlled
# open-loop matrix with generous guards (goodput merely well above
# zero, shed path exercised, reports schema-valid).  Mirrors the
# `slo-smoke` job in CI; the honest numbers come from the nightly
# bench workflow (`benchmarks/test_slo_openloop.py` at defaults).
SLO_SMOKE_REQUESTS ?= 250
SLO_SMOKE_GOODPUT_FRAC ?= 0.25
slo-smoke:
	REPRO_SLO_REQUESTS=$(SLO_SMOKE_REQUESTS) \
	REPRO_SLO_GOODPUT_FRAC=$(SLO_SMOKE_GOODPUT_FRAC) \
	REPRO_SLO_COLLAPSE_GUARD=0.5 \
	$(PYTHON) -m pytest benchmarks/test_slo_openloop.py --benchmark-only -q

# Full open-loop SLO matrix at honest guard levels + the nightly
# regression gate against the committed BENCH_6.json baseline.
bench-slo:
	cp BENCH_6.json /tmp/repro-bench-baseline.json
	$(PYTHON) -m pytest benchmarks/test_slo_openloop.py --benchmark-only -q
	$(PYTHON) scripts/bench_compare.py /tmp/repro-bench-baseline.json BENCH_6.json

# Delta-session smoke: a short run of the transmission matrix with a
# relaxed reduction guard (delta must merely halve naive's bytes; the
# honest >= 5x number comes from the nightly bench at defaults).
# Every frame is still decoded client-side and verified against the
# engine's answer.  Mirrors the `session-smoke` job in CI.
SESSION_SMOKE_FRAMES ?= 80
SESSION_SMOKE_REDUCTION ?= 2.0
session-smoke:
	REPRO_SESSION_FRAMES=$(SESSION_SMOKE_FRAMES) \
	REPRO_SESSION_REDUCTION=$(SESSION_SMOKE_REDUCTION) \
	$(PYTHON) -m pytest benchmarks/test_session_delta.py --benchmark-only -q

# Cluster fast-path smoke: the clustered/per-node A/B with a relaxed
# speedup guard (clustered merely must not lose to the per-node
# oracle; the honest >= 2x comes from the nightly bench at defaults).
# Results stay node-id-identical either way — that parity is always
# asserted at full strength.  Mirrors the `cluster-smoke` job in CI.
CLUSTER_SMOKE_GUARD ?= 1.0
CLUSTER_SMOKE_REQUESTS ?= 24
cluster-smoke:
	REPRO_CLUSTER_GUARD=$(CLUSTER_SMOKE_GUARD) \
	REPRO_CLUSTER_REQUESTS=$(CLUSTER_SMOKE_REQUESTS) \
	$(PYTHON) -m pytest benchmarks/test_clusters.py --benchmark-only -q

# Full cluster A/B at the honest >= 2x speedup guard + the nightly
# regression gate against the committed BENCH_8.json baseline.
bench-cluster:
	cp BENCH_8.json /tmp/repro-bench8-baseline.json
	$(PYTHON) -m pytest benchmarks/test_clusters.py --benchmark-only -q
	$(PYTHON) scripts/bench_compare.py /tmp/repro-bench8-baseline.json BENCH_8.json

# Full delta-session matrix at the honest >= 5x reduction guard + the
# nightly regression gate against the committed BENCH_7.json baseline.
bench-session:
	cp BENCH_7.json /tmp/repro-bench7-baseline.json
	$(PYTHON) -m pytest benchmarks/test_session_delta.py --benchmark-only -q
	$(PYTHON) scripts/bench_compare.py /tmp/repro-bench7-baseline.json BENCH_7.json

# Integrity drill: build a throwaway database, scrub it (must be
# clean), snapshot, inject seeded corruption (scrub must now fail),
# repair from the snapshot, scrub once more, then damage the cluster
# directory sidecar (scrub must flag the run/blob mismatch) and
# restore it.  Mirrors the `integrity` job in CI.
FSCK_DB ?= /tmp/repro-fsck-drill.db
fsck:
	rm -rf $(FSCK_DB)
	PYTHONPATH=src $(PYTHON) -m repro build $(FSCK_DB) --dataset foothills --points 800
	PYTHONPATH=src $(PYTHON) -m repro fsck $(FSCK_DB)
	PYTHONPATH=src $(PYTHON) -m repro fsck $(FSCK_DB) --archive
	PYTHONPATH=src $(PYTHON) -m repro fsck $(FSCK_DB) --inject 5 --seed 7; \
		test $$? -eq 1 || { echo "fsck missed injected corruption"; exit 1; }
	PYTHONPATH=src $(PYTHON) -m repro fsck $(FSCK_DB) --repair
	PYTHONPATH=src $(PYTHON) -m repro fsck $(FSCK_DB)
	cp $(FSCK_DB)/dm_clusters.json /tmp/repro-fsck-clusters.bak
	$(PYTHON) -c "import json; p = '$(FSCK_DB)/dm_clusters.json'; \
		d = json.load(open(p)); d['clusters'][0]['n_nodes'] += 1; \
		json.dump(d, open(p, 'w'))"
	PYTHONPATH=src $(PYTHON) -m repro fsck $(FSCK_DB); \
		test $$? -eq 1 || { echo "fsck missed cluster-directory damage"; exit 1; }
	mv /tmp/repro-fsck-clusters.bak $(FSCK_DB)/dm_clusters.json
	PYTHONPATH=src $(PYTHON) -m repro fsck $(FSCK_DB)
	rm -rf $(FSCK_DB)

# Live-mutation robustness gate: rebuild-from-scratch parity across
# random patch sequences, a kill-anywhere crash pass (every distinct
# WAL protocol point + a sample of page boundaries, recovery must
# land on exactly the pre- or post-patch snapshot), and concurrent
# readers racing live commits (every result must be some committed
# epoch's exact snapshot).  Mirrors the `mutation-drill` job in CI.
mutation-drill:
	PYTHONPATH=src $(PYTHON) scripts/mutation_drill.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

report:
	$(PYTHON) -m repro.bench.report results results/report.md

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/flyover.py 4
	$(PYTHON) examples/compare_methods.py
	$(PYTHON) examples/dem_pipeline.py
	$(PYTHON) examples/streaming_client.py 6

clean:
	rm -rf .data .pytest_cache .hypothesis results
	find . -name __pycache__ -type d -exec rm -rf {} +
