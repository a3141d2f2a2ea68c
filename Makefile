# Convenience targets for the Direct Mesh reproduction.
#
# `test` and `lint` run the exact commands CI runs
# (.github/workflows/ci.yml), so local and CI results cannot drift;
# `ci` chains both.

PYTHON ?= python3

.PHONY: install test test-fast lint lint-repro typecheck ci stress lockwatch perf-harness perf-compare slo-smoke bench-slo fsck mutation-drill bench report examples clean

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

# The one regression gate: run the BENCHMARK.json workloads on BASE
# (checked out into a scratch worktree) and on this tree, on the same
# host, and compare them by named metric under host-speed
# normalisation; exits with perf/compare.py's verdict (1 on a
# regressed or lost row).  `make perf-compare BASE=<commit>`; the
# nightly bench workflow runs it against the merge base.
perf-compare:
	@test -n "$(BASE)" || { echo "usage: make perf-compare BASE=<commit>"; exit 2; }
	set -e; d=/tmp/repro-perf-compare; \
	git worktree remove --force $$d/base 2>/dev/null || true; \
	rm -rf $$d; \
	git worktree add --detach $$d/base $(BASE); \
	(cd $$d/base && $(PYTHON) perf/run.py --trace 0 --out $$d/base.json); \
	$(PYTHON) perf/run.py --trace 0 --out $$d/head.json; \
	git worktree remove --force $$d/base; \
	$(PYTHON) perf/compare.py $$d/base.json $$d/head.json

# Full open-loop SLO matrix at honest guard levels (governed vs
# ungoverned arms are compared inside the run; rewrites BENCH_6.json).
bench-slo:
	$(PYTHON) -m pytest benchmarks/test_slo_openloop.py --benchmark-only -q

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
	cp $(FSCK_DB)/dm_cruns.seg /tmp/repro-fsck-cruns.bak
	PYTHONPATH=src:. $(PYTHON) -c "from repro.core import DirectMeshStore; \
		from repro.storage import Database; \
		from tests.test_verify_store import tamper_cluster_record; \
		db = Database('$(FSCK_DB)'); \
		print(tamper_cluster_record(DirectMeshStore.open(db))); db.close()" \
		> /tmp/repro-fsck-node
	PYTHONPATH=src $(PYTHON) -m repro fsck $(FSCK_DB) > /tmp/repro-fsck-out; \
		test $$? -eq 1 || { echo "fsck missed a tampered run record"; exit 1; }
	grep "dm: node $$(cat /tmp/repro-fsck-node): cluster 0 copy differs" \
		/tmp/repro-fsck-out || { echo "fsck did not name the node"; exit 1; }
	mv /tmp/repro-fsck-cruns.bak $(FSCK_DB)/dm_cruns.seg
	PYTHONPATH=src $(PYTHON) -m repro fsck $(FSCK_DB)
	rm -rf $(FSCK_DB) /tmp/repro-fsck-node /tmp/repro-fsck-out

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
