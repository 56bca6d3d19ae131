PYTHON ?= python

.PHONY: test perfbench-test lint bench trace-smoke determinism ci experiments flow flow-smoke flow-report flow-dashboard

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# The benchmark's own tests: they import the entry points perfbench/run.py
# drives, so a src/ change that breaks one fails here first.
perfbench-test:
	$(PYTHON) -m pytest perfbench/tests -q

# Prefer ruff (configured in pyproject.toml); fall back to the
# dependency-free subset linter when ruff is not installed.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests scripts examples; \
	else \
		echo "ruff not found; using scripts/lint.py fallback"; \
		$(PYTHON) scripts/lint.py src tests scripts examples; \
	fi

# The bench report (BENCH_current.json), its regression gate against the
# checked-in BENCH_baseline.json (exit 1 on a >10% move of a gated metric
# or any watchdog violation) and its HTML dashboard (dashboard.html): the
# flow's bench-points sweep and its bench, bench-compare and dashboard
# tasks, cached in the .flow state dir that flow-smoke shares.
bench:
	PYTHONPATH=src $(PYTHON) -m repro flow run --mode reduced --state-dir .flow \
		--only bench-compare dashboard --bench-out BENCH_current.json \
		--dashboard-out dashboard.html

# One spans-enabled ping run: stage attribution + Perfetto/JSONL exports.
trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro trace ping --duration-ms 250 \
		--perfetto path-trace-ping.perfetto.json --jsonl path-trace-ping.jsonl

# Fixed-seed equivalence of the fig4 point tasks under the flow runner with
# --jobs 1 vs --jobs 2 and with the timeline sampler, plus the rack shard
# legs (exit 1 on divergence).
determinism:
	$(PYTHON) scripts/determinism_guard.py

# Mirror of the GitHub workflow job list (.github/workflows/ci.yml) so
# local and hosted CI agree:
#   lint -> lint, test + perfbench-test -> test (the sched-conformance
#   matrix re-runs a subset of it), bench -> bench-smoke, determinism ->
#   determinism, trace-smoke -> path-trace, flow-smoke -> experiments-dag.
#   The rack job's CLI export has no target here.
ci: lint test perfbench-test determinism trace-smoke bench flow-smoke

# The full paper reproduction (long; resumable DAG, parallel + cached).
experiments: flow

# The experiment DAG, full parameters.
flow:
	PYTHONPATH=src $(PYTHON) -m repro flow run --print-report

# Reduced DAG twice: the second run must resolve every task from cache,
# and `flow diff` between the cold snapshot and the warm state must show
# zero recomputed tasks / zero digest changes — the same resume +
# incremental-re-run proof the experiments-dag CI job runs.
flow-smoke:
	PYTHONPATH=src $(PYTHON) -m repro flow run --mode reduced --state-dir .flow
	cp .flow/flow-state.json .flow-state-cold.json
	PYTHONPATH=src $(PYTHON) -m repro flow run --mode reduced --state-dir .flow --assert-cached
	PYTHONPATH=src $(PYTHON) -m repro flow diff .flow-state-cold.json .flow --assert-no-changes
	PYTHONPATH=src $(PYTHON) -m repro flow report --state-dir .flow

# Critical-path / resource analysis of the latest flow run in .flow.
flow-report:
	PYTHONPATH=src $(PYTHON) -m repro flow report --state-dir .flow

# Self-contained Gantt dashboard (critical path, cache map, queue waits)
# of the latest flow run in .flow.
flow-dashboard:
	PYTHONPATH=src $(PYTHON) -m repro flow dashboard --state-dir .flow --output flow-gantt.html
