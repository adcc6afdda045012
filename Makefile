# Convenience targets for the reproduction workflow.

PY ?= python

.PHONY: install test bench bench-full bench-all bench-federation bench-soak \
	flow-check figures report examples clean

install:
	pip install -e . --no-build-isolation

test:
	$(PY) -m pytest tests/

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

# The committed baselines: regenerate after intentional changes to the
# federation front door or the rolling-horizon broker, and diff.  The
# `perf/` harness measures everything else.
bench-federation:
	PYTHONPATH=src $(PY) -m repro.cli bench-federation -o BENCH_federation.json

# The 10^5-job rolling-horizon soak (a few minutes on one CPU): refuses to
# record unless memory is flat, p99 is stable, and the incremental
# snapshot beats a per-cycle rebuild by the gated factor.
bench-soak:
	PYTHONPATH=src $(PY) -m repro.cli bench-soak -o BENCH_soak.json

# Regenerate every committed BENCH_*.json in one pass (one slow-ish
# command per archive; each refuses to record numbers whose invariants
# do not hold).
bench-all: bench-federation bench-soak

# The one flow driver, end to end: a seeded `repro flow` on the broker, its
# JSONL replayed by the validator, and a guard that the pre-broker
# generation stays deleted.
flow-check:
	PYTHONPATH=src $(PY) -m repro.cli flow --cycles 6 --arrivals 4 \
		--nodes 40 --seed 11 --trace flow-trace.jsonl
	PYTHONPATH=src $(PY) -c 'from repro.service import validate_trace_file; validate_trace_file("flow-trace.jsonl", expect_drained=True)'
	! grep -rnE "JobFlowSimulation|FlowConfig|FlowResult|CycleStats|UpdateModel|UpdateStats|apply_updates|ReservationLedger|FlowTrace|FlowEvent|remove_busy" \
		src/ tests/ examples/ benchmarks/ docs/ README.md DESIGN.md CONTRIBUTING.md

# The paper-scale run (hours): 5000 cycles, 1000 reps, full grids.
bench-full:
	REPRO_BENCH_CYCLES=5000 REPRO_BENCH_REPS=1000 REPRO_BENCH_FULL=1 \
	$(PY) -m pytest benchmarks/ --benchmark-only

figures:
	$(PY) examples/render_figures.py 200

report:
	$(PY) -m repro.cli report --cycles 500 --reps 20 -o reproduction_report.md

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; $(PY) $$script || exit 1; \
	done

clean:
	rm -rf figures reproduction_report.md flow-trace.jsonl .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
