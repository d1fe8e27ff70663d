PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: help test test-unit test-security test-storage test-cluster bench-smoke bench-e2e bench bench-soak docs-check lint-ifc typecheck

## Show every target with its description.
help:
	@awk '/^## /{desc=substr($$0,4); next} /^[A-Za-z0-9_.-]+:/{if (desc) printf "  %-14s %s\n", substr($$1,1,length($$1)-1), desc; desc=""}' $(MAKEFILE_LIST)

## Tier-1: the full suite (unit + property + integration + benchmark smoke).
test: docs-check lint-ifc
	$(PYTHON) -m pytest -x -q

## Static IFC/taint/lock-order analysis; fails on any finding in src/.
lint-ifc:
	$(PYTHON) scripts/analyze.py src/repro

## mypy over the strict-typed packages (skips cleanly if mypy is absent).
typecheck:
	@$(PYTHON) -c "import mypy" 2>/dev/null \
		&& $(PYTHON) -m mypy --config-file mypy.ini src/repro/core src/repro/taint \
		|| echo "mypy not installed; skipping typecheck (CI runs it)"

## Fast feedback: unit and property tests only.
test-unit:
	$(PYTHON) -m pytest tests/unit tests/property -q

## The adversarial vulnerability corpus (both-direction security matrix).
test-security:
	$(PYTHON) -m pytest tests/security -q

## The document store: unit suites plus the reference-equivalence, write-path and crash-recovery property suites.
test-storage:
	$(PYTHON) -m pytest tests/unit/storage tests/property/test_sharded_store.py \
		tests/property/test_write_path.py tests/property/test_crash_recovery.py -q

# First the equivalence oracle's cluster cells (engine modes, drain barrier, worker kill,
# cluster deployment profiles), then the cluster's own suites and the STOMP suites that
# share its I/O core (plain, TLS, bridge robustness, receipt window, a RECEIPT following its
# delivery, concurrent publishers into one shard).
## The multi-process cluster engine: oracle cluster modes, chaos, deployment and STOMP fabric tests.
test-cluster:
	$(PYTHON) -m pytest tests/property/test_oracle.py tests/integration/test_deployment_oracle.py -k cluster -q
	$(PYTHON) -m pytest tests/integration/test_cluster_deployment.py \
		tests/integration/test_cluster_control.py tests/integration/test_cluster_blocking.py \
		tests/unit/events/test_stomp_frames.py tests/property/test_frame_codec.py \
		tests/unit/events/test_stomp_link.py tests/integration/test_stomp.py \
		tests/integration/test_tls.py tests/integration/test_bridge_robustness.py \
		tests/integration/test_receipt_window.py tests/integration/test_receipt_follows_delivery.py \
		tests/integration/test_concurrent_stomp_publishers.py -q

## Quick benchmark smoke: the broker ablation and throughput experiments.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/test_a1_broker_matching.py benchmarks/test_e4_throughput.py -q

## The whole-system benchmark (BENCHMARK.json): all six perf/ workloads, results in perf/out/result.json.
bench-e2e:
	$(PYTHON) perf/run.py

## Fail if docs/*.md or README.md reference modules, files or make targets that don't exist.
docs-check:
	$(PYTHON) scripts/docs_check.py

## The full paper benchmark suite (slow).
bench:
	$(PYTHON) -m pytest benchmarks -q

# ROADMAP's exit criterion for "tier-1 must not depend on the host's mood".
## Flake gate: 50 consecutive benchmarks/ runs beside a busy-loop sibling process; stops at the first failure.
bench-soak:
	@mkdir -p .benchmarks; \
	$(PYTHON) -c "while True: pass" & noise=$$!; trap "kill $$noise" EXIT; \
	for run in $$(seq 1 50); do \
		$(PYTHON) -m pytest benchmarks -q -p no:cacheprovider > .benchmarks/bench-soak.log 2>&1 \
			|| { tail -n 40 .benchmarks/bench-soak.log; echo "bench-soak: run $$run of 50 FAILED"; exit 1; }; \
		echo "bench-soak: run $$run of 50 passed ($$(tail -n 1 .benchmarks/bench-soak.log))"; \
	done; echo "bench-soak: 50 of 50 passed"
