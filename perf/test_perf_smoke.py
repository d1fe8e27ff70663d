"""Smoke test of the whole-system benchmark (collected by tier-1 pytest).

Runs ``perf/run.py --smoke --trace`` — every workload, untraced and
traced, at sub-second size — and checks the result document against
``BENCHMARK.json``. No timing is asserted: this pins that the harness
runs, that outputs pass their oracles, and that the names line up.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)  # the harness's modules import each other by bare name
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: The workload the suite runs beside BENCHMARK.json's: its time cells cannot
#: hold a bound on a shared host (README, "Bounds"), so the driver does not gate it.
UNGATED = "backend_durable"

#: Counters that must repeat exactly, per op, between two runs of a seed.
EXACT_REPEAT = (
    "pagecache.hits",
    "pagecache.misses",
    "pagecache.stores",
    "pagecache.invalidations",
    "broker.published",
    "broker.candidates",
    "broker.delivered",
    "broker.label_filtered",
    "broker.selector_filtered",
    "producer.events_published",
    "storage_unit.documents_written",
    "replication.docs_written",
)


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def document(tmp_path_factory) -> dict:
    output = tmp_path_factory.mktemp("perf") / "result.json"
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--trace", "--output", str(output)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    with open(output, encoding="utf-8") as handle:
        return json.load(handle)


def test_contract_is_well_formed(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert contract["paths"] == ["perf"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in contract[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for entry in contract["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in contract["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in contract["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        entry for entry in contract["end_to_end"] if entry["name"] == "setup_s"
    ).items()


def test_cell_bounds_follow_the_issue(contract):
    """compare.py judges a cell by 10 %, by at most 15 % where widened, and
    only a demoted cell by the (wider) bound the contract carries."""
    import compare

    metrics = {entry["name"] for entry in contract["end_to_end"]}
    workloads = {entry["name"] for entry in contract["workloads"]} | {UNGATED}
    for workload, name in list(compare.WIDENED) + list(compare.DEMOTED):
        assert name in metrics and (workload == "*" or workload in workloads), (workload, name)
    assert all(compare.DEFAULT_BOUND < bound <= 0.15 for bound in compare.WIDENED.values())
    for workload in workloads:
        for metric in contract["end_to_end"]:
            bound = compare.bound_of(workload, metric)
            demoted = {(workload, metric["name"]), ("*", metric["name"])} & compare.DEMOTED
            assert bound == metric["bound"] if demoted else bound <= min(0.15, metric["bound"])


def suite_workloads(contract) -> list:
    return [entry["name"] for entry in contract["workloads"]] + [UNGATED]


def test_every_workload_ran_both_ways_and_passed(contract, document):
    runs = {(run["workload"], run["trace"]): run for run in document["runs"]}
    assert {workload for workload, _trace in runs} == set(suite_workloads(contract))
    for workload in suite_workloads(contract):
        for trace, declared in ((0, contract["end_to_end"]), (1, contract["per_layer"])):
            run = runs[(workload, trace)]
            assert run["failed"] == 0 and run["correct"], run["failures"]
            assert run["attempted"] >= 1
            for entry in declared:
                value = run["metrics"][entry["name"]]
                assert isinstance(value, (int, float)), (workload, entry["name"])
        for entry in contract["end_to_end"]:
            assert runs[(workload, 0)]["metrics"][entry["name"]] > 0, (workload, entry["name"])


def test_counters_repeat_exactly(contract, document):
    """The untraced run and the traced run's untraced half are two
    independent runs of one seed: per-op counters must be identical."""
    runs = {(run["workload"], run["trace"]): run for run in document["runs"]}
    for workload in suite_workloads(contract):
        first = runs[(workload, 0)]["detail"]["counters_per_op"]
        second = runs[(workload, 1)]["detail"]["counters_per_op"]
        for key in EXACT_REPEAT:
            assert first.get(key) == second.get(key), (workload, key)


def test_a_crashed_child_is_fatal_and_never_reads_an_earlier_document():
    """A child that exits before writing its document (here: on an unknown
    workload name, with Python's exit code 1) must end the suite, and a
    document left under the same name by an earlier run must not stand in."""
    import run

    stale = run.result_path("no_such_workload", 0)
    os.makedirs(os.path.dirname(stale), exist_ok=True)
    with open(stale, "w", encoding="utf-8") as handle:
        json.dump({"workload": "no_such_workload", "failed": 0, "correct": True}, handle)
    try:
        with pytest.raises(SystemExit) as raised:
            run.run_child("no_such_workload", 7, 0.1, 0, True)
        assert "exited 1" in str(raised.value)
        assert not os.path.exists(stale)
    finally:
        if os.path.exists(stale):
            os.remove(stale)


def test_result_records_its_host(document):
    for key in ("git_revision", "nproc", "python", "load_average_at_start", "host.spin_ms"):
        assert key in document["host"]


def test_only_the_adapter_imports_the_program():
    offenders = []
    for filename in sorted(os.listdir(HERE)):
        if not filename.endswith(".py") or filename in ("adapter.py", os.path.basename(__file__)):
            continue
        with open(os.path.join(HERE, filename), encoding="utf-8") as handle:
            if re.search(r"^\s*(from|import)\s+repro\b", handle.read(), re.MULTILINE):
                offenders.append(filename)
    assert not offenders, f"only adapter.py may import repro: {offenders}"


def test_adapter_surface_resolves():
    completed = subprocess.run(
        [sys.executable, "-c", "import adapter; print(adapter.check_surface())"],
        cwd=HERE,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip() == "[]"
