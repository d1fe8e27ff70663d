#!/usr/bin/env python3
"""The whole-system benchmark: one command, six workloads (five that
``BENCHMARK.json`` gates and the ungated ``backend_durable``).

Two ways in:

* ``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1`` —
  one workload, one window; the last line of standard output is one JSON
  object ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
  reports every end-to-end metric of ``BENCHMARK.json``, ``--trace 1``
  every per-layer metric (an untraced half for counters and the
  baseline, then a half with timing wrappers installed from here).
* ``python3 perf/run.py`` — every workload, each in a fresh interpreter,
  prints every metric by name with its unit and writes
  ``perf/out/result.json``; ``--trace`` adds the per-layer runs,
  ``--repeat N`` produces the run sets ``compare.py`` consumes,
  ``--smoke`` is the sub-second version the smoke test drives.

See README.md for what each metric means and how to read the output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from time import perf_counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from stats import median, percentile  # noqa: E402

#: Full set-ups timed per untraced run; ``setup_s`` is their median. A run
#: makes ``SETUP_REPEATS`` and goes on, to at most ``SETUP_MOST``, while all
#: of them together took under ``SETUP_SECONDS``: a set-up of milliseconds
#: (broker_fanout) needs more samples than three for a steady median.
SETUP_REPEATS = 3
SETUP_MOST = 25
SETUP_SECONDS = 0.75
#: ``peak_rss_mb`` is read once this many cycles of the window have run, so
#: a faster system, which fits more cycles into the window, does not read
#: as a bigger one (some layers keep history per pass).
RSS_CYCLES = 8
#: Fewest latency samples a block of cycles holds before percentiles are taken.
BLOCK_SAMPLES = 32
#: Longest window of the unprotected run behind ``enforcement.overhead_ratio``.
ENFORCEMENT_SECONDS = 2.0
#: Exit code of a run that finished and reported, with failed ops or checks.
#: Not 1: that is what Python exits with when a run crashed.
EXIT_FAILED_OPS = 3


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- one window ---------------------------------------------------------------


def run_window(workload, seconds: float):
    """Whole cycles until *seconds* have passed; returns what was observed."""
    from workloads import Recorder, own_peak_rss_kb

    gc.collect()  # a clean heap at the start; the collector stays enabled
    rec = Recorder()
    before = workload.counters()
    started = perf_counter()
    while True:
        workload.cycle(rec)
        if len(rec.cycles) <= RSS_CYCLES:
            rec.peak_rss_kb = own_peak_rss_kb() + workload.child_peak_rss_kb
        if perf_counter() - started >= seconds:
            break
    wall = perf_counter() - started
    after = workload.counters()
    delta = {key: value - before.get(key, 0) for key, value in after.items()}
    return rec, delta, wall


def host_spin_ms() -> float:
    """The host probe's fastest of five readings, in milliseconds."""
    from hostprobe import probe

    return min(probe() for _ in range(5)) * 1e3


def scaled_cycles(rec):
    """Per cycle: (ops, busy s, cpu s incl. children, latency samples), at
    reference host speed (hostprobe.py)."""
    from hostprobe import compensate

    low = 0
    for ops, busy, cpu, high, host, child_cpu in rec.cycles:
        scale = compensate(busy, cpu, host) / busy
        yield ops, busy * scale, (cpu + child_cpu) * host, [s * scale for s in rec.latencies[low:high]]
        low = high


def latency_percentiles(rec) -> Dict[str, float]:
    """p50 and p95 in ms, taken per block of whole cycles holding at least
    ``BLOCK_SAMPLES`` samples; the median block is reported, so a burst of
    interference from the host's other tenants lands in a few blocks'
    tails and not in the result."""
    blocks, block = [], []
    for _ops, _busy, _cpu, samples in scaled_cycles(rec):
        block.extend(samples)
        if len(block) >= BLOCK_SAMPLES:
            blocks.append(block)
            block = []
    if blocks:
        blocks[-1].extend(block)
    else:
        blocks.append(block)
    return {
        "latency_p50_ms": median([median(samples) for samples in blocks]) * 1e3,
        "latency_p95_ms": median([percentile(samples, 0.95) for samples in blocks]) * 1e3,
    }


def cpu_ms_per_op(rec) -> float:
    """User + system CPU of the workload process and its children per op."""
    return sum(cpu for _ops, _busy, cpu, _samples in scaled_cycles(rec)) / rec.ops * 1e3


def end_to_end(workload, rec) -> Dict[str, float]:
    """The end-to-end metrics of one window (and ``latency_p95_ms`` and
    ``cpu_ms_per_op``, which are reported per layer). Every time a cycle
    observed is brought to reference host speed before any statistic is
    taken."""
    return dict(
        latency_percentiles(rec),
        setup_s=median(workload.setup_samples),
        throughput_per_s=median([ops / busy for ops, busy, _cpu, _samples in scaled_cycles(rec)]),
        cpu_ms_per_op=cpu_ms_per_op(rec),
        peak_rss_mb=rec.peak_rss_kb / 1024.0,
    )


def busy_at_reference(rec) -> float:
    """The window's busy seconds at reference host speed."""
    return sum(busy for _ops, busy, _cpu, _samples in scaled_cycles(rec))


# -- the untraced run: end-to-end metrics -------------------------------------


def run_untraced(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, OUT_DIR, smoke=smoke)
    load_start = os.getloadavg()[0]
    try:
        spent = 0.0
        while True:
            started = perf_counter()
            workload.timed_setup()
            spent += perf_counter() - started
            made = len(workload.setup_samples)
            if smoke or made >= SETUP_MOST or (made >= SETUP_REPEATS and spent >= SETUP_SECONDS):
                break
            workload.teardown()
        workload.warmup()
        rec, delta, wall = run_window(workload, seconds)
        workload.check_counters(rec, delta)
        extras = workload.finish(rec)
        workload.shutdown(rec)
    finally:
        workload.teardown()
    metrics = end_to_end(workload, rec)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": 0,
        "correct": rec.failed == 0,
        "attempted": rec.ops + rec.checks,
        "failed": rec.failed,
        "failures": rec.failures,
        "metrics": metrics,
        "detail": {
            "op_unit": workload.op_unit,
            "ops": rec.ops,
            "cycles": len(rec.cycles),
            "latency_samples": len(rec.latencies),
            "setup_samples": len(workload.setup_samples),
            "window_wall_s": wall,
            "profile": workload.profile(),
            "counters_per_op": per_op(delta, rec.ops),
            "diagnostics": dict(extras, **diagnostics(rec)),
            "host_factor_median": median([row[4] for row in rec.cycles]),
            "load_average_at_start": load_start,
        },
    }


def per_op(delta: Dict[str, float], ops: int) -> Dict[str, float]:
    return {key: value / ops for key, value in sorted(delta.items())}


def diagnostics(rec) -> Dict[str, float]:
    out = {"failed_ops_ratio": rec.failed / max(1, rec.ops + rec.checks)}
    if rec.freshness:
        out["freshness_p50_ms"] = median(rec.freshness) * 1e3
    return out


# -- the traced run: per-layer metrics ----------------------------------------


def run_traced(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    import adapter
    from tracer import Tracer
    from workloads import WORKLOADS, Recorder

    cls = WORKLOADS[name]
    checks = Recorder()  # failures of every phase end up here
    extras: Dict[str, float] = {}

    # Phase A, untraced: counters, the baseline time per op, diagnostics.
    plain = cls(seed, OUT_DIR, smoke=smoke)
    try:
        plain.timed_setup()
        plain.warmup()
        rec_a, delta_a, _wall = run_window(plain, seconds / 2)
        plain.check_counters(rec_a, delta_a)
        extras.update(plain.probes())
        extras.update(plain.finish(rec_a))
    finally:
        plain.teardown()

    # Phase B, traced: wrappers go in before the deployment is built.
    tracer = Tracer()
    adapter.install_tracing(tracer)
    traced = cls(seed, OUT_DIR, tracer=tracer, smoke=smoke)
    try:
        traced.timed_setup()
        traced.warmup()
        tracer.reset()
        tracer.enabled = True
        rec_b, delta_b, _wall = run_window(traced, seconds / 2)
        tracer.enabled = False
        extras["storage.wal.bytes_per_user_byte"] = adapter.wal_bytes_per_user_byte(tracer)
    finally:
        tracer.enabled = False
        traced.teardown()
        tracer.uninstall()

    # Phase C, unprotected and untraced: the paper's headline ratio.
    if cls.enforcement_probe:
        bare = cls(seed, OUT_DIR, protected=False, smoke=smoke)
        try:
            bare.timed_setup()
            bare.warmup()
            rec_c, _delta, _wall = run_window(bare, min(ENFORCEMENT_SECONDS, seconds / 4))
            extras["enforcement.overhead_ratio"] = (busy_at_reference(rec_a) / rec_a.ops) / (
                busy_at_reference(rec_c) / rec_c.ops
            )
            checks.failed += rec_c.failed
            checks.failures += rec_c.failures
        finally:
            bare.teardown()
    plain.shutdown(checks)

    layers = layer_metrics(rec_a, delta_a, rec_b, delta_b, tracer.totals(), extras)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{name}.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": name, "seed": seed, "spans": tracer.spans()}, handle)
    failed = rec_a.failed + rec_b.failed + checks.failed
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": 1,
        "correct": failed == 0,
        "attempted": rec_a.ops + rec_a.checks + rec_b.ops + rec_b.checks + checks.checks,
        "failed": failed,
        "failures": rec_a.failures + rec_b.failures + checks.failures,
        "metrics": layers,
        "detail": {
            "ops_untraced": rec_a.ops,
            "ops_traced": rec_b.ops,
            "counters_per_op": per_op(delta_a, rec_a.ops),
            "span_totals": tracer.totals(),
        },
    }


def layer_metrics(rec_a, delta_a, rec_b, delta_b, totals, extras) -> Dict[str, float]:
    """Every per-layer metric; 0 where the layer does no work here.

    Counts and ratios come from the untraced window's counters (they
    repeat exactly), times from the traced window's spans. ``*_us`` are
    self time per op of the workload unless the name says otherwise.
    """
    ops_a, ops_b = rec_a.ops, rec_b.ops
    passes_b = len(rec_b.cycles)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def span(name: str, field: str = "self_s") -> float:
        return totals.get(name, {}).get(field, 0.0)

    def self_us(name: str) -> float:
        return span(name) / ops_b * 1e6

    def calls(name: str) -> float:
        return span(name, "calls") / ops_b

    def count(key: str) -> float:
        return delta_a.get(key, 0) / ops_a

    def kind_p50_ms(kind: str) -> float:
        samples = rec_a.by_kind.get(kind)
        return median(samples) * 1e3 if samples else 0.0

    http_self_s = max(0.0, rec_b.round_trip_s - span("web.app", "total_s"))
    attributed_s = sum(entry["self_s"] for entry in totals.values()) + http_self_s
    candidates = delta_a.get("broker.candidates", 0)
    published = delta_a.get("broker.published", 0)
    routes = sum(delta_a.get(f"broker.{key}", 0) for key in ("route_cache_hits", "index_hits", "scans"))
    flows = delta_a.get("labels.flows_memo_hits", 0) + delta_a.get("labels.flows_memo_misses", 0)
    combines = delta_a.get("labels.combine_memo_hits", 0) + delta_a.get("labels.combine_memo_misses", 0)
    lookups = delta_a.get("pagecache.hits", 0) + delta_a.get("pagecache.misses", 0)
    credentials = delta_a.get("auth.credential_hits", 0) + delta_a.get("auth.credential_misses", 0)
    principals = delta_a.get("auth.principal_hits", 0) + delta_a.get("auth.principal_misses", 0)
    replications = delta_a.get("replication.passes", 0)

    metrics = {
        "web.http.self_us": ratio(http_self_s, ops_b) * 1e6,
        "web.http.reconnects": delta_a.get("http.reconnects", 0),
        "web.http.latency_p99_ms": (
            percentile(rec_a.latencies, 0.99) * 1e3 if "http.requests_served" in delta_a else 0.0
        ),
        "web.routing.match_us": self_us("web.routing.match"),
        "web.auth.self_us": self_us("web.auth"),
        "web.auth.credential_hit_ratio": ratio(delta_a.get("auth.credential_hits", 0), credentials),
        "web.auth.principal_hit_ratio": ratio(delta_a.get("auth.principal_hits", 0), principals),
        "web.sessions.self_us": self_us("web.sessions"),
        "web.sessions.resolved": count("audit.sessions_resolved"),
        "web.middleware.check_response_us": self_us("web.middleware.check_response"),
        "web.middleware.denied": count("audit.frontend_denied"),
        "web.pagecache.hit_ratio": ratio(delta_a.get("pagecache.hits", 0), lookups),
        "web.pagecache.lookup_us": self_us("web.pagecache.lookup"),
        "web.pagecache.store_us": self_us("web.pagecache.store"),
        "web.pagecache.invalidations": count("pagecache.invalidations"),
        "web.templates.render_us": self_us("web.templates.render"),
        "mdt.portal.handler_self_us": self_us("mdt.portal.handler"),
        "mdt.portal.front_page_p50_ms": kind_p50_ms("front"),
        "mdt.portal.records_p50_ms": kind_p50_ms("records"),
        "mdt.portal.metrics_p50_ms": kind_p50_ms("metrics"),
        "mdt.portal.compare_p50_ms": kind_p50_ms("compare"),
        "mdt.portal.region_p50_ms": kind_p50_ms("region"),
        "taint.json_codec.dumps_us": self_us("taint.json_codec.dumps"),
        "taint.json_codec.encode_document_us": self_us("taint.json_codec.encode_document"),
        "taint.json_codec.decode_document_us": self_us("taint.json_codec.decode_document"),
        "taint.json_codec.dumps_calls": calls("taint.json_codec.dumps"),
        "taint.json_codec.encode_document_calls": calls("taint.json_codec.encode_document"),
        "taint.json_codec.decode_document_calls": calls("taint.json_codec.decode_document"),
        "taint.labeled.with_labels_us": self_us("taint.labeled.with_labels"),
        "taint.labeled.calls_per_op": calls("taint.labeled.with_labels"),
        "core.labels.flows_memo_hit_ratio": ratio(delta_a.get("labels.flows_memo_hits", 0), flows),
        "core.labels.combine_memo_hit_ratio": ratio(delta_a.get("labels.combine_memo_hits", 0), combines),
        "core.labels.flows_calls_per_op": ratio(flows, ops_a),
        "core.audit.decisions_per_op": count("audit.decisions"),
        "core.audit.self_us": self_us("core.audit"),
        "storage.docstore.view_us": self_us("storage.docstore.view"),
        "storage.docstore.get_us": self_us("storage.docstore.get"),
        "storage.docstore.upsert_us": self_us("storage.docstore.upsert"),
        "storage.docstore.rows_per_view": ratio(
            span("storage.docstore.view", "measured"), span("storage.docstore.view", "calls")
        ),
        "storage.docstore.view_calls": calls("storage.docstore.view"),
        "storage.docstore.get_calls": calls("storage.docstore.get"),
        "storage.docstore.upsert_calls": calls("storage.docstore.upsert"),
        "storage.webdb.query_us": self_us("storage.webdb.query"),
        "storage.webdb.queries_per_request": calls("storage.webdb.query"),
        "storage.replication.pass_ms": ratio(
            span("storage.replication", "total_s"), span("storage.replication", "calls")
        ) * 1e3,
        "storage.replication.docs_written": ratio(delta_a.get("replication.docs_written", 0), replications),
        "storage.replication.batches": ratio(delta_a.get("replication.batches", 0), replications),
        "storage.wal.bytes_per_user_byte": extras.get("storage.wal.bytes_per_user_byte", 0.0),
        "storage.wal.fsyncs": calls("storage.wal.fsync"),
        "storage.wal.put_overhead_us": extras.get("storage.wal.put_overhead_us", 0.0),
        "storage.recovery.reopen_ms": extras.get("storage.recovery.reopen_ms", 0.0),
        "events.dispatch.self_us_per_delivery": ratio(
            span("events.dispatch"), delta_b.get("broker.delivered", 0)
        ) * 1e6,
        "events.broker.candidates_per_publish": ratio(candidates, published),
        "events.broker.delivered_per_publish": ratio(delta_a.get("broker.delivered", 0), published),
        "events.broker.label_filtered_ratio": ratio(delta_a.get("broker.label_filtered", 0), candidates),
        "events.broker.selector_filtered_ratio": ratio(delta_a.get("broker.selector_filtered", 0), candidates),
        "events.broker.route_cache_hit_ratio": ratio(delta_a.get("broker.route_cache_hits", 0), routes),
        "events.store.get_us": self_us("events.store.get"),
        "events.store.set_us": self_us("events.store.set"),
        "events.store.calls_per_event": calls("events.store.get") + calls("events.store.set"),
        "mdt.producer.self_us_per_event": self_us("mdt.producer"),
        "mdt.aggregator.on_report_self_us": self_us("mdt.aggregator.on_report"),
        "mdt.aggregator.aggregate_ms": ratio(span("mdt.aggregator.aggregate", "total_s"), passes_b) * 1e3,
        "mdt.storage_unit.on_record_self_us": self_us("mdt.storage_unit.on_record"),
        "events.cluster.publish_us_per_event": ratio(
            span("events.cluster.publish", "total_s"), span("events.cluster.publish", "calls")
        ) * 1e6,
        "events.cluster.drain_wait_ms_per_pass": ratio(span("events.cluster.drain", "total_s"), passes_b) * 1e3,
        "events.cluster.fabric_published": count("cluster.router_published"),
        "events.cluster.fabric_delivered": count("cluster.router_delivered"),
        "events.cluster.worker_dispatched": count("cluster.worker_dispatched"),
        "events.cluster.errors": delta_a.get("cluster.router_errors", 0),
        "events.cluster.dead_lettered": delta_a.get("cluster.router_dead_lettered", 0),
        "events.cluster.children_cpu_s": ratio(rec_a.child_cpu_s, len(rec_a.cycles)),
        "events.cluster_codec.encode_us": extras.get("events.cluster_codec.encode_us", 0.0),
        "events.cluster_codec.decode_us": extras.get("events.cluster_codec.decode_us", 0.0),
        "events.stomp.frame_encode_us": extras.get("events.stomp.frame_encode_us", 0.0),
        "events.stomp.frame_parse_us": extras.get("events.stomp.frame_parse_us", 0.0),
        "enforcement.overhead_ratio": extras.get("enforcement.overhead_ratio", 0.0),
        "latency_p95_ms": latency_percentiles(rec_a)["latency_p95_ms"],
        "cpu_ms_per_op": cpu_ms_per_op(rec_a),
        "freshness_p50_ms": median(rec_a.freshness) * 1e3 if rec_a.freshness else 0.0,
        "recovery_s": extras.get("recovery_s", 0.0),
        "failed_ops_ratio": (rec_a.failed + rec_b.failed)
        / max(1, rec_a.ops + rec_a.checks + rec_b.ops + rec_b.checks),
        "loadgen.self_us_per_op": extras.get("loadgen.self_us_per_op", 0.0),
        "trace.overhead_ratio": ratio(busy_at_reference(rec_b) / ops_b, busy_at_reference(rec_a) / ops_a),
        "trace.unattributed_ratio": 1.0 - ratio(attributed_s, rec_b.busy_s),
        "host.spin_ms": host_spin_ms(),
    }
    return metrics


# -- output -------------------------------------------------------------------


def contract_line(result: dict, declared: List[dict]) -> str:
    """The one JSON object the benchmark contract asks for."""
    metrics = {}
    for entry in declared:
        metrics[entry["name"]] = {"value": result["metrics"][entry["name"]], "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def print_result(result: dict, declared: List[dict]) -> None:
    mode = "per-layer (traced run)" if result["trace"] else "end to end"
    print(f"# {result['workload']}  seed {result['seed']}  {result['seconds']} s  {mode}")
    for entry in declared:
        value = result["metrics"][entry["name"]]
        print(f"{entry['name']:<44} {value:>14.4f} {entry['unit']}")
    for message in result["failures"]:
        print(f"FAILED: {message}")


def result_path(name: str, trace: int) -> str:
    return os.path.join(OUT_DIR, f"run-{name}-trace{trace}.json")


def run_one(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    from workloads import WORKLOADS

    contract = load_contract()
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}")
    if trace:
        result = run_traced(name, seed, seconds, smoke)
        declared = contract["per_layer"]
    else:
        result = run_untraced(name, seed, seconds, smoke)
        declared = contract["end_to_end"]
    missing = [entry["name"] for entry in declared if entry["name"] not in result["metrics"]]
    if missing:
        raise SystemExit(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    result["pid"] = os.getpid()  # the suite checks it reads this process's document
    print_result(result, declared)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(result_path(name, trace), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(contract_line(result, declared))
    return result


# -- the suite: every workload, each in a fresh interpreter --------------------


def host_fingerprint() -> dict:
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    return {
        "git_revision": revision,
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()} ({platform.python_compiler()})",
        "platform": platform.platform(),
        "load_average_at_start": os.getloadavg()[0],
        "host.spin_ms": host_spin_ms(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def run_child(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One workload in a fresh interpreter; returns its result document.

    Only a child that ran to the end wrote a document: it exits 0, or
    ``EXIT_FAILED_OPS`` when ops or checks failed. Any other exit code
    (Python's 1 for an uncaught exception included), a missing document
    or one another process wrote ends the suite.
    """
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    path = result_path(name, trace)
    if os.path.exists(path):
        os.remove(path)  # a document left by an earlier run must not stand in for this one
    child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = child.communicate(timeout=600)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise SystemExit(f"{name} (trace {trace}) did not finish within 600 s")
    if child.returncode not in (0, EXIT_FAILED_OPS):
        raise SystemExit(f"{name} (trace {trace}) exited {child.returncode}:\n{stderr[-2000:]}")
    print("\n".join(stdout.splitlines()[:-1]), flush=True)
    try:
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
    except (OSError, ValueError) as error:
        raise SystemExit(f"{name} (trace {trace}) left no result document: {error}")
    if result.get("pid") != child.pid:
        raise SystemExit(f"{path} was not written by this suite's child (two suites in one checkout?)")
    return result


def run_suite(args) -> int:
    from concurrent.futures import ThreadPoolExecutor

    from workloads import WORKLOADS

    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else (0.2 if args.smoke else contract["run_seconds"])
    names = list(WORKLOADS)  # BENCHMARK.json's workloads and the ungated backend_durable
    document = {"host": host_fingerprint(), "seconds": seconds, "seed": args.seed, "runs": []}
    jobs = [
        (repeat, name, trace)
        for repeat in range(args.repeat)
        for name in names
        for trace in ((0, 1) if args.trace else (0,))
    ]
    # Measured runs go one at a time; a smoke run measures nothing, so
    # its interpreters may share the cores.
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        results = pool.map(lambda job: run_child(job[1], args.seed, seconds, job[2], args.smoke), jobs)
        for (repeat, _name, _trace), result in zip(jobs, results):
            result["repeat"] = repeat
            document["runs"].append(result)
    failed = sum(run["failed"] for run in document["runs"])
    os.makedirs(OUT_DIR, exist_ok=True)
    output = args.output or os.path.join(OUT_DIR, "result.json")
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    print(f"\nwrote {output}; {len(document['runs'])} runs, {failed} failed ops")
    return EXIT_FAILED_OPS if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload in this interpreter")
    parser.add_argument("--seed", type=int, default=7, help="registry and request-order seed")
    parser.add_argument("--seconds", type=float, help="measured window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced per-layer run (for the suite: add it)")
    parser.add_argument("--repeat", type=int, default=1, help="suite: repeat every workload N times")
    parser.add_argument("--smoke", action="store_true", help="suite: sub-second windows, one set-up")
    parser.add_argument("--output", help="suite: result document path (default perf/out/result.json)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_suite(args)
    seconds = args.seconds if args.seconds is not None else load_contract()["run_seconds"]
    result = run_one(args.workload, args.seed, seconds, args.trace, args.smoke)
    return 0 if result["correct"] else EXIT_FAILED_OPS


if __name__ == "__main__":
    raise SystemExit(main())
