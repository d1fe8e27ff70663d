"""The six workloads: what each sets up, what one cycle of ops is, and how
its outputs are checked against a reference the harness computes itself.

All load is closed loop with one driver thread: every caller here waits
for its reply (a browser for its page, the scheduler for its pipeline
stage). A *cycle* is a fixed block of ops replayed identically each
time, so counters per op repeat exactly however long the window is; the
runner executes whole cycles until ``--seconds`` have passed.
"""

from __future__ import annotations

import json
import os
import re
import resource
import shutil
import time
from time import perf_counter
from typing import Dict, List, Optional

import adapter
import hostprobe
from loadgen import HttpClient, Planned, basic_header, encode_request, plan_cycle


class Recorder:
    """What one measured window observed."""

    def __init__(self):
        self.latencies: List[float] = []  # seconds, one per latency sample
        self.by_kind: Dict[str, List[float]] = {}
        #: One row per cycle: [ops, busy s, CPU s of this process, latency
        #: samples so far, host-speed factor, CPU s of child processes] —
        #: see hostprobe.py.
        self.cycles: List[list] = []
        self._probe_s = hostprobe.probe()
        self._probed_at = perf_counter()
        self.freshness: List[float] = []  # seconds
        self.ops = 0
        self.checks = 0  # oracle checks beyond the per-op ones
        self.failed = 0
        self.failures: List[str] = []
        self.busy_s = 0.0
        self.child_cpu_s = 0.0
        self.round_trip_s = 0.0  # every HTTP round trip in the window, summed
        self.peak_rss_kb = 0  # set by the runner at a fixed point of the window
        self.started = 0.0
        self._cpu_started = 0.0

    def begin(self) -> None:
        if perf_counter() - self._probed_at > 0.02:
            self._probe_s = hostprobe.probe()  # the last reading went stale
        self._cpu_started = time.process_time()
        self.started = perf_counter()

    def end(self, ops: int) -> None:
        busy = perf_counter() - self.started
        cpu = time.process_time() - self._cpu_started
        self.busy_s += busy
        self.ops += ops
        probe_s = hostprobe.probe()
        factor = hostprobe.factor(self._probe_s, probe_s)
        self._probe_s = probe_s
        self._probed_at = perf_counter()
        self.cycles.append([ops, busy, cpu, len(self.latencies), factor, 0.0])

    def add_child_cpu(self, seconds: float) -> None:
        """CPU the last cycle burnt in child processes."""
        self.child_cpu_s += seconds
        self.cycles[-1][5] += seconds

    def check(self, ok: bool, message: str) -> bool:
        self.checks += 1
        if not ok:
            self.fail(message)
        return ok

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)


class Workload:
    """Base: set-up timing, teardown, and the hooks the runner calls."""

    name = ""
    op_unit = "op"
    #: Whether ``enforcement.overhead_ratio`` is measured on this workload.
    enforcement_probe = False

    def __init__(self, seed: int, out_dir: str, protected: bool = True, tracer=None,
                 smoke: bool = False):
        self.seed = seed
        self.out_dir = out_dir
        self.protected = protected
        self.tracer = tracer
        #: Smoke runs shrink the longest cycles; they measure nothing.
        self.smoke = smoke
        self.setup_samples: List[float] = []  # seconds, at reference host speed
        self.child_peak_rss_kb = 0

    def timed_setup(self) -> None:
        before = hostprobe.probe()
        cpu_started = time.process_time()
        started = perf_counter()
        self.setup()
        elapsed = perf_counter() - started
        cpu = time.process_time() - cpu_started
        host = hostprobe.factor(before, hostprobe.probe())
        self.setup_samples.append(hostprobe.compensate(elapsed, cpu, host))

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        self.cycle(Recorder())

    def cycle(self, rec: Recorder) -> None:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        raise NotImplementedError

    def finish(self, rec: Recorder) -> Dict[str, float]:
        """After the window: checks and diagnostics that need a quiet system."""
        return {}

    def check_counters(self, rec: Recorder, delta: Dict[str, float]) -> None:
        """Oracles on the window's counter deltas, against scripted counts."""

    def probes(self) -> Dict[str, float]:
        """Isolated measurements on the run's own data (traced run only)."""
        return {}

    def shutdown(self, rec: Recorder) -> None:
        """Once, after the last phase of the run: nothing may outlive it."""

    def profile(self) -> dict:
        return {}


# -- MDT workloads ------------------------------------------------------------


class MdtWorkload(Workload):
    """Shared by the five workloads built on the Figure 4 deployment."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.backend: Optional[adapter.MdtBackend] = None
        self.registry = None
        self.reference: dict = {}
        self.mdt_ids: List[str] = []
        self._generation: Dict[str, int] = {}

    def profile(self) -> dict:
        kwargs = dict(adapter.PROFILES[self.name])
        if not self.protected:
            kwargs.update(adapter.UNPROTECTED)
        return kwargs

    def build(self, data_dir: Optional[str] = None) -> None:
        """Load the registry and build the pinned deployment profile."""
        tracer = self.tracer
        # A rebuild inside a traced window (backend_cluster) is set-up,
        # not measured work: it must leave no spans behind.
        recording = tracer is not None and tracer.enabled
        if recording:
            tracer.enabled = False
        try:
            self.registry = adapter.load_registry(self.seed)
            self.reference = adapter.registry_reference(self.registry)
            self.mdt_ids = sorted(self.reference["mdts"], key=int)
            self.backend = adapter.MdtBackend(self.registry, self.profile(), data_dir=data_dir)
            self._generation = {}
            if tracer is not None:
                adapter.trace_portal_handlers(tracer, self.backend)
        finally:
            if recording:
                tracer.enabled = True

    def teardown(self) -> None:
        if self.backend is not None:
            self.backend.close()
            self.backend = None

    def counters(self) -> Dict[str, float]:
        return self.backend.counters()

    # -- oracles -----------------------------------------------------------

    def expected_doc_ids(self, imported: List[str]) -> set:
        mdts = self.reference["mdts"]
        expected = {f"metric-mdt-{mdt_id}" for mdt_id in mdts}
        expected.update(f"metric-region-{info['region']}" for info in mdts.values())
        for mdt_id in imported:
            expected.update(mdts[mdt_id]["record_ids"])
        return expected

    def generation_advanced(self, doc_id: str, document: Optional[dict]) -> bool:
        """True when *document* is exactly one revision past the last seen."""
        if document is None:
            return False
        generation = int(str(document["_rev"]).split("-", 1)[0])
        previous = self._generation.get(doc_id)
        self._generation[doc_id] = generation
        return previous is None or generation == previous + 1

    def verify_pass(self, rec: Recorder, imported: List[str]) -> None:
        """DMZ document ids and every MDT record count equal the reference."""
        mdts = self.reference["mdts"]
        found = set(self.backend.dmz_doc_ids())
        expected = self.expected_doc_ids(imported)
        rec.check(
            found == expected,
            f"{self.name}: DMZ ids differ from reference "
            f"(missing {len(expected - found)}, extra {len(found - expected)})",
        )
        for mdt_id in mdts:
            document = self.backend.dmz_document(f"metric-mdt-{mdt_id}") or {}
            count = len(mdts[mdt_id]["patients"]) if mdt_id in imported else 0
            rec.check(
                str(document.get("record_count")) == str(count),
                f"{self.name}: metric-mdt-{mdt_id} record_count "
                f"{document.get('record_count')!r}, reference {count}",
            )


class BackendWorkload(MdtWorkload):
    """The three workloads that drive the import -> aggregate -> replicate pass."""

    op_unit = "event"

    def check_counters(self, rec: Recorder, delta: Dict[str, float]) -> None:
        rec.check(
            delta["producer.events_published"] == rec.ops,
            f"producer published {delta['producer.events_published']}, driver counted {rec.ops}",
        )
        rec.check(delta["broker.errors"] == 0, f"{delta['broker.errors']} broker delivery errors")

    def backend_pass(self, rec: Recorder, imported: List[str]) -> None:
        """Import *imported* MDT by MDT, aggregate, replicate, read back."""
        backend = self.backend
        mdts = self.reference["mdts"]
        tracer = self.tracer
        events = 0
        rec.begin()
        for mdt_id in imported:
            if tracer is not None:
                tracer.op = rec.ops + events
            started = perf_counter()
            published = backend.import_mdt(mdt_id)
            elapsed = perf_counter() - started
            events += published
            if published == mdts[mdt_id]["events"]:
                # E2's definition: cascade time of one trigger / its events.
                rec.latencies.append(elapsed / published)
            else:
                rec.fail(
                    f"{self.name}: import of MDT {mdt_id} published {published}, "
                    f"reference {mdts[mdt_id]['events']}"
                )
        backend.aggregate()
        backend.replicate()
        probe_id = f"metric-mdt-{imported[0]}"
        fresh = self.generation_advanced(probe_id, backend.dmz_document(probe_id))
        rec.freshness.append(perf_counter() - rec.started)
        rec.end(events)
        rec.check(fresh, f"{self.name}: DMZ read of {probe_id} does not show the new revision")
        self.verify_pass(rec, imported)


class BackendSync(BackendWorkload):
    name = "backend_sync"
    enforcement_probe = True

    def setup(self) -> None:
        self.build()
        self.backend.refresh_pass()

    def cycle(self, rec: Recorder) -> None:
        self.backend.clear_aggregator()
        self.backend_pass(rec, self.mdt_ids)


class BackendDurable(BackendWorkload):
    """The suite runs it; ``BENCHMARK.json`` does not list it. Its passes wait
    on ``fsync``, whose latency on a shared host follows the neighbours' I/O,
    so its time cells cannot hold a bound (README, "Bounds")."""

    name = "backend_durable"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.data_dir = ""
        self._dirs = 0

    def setup(self) -> None:
        self._dirs += 1
        self.data_dir = os.path.join(self.out_dir, f"tmp-{os.getpid()}-{self._dirs}")
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.build(data_dir=self.data_dir)
        self.backend.refresh_pass()

    def teardown(self) -> None:
        try:
            super().teardown()
        finally:
            shutil.rmtree(self.data_dir, ignore_errors=True)

    def cycle(self, rec: Recorder) -> None:
        self.backend.clear_aggregator()
        self.backend_pass(rec, self.mdt_ids)

    def finish(self, rec: Recorder) -> Dict[str, float]:
        """``close()`` then reopen the same directory, three times."""
        recoveries, reopens = [], []
        for _ in range(3):
            acknowledged = self.backend.app_doc_ids()
            started = perf_counter()
            self.backend.close()
            closed = perf_counter()
            self.backend = adapter.MdtBackend(self.registry, self.profile(), data_dir=self.data_dir)
            reopened = perf_counter()
            present = set(self.backend.app_doc_ids())
            missing = [doc_id for doc_id in acknowledged if doc_id not in present]
            recoveries.append(perf_counter() - started)
            reopens.append(reopened - closed)
            rec.check(
                not missing,
                f"backend_durable: {len(missing)} acknowledged documents missing after reopen",
            )
        recoveries.sort()
        reopens.sort()
        return {"recovery_s": recoveries[1], "storage.recovery.reopen_ms": reopens[1] * 1e3}

    def probes(self) -> Dict[str, float]:
        return {
            "storage.wal.put_overhead_us": adapter.wal_put_probe(
                self.backend, os.path.join(self.data_dir, "probe")
            )
        }


class BackendCluster(BackendWorkload):
    """A quarter of the registry per pass, a fresh deployment per pass.

    The aggregator's store lives in the worker process and cannot be
    cleared, and a full pass takes about six seconds on the reference
    host, so a pass imports two MDTs (the first of each region, the same
    two every pass: cycles are identical) into a deployment of its own.
    The events are ones ``backend_sync`` processes too.
    """

    name = "backend_cluster"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._totals: Dict[str, float] = {}

    def setup(self) -> None:
        self.build()

    def _pair(self) -> List[str]:
        pair = [self.mdt_ids[0], self.mdt_ids[len(self.mdt_ids) // 2]]
        return pair[:1] if self.smoke else pair

    def warmup(self) -> None:
        if not self.smoke:
            super().warmup()

    def cycle(self, rec: Recorder) -> None:
        if self.backend is None:
            self.timed_setup()
        backend = self.backend
        try:
            pids = backend.descendant_pids()
            before = backend.counters()
            child_cpu = _cpu_seconds(pids)
            self.backend_pass(rec, self._pair())
            rec.add_child_cpu(_cpu_seconds(pids) - child_cpu)
            self.child_peak_rss_kb = max(self.child_peak_rss_kb, _peak_rss_kb(pids))
            for key, value in backend.counters().items():
                self._totals[key] = self._totals.get(key, 0) + value - before.get(key, 0)
        finally:
            self.teardown()

    def counters(self) -> Dict[str, float]:
        return dict(self._totals)

    def probes(self) -> Dict[str, float]:
        return adapter.codec_probe(self.registry)

    def shutdown(self, rec: Recorder) -> None:
        self.teardown()
        alive = adapter.stop_process_helpers()
        rec.check(not alive, f"backend_cluster: child processes outlive the run: {alive}")


# -- web workloads ------------------------------------------------------------

_FRONT_ROW = re.compile(rb"<tr>\s*<td>([^<]*)</td>")


class WebWorkload(MdtWorkload):
    op_unit = "request"
    #: mdt1-4 send Basic credentials on every request, mdt5-8 log in once
    #: and use the cookie: the two paths differ in the program.
    SESSION_USERS = ("mdt5", "mdt6", "mdt7", "mdt8")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.client: Optional[HttpClient] = None
        self.plan: List[Planned] = []
        self.encoded: List[bytes] = []
        self.verified: set = set()
        self.reconnects = 0

    def setup(self) -> None:
        self.build()
        self.backend.refresh_pass()
        address = self.backend.serve()
        self.client = HttpClient(address)
        sessions = {}
        for username in self.SESSION_USERS:
            reply = self.client.request(
                encode_request(
                    "POST",
                    "/login",
                    form={"username": username, "password": self.reference["passwords"][username]},
                )
            )
            if reply.status != 201:
                raise RuntimeError(f"login of {username} answered {reply.status}")
            cookie = re.search(rb"set-cookie: ([^;\r]+)", reply.head, re.IGNORECASE).group(1)
            sessions[username] = (cookie.decode("ascii"), reply.body.decode("ascii"))
        self.plan = plan_cycle(self.seed, self.reference)
        self.encoded = [self._encode(planned, sessions) for planned in self.plan]
        self.verified = set()

    def _encode(self, planned: Planned, sessions: dict) -> bytes:
        headers = {}
        if planned.user in sessions:
            cookie, csrf = sessions[planned.user]
            headers["Cookie"] = cookie
            if planned.method == "POST":
                headers["X-CSRF-Token"] = csrf
        elif planned.user is not None:
            headers["Authorization"] = basic_header(
                planned.user, self.reference["passwords"][planned.user]
            )
        form = {"message": "numbers look right"} if planned.kind == "feedback" else None
        return encode_request(planned.method, planned.path, headers, form)

    def teardown(self) -> None:
        if self.client is not None:
            self.reconnects += self.client.reconnects
            self.client.close()
            self.client = None
        super().teardown()

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out["http.reconnects"] = self.reconnects + (self.client.reconnects if self.client else 0)
        return out

    # -- per-response oracle -----------------------------------------------

    def body_ok(self, planned: Planned, body: bytes) -> bool:
        """Deep check of one 200 body against the reference registry."""
        mdts = self.reference["mdts"]
        kind = planned.kind
        if kind == "front":
            names = set(mdts[planned.mdt_id]["patients"].values())
            rows = [row.decode("utf-8") for row in _FRONT_ROW.findall(body)]
            return len(rows) == len(mdts[planned.mdt_id]["patients"]) and set(rows) <= names
        if kind == "records":
            records = json.loads(body)
            patients = mdts[planned.mdt_id]["patients"]
            return len(records) == len(patients) and all(
                record.get("mid") == planned.mdt_id
                and patients.get(record.get("patient_id")) == record.get("patient_name")
                for record in records
            )
        if kind == "metrics":
            metric = json.loads(body)
            return metric.get("metric_mid") == planned.mdt_id and str(
                metric.get("record_count")
            ) == str(len(mdts[planned.mdt_id]["patients"]))
        if kind == "region":
            metric = json.loads(body)
            members = sum(1 for info in mdts.values() if info["region"] == planned.mdt_id)
            return metric.get("metric_region") == planned.mdt_id and str(
                metric.get("mdt_count")
            ) == str(members)
        if kind == "compare":
            region = mdts[planned.mdt_id]["region"]
            return f"MDT {planned.mdt_id} compared with {region}".encode() in body
        if kind == "health":
            return body == b"ok"
        return True

    def replay(self, rec: Recorder, rounds: int) -> None:
        """Send the scripted 100-request sequence *rounds* times."""
        request = self.client.request
        plan, encoded, verified = self.plan, self.encoded, self.verified
        latencies, by_kind = rec.latencies, rec.by_kind
        tracer = self.tracer
        sent = rec.ops
        for _ in range(rounds):
            for index, planned in enumerate(plan):
                sent += 1
                if tracer is not None:
                    tracer.op = sent
                started = perf_counter()
                try:
                    reply = request(encoded[index])
                except (OSError, ValueError) as error:
                    rec.fail(f"{planned.method} {planned.path}: {error!r}")
                    self.client.close()
                    continue
                elapsed = perf_counter() - started
                rec.round_trip_s += elapsed
                latencies.append(elapsed)
                by_kind.setdefault(planned.kind, []).append(elapsed)
                if reply.status != planned.expect:
                    rec.fail(
                        f"{planned.method} {planned.path} as {planned.user}: "
                        f"status {reply.status}, scripted {planned.expect}"
                    )
                elif reply.status == 200:
                    # A body check is a pure function of (request, body):
                    # each distinct pair is checked in full once.
                    key = (index, reply.body)
                    if key not in verified:
                        if self.body_ok(planned, reply.body):
                            verified.add(key)
                        else:
                            rec.fail(f"{planned.path} as {planned.user}: body fails the reference")

    def check_counters(self, rec: Recorder, delta: Dict[str, float]) -> None:
        # A scripted 401/403 is the application refusing, not the label
        # check failing: the enforcement hook must have denied nothing.
        rec.check(
            delta["audit.frontend_denied"] == 0,
            f"{delta['audit.frontend_denied']} label denials on a script with none",
        )

    def probes(self, samples: int = 300) -> Dict[str, float]:
        """Median round trip of ``GET /health``: the client + HTTP floor."""
        raw = encode_request("GET", "/health")
        times = []
        for _ in range(samples):
            started = perf_counter()
            self.client.request(raw)
            times.append(perf_counter() - started)
        times.sort()
        return {"loadgen.self_us_per_op": times[len(times) // 2] * 1e6}


class WebGenerate(WebWorkload):
    name = "web_generate"
    enforcement_probe = True

    def warmup(self) -> None:
        self.replay(Recorder(), 2)

    def cycle(self, rec: Recorder) -> None:
        rec.begin()
        self.replay(rec, 1)
        rec.end(len(self.plan))


class WebCachedRw(WebWorkload):
    name = "web_cached_rw"
    READ_ROUNDS = 5  # 500 reads between refreshes

    def setup(self) -> None:
        super().setup()
        probe = self.mdt_ids[0]
        self._probe_id = f"metric-mdt-{probe}"
        self._probe = encode_request(
            "GET",
            f"/metrics/{probe}",
            {"Authorization": basic_header(f"mdt{probe}", self.reference["passwords"][f"mdt{probe}"])},
        )

    def cycle(self, rec: Recorder) -> None:
        rounds = 1 if self.smoke else self.READ_ROUNDS
        rec.begin()
        self.replay(rec, rounds)
        # The write: a full refresh, visible once a page shows the new revision.
        self.verified.clear()
        started = perf_counter()
        self.backend.refresh_pass()
        refreshed = perf_counter()
        reply = self.client.request(self._probe)
        rec.round_trip_s += perf_counter() - refreshed
        rec.freshness.append(perf_counter() - started)
        rec.end(rounds * len(self.plan) + 1)
        shown = json.loads(reply.body) if reply.status == 200 else None
        rec.check(
            self.generation_advanced(self._probe_id, shown),
            "web_cached_rw: the first read after a refresh does not show the new revision",
        )
        self.verify_pass(rec, self.mdt_ids)


# -- the events layer alone ---------------------------------------------------


class BrokerFanout(Workload):
    name = "broker_fanout"
    op_unit = "publish"
    enforcement_probe = True
    CYCLE = 1000  # a multiple of the 8-publish topic/stage period

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.backend: Optional[adapter.FanoutBackend] = None
        self.sequence = 0
        if self.smoke:
            self.CYCLE = 200
        # Reference outcome of one publish per topic, from the assignment
        # alone: (delivered, label filtered, selector filtered).
        self.expected = []
        for topic in range(adapter.FANOUT_TOPICS):
            stage = topic % 4
            delivered = label_filtered = selector_filtered = 0
            for unit in range(adapter.FANOUT_UNITS):
                if unit % 2 and not stage > 1:
                    selector_filtered += 1
                elif self.protected and topic + 1 not in adapter.fanout_clearance(unit):
                    label_filtered += 1
                else:
                    delivered += 1
            self.expected.append((delivered, label_filtered, selector_filtered))

    def profile(self) -> dict:
        return {
            "units": adapter.FANOUT_UNITS,
            "topics": adapter.FANOUT_TOPICS,
            "label_checks": self.protected,
            "isolation": self.protected,
        }

    def setup(self) -> None:
        self.backend = adapter.FanoutBackend(protected=self.protected)
        self.sequence = 0

    def teardown(self) -> None:
        if self.backend is not None:
            self.backend.close()
            self.backend = None

    def counters(self) -> Dict[str, float]:
        return self.backend.counters()

    def cycle(self, rec: Recorder) -> None:
        publish, make_event = self.backend.publish, self.backend.make_event
        expected, latencies, tracer = self.expected, rec.latencies, self.tracer
        topics = adapter.FANOUT_TOPICS
        sequence = self.sequence
        rec.begin()
        for sequence in range(sequence, sequence + self.CYCLE):
            event = make_event(sequence)
            if tracer is not None:
                tracer.op = sequence
            started = perf_counter()
            delivered = publish(event, "bench_producer")
            latencies.append(perf_counter() - started)
            if delivered != expected[sequence % topics][0]:
                rec.fail(
                    f"broker_fanout: publish {sequence} delivered {delivered}, "
                    f"reference {expected[sequence % topics][0]}"
                )
        rec.end(self.CYCLE)
        self.sequence = sequence + 1

    def check_counters(self, rec: Recorder, delta: Dict[str, float]) -> None:
        """Broker counters equal what the clearance assignment implies."""
        published = delta["broker.published"]
        rec.check(published == rec.ops, f"broker published {published}, driver sent {rec.ops}")
        periods = published / adapter.FANOUT_TOPICS
        for column, key in enumerate(("delivered", "label_filtered", "selector_filtered")):
            reference = sum(row[column] for row in self.expected) * periods
            rec.check(
                delta[f"broker.{key}"] == reference,
                f"broker {key} {delta[f'broker.{key}']}, reference {reference}",
            )
        rec.check(
            delta["audit.denied"] == delta["broker.label_filtered"],
            "audit denials differ from label-filtered deliveries",
        )


# -- process accounting -------------------------------------------------------

_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _cpu_seconds(pids: List[int]) -> float:
    """User + system CPU seconds consumed so far by live *pids*."""
    total = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / _TICKS
        except (OSError, IndexError, ValueError):
            continue
    return total


def _peak_rss_kb(pids: List[int]) -> int:
    """Largest resident-set high-water mark among live *pids*, in KiB."""
    peak = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "rb") as handle:
                for line in handle:
                    if line.startswith(b"VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
                        break
        except (OSError, IndexError, ValueError):
            continue
    return peak


def own_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


WORKLOADS = {
    cls.name: cls
    for cls in (WebGenerate, WebCachedRw, BackendSync, BackendDurable, BrokerFanout, BackendCluster)
}
