"""The Figure 5 latency breakdown (experiment E3).

The paper decomposes per-request/per-event latency into components:

* frontend (180 ms total): authentication 87 ms, privilege fetching
  3 ms, template rendering 63 ms, label propagation 17 ms, other 10 ms;
* backend (84 ms total): event processing 51 ms, data (de)serialisation
  20 ms, label management 13 ms.

Our substrate is in-process CPython rather than the paper's full Ruby
stack, so absolute values are far smaller; what must reproduce is the
*structure* — which components exist and which dominate. The harness
measures each component on the real MDT deployment:

* frontend components come from the middleware/portal instrumentation
  (``request.env["safeweb.timings"]``); *label propagation* is isolated
  by rendering the same page with label tracking on and off;
* backend components are measured around the real pipeline: processing
  (callback bodies with enforcement disabled), serialisation (the STOMP
  frame codec on real events) and label management (the delta when
  enforcement is enabled).

Every difference of two deployments is taken between medians sampled
alternately (:func:`repro.bench.timing.measure_interleaved`) and
reported as measured: a label component that enforcement has made
nearly free may read slightly below zero on a noisy host, and the
experiments assert a band around the ratio, not its sign.
"""

# ifc: allow-file[ifc-checks-disabled] -- ablation harness: isolates the
# cost of each enforcement tier by rebuilding the deployment with that
# tier switched off; production code never disables enforcement.

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.bench.timing import LatencyStats, measure_interleaved, measure_latency
from repro.events.stomp.frames import FrameParser, encode_frame
from repro.events.stomp.server import event_to_message
from repro.mdt.deployment import MdtDeployment
from repro.mdt.workload import WorkloadConfig
from repro.web.middleware import TIMINGS_KEY

#: Paper values, milliseconds (Figure 5).
PAPER_FRONTEND_BREAKDOWN: Dict[str, float] = {
    "authentication": 87.0,
    "privilege_fetching": 3.0,
    "template_rendering": 63.0,
    "label_propagation": 17.0,
    "other": 10.0,
}
PAPER_BACKEND_BREAKDOWN: Dict[str, float] = {
    "event_processing": 51.0,
    "serialisation": 20.0,
    "label_management": 13.0,
}


@dataclass
class Breakdown:
    """Measured per-component times (milliseconds) plus the total."""

    components: Dict[str, float]
    total_ms: float

    def share(self, component: str) -> float:
        if self.total_ms == 0:
            return 0.0
        return self.components.get(component, 0.0) / self.total_ms


def frontend_breakdown(iterations: int = 50) -> Breakdown:
    """Measure the frontend components on the MDT front page."""
    config = WorkloadConfig(num_regions=2, mdts_per_region=2, patients_per_mdt=10, seed=3)
    protected = MdtDeployment(config=config)
    protected.run_pipeline()
    baseline = MdtDeployment(
        config=config, check_labels=False, isolation=False, label_events=False
    )
    baseline.run_pipeline()

    def sampled(deployment: MdtDeployment, spans: Dict[str, List[float]]):
        client = deployment.client_for("mdt1")

        def request() -> None:
            assert client.get("/").ok
            timings = client.last_request.env.get(TIMINGS_KEY, {})
            for name, samples in spans.items():
                samples.append(timings.get(name, 0.0))

        return request

    spans: Dict[str, List[float]] = {
        name: []
        for name in ("authentication", "privilege_fetching", "template_rendering", "label_check")
    }
    baseline_spans: Dict[str, List[float]] = {"template_rendering": []}
    totals, _baseline_totals = measure_interleaved(
        sampled(protected, spans), sampled(baseline, baseline_spans),
        iterations=iterations, warmup=5,
    )

    def median_ms(samples: List[float]) -> float:
        return LatencyStats(samples[-iterations:]).median * 1000  # warm-up rounds dropped

    # Label propagation = extra template time under tracking + the
    # response-time check itself.
    plain_template_ms = median_ms(baseline_spans["template_rendering"])
    components = {
        "authentication": median_ms(spans["authentication"]),
        "privilege_fetching": median_ms(spans["privilege_fetching"]),
        "template_rendering": plain_template_ms,
        "label_propagation": median_ms(spans["template_rendering"])
        - plain_template_ms
        + median_ms(spans["label_check"]),
    }
    total_ms = totals.median * 1000
    components["other"] = max(0.0, total_ms - sum(components.values()))
    return Breakdown(components=components, total_ms=total_ms)


def backend_breakdown(iterations: int = 200) -> Breakdown:
    """Measure the backend components over the real event pipeline."""
    config = WorkloadConfig(num_regions=1, mdts_per_region=2, patients_per_mdt=10, seed=5)

    # Event processing: full pipeline with enforcement off. Enforcement
    # on: the delta is label management (jail + checks).
    plain = MdtDeployment(
        config=config,
        isolation=False,
        label_checks_in_broker=False,
        check_labels=False,
        label_events=False,
    )
    protected = MdtDeployment(config=config)

    def pipeline_pass(deployment: MdtDeployment):
        def one_pass() -> None:
            deployment.import_data()
            deployment.aggregate()

        return one_pass

    processing, enforced = measure_interleaved(
        pipeline_pass(plain), pipeline_pass(protected),
        iterations=max(3, iterations // 25), warmup=1,
    )
    # Every pass publishes the same events; the warm-up pass counted too.
    events_per_pass = protected.producer.events_published // (enforced.count + 1)

    # Serialisation: STOMP-encode and decode real events.
    from repro.core.labels import LabelSet
    from repro.events.event import Event
    from repro.mdt.labels import mdt_label

    sample = Event(
        "/patient_report",
        next(plain.main_db.case_records()).to_attributes(),
        labels=LabelSet([mdt_label("1")]),
    )
    parser = FrameParser()
    serialisation = measure_latency(
        lambda: parser.feed(encode_frame(event_to_message(sample, "sub-1"))),
        iterations=iterations,
    )

    processing_ms = processing.median * 1000 / events_per_pass
    components = {
        "event_processing": processing_ms,
        "serialisation": serialisation.median * 1000,
        "label_management": enforced.median * 1000 / events_per_pass - processing_ms,
    }
    return Breakdown(components=components, total_ms=sum(components.values()))
