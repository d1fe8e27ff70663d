"""Calibrated Figure 5 mode: paper-scale service times, measured labels.

The raw breakdown (:mod:`repro.bench.breakdown`) measures our in-process
substrate, where every component is orders of magnitude cheaper than on
the paper's 2011 Ruby stack. This module provides the complementary
view promised in DESIGN.md: the *environment-bound* components
(authentication, privilege fetching, template base cost, "other") are
pinned to the paper's service times with busy-waits, while the
*label-related* work — the part this reproduction actually implements —
runs for real on a page of labelled records. The resulting breakdown is
directly comparable to Figure 5: pinned components match by
construction (which the harness states openly), and the measured label
share shows where our tracking lands against the paper's 17 ms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.bench.timing import LatencyStats, measure_interleaved
from repro.core.labels import LabelSet
from repro.core.privileges import PrivilegeSet
from repro.mdt.labels import mdt_label
from repro.taint import label as label_value
from repro.web.templates import Template


@dataclass(frozen=True)
class FrontendDelays:
    """Pinned service times (ms) for the environment-bound components."""

    authentication: float = 87.0
    privilege_fetching: float = 3.0
    template_rendering: float = 63.0
    other: float = 10.0


PAGE_TEMPLATE = Template(
    """<html><body><table>
<% for record in records %>
<tr><td><%= record["name"] %></td><td><%= record["stage"] %></td>
<td><%= record["site"] %></td><td><%= record["nhs"] %></td></tr>
<% end %>
</table></body></html>""",
    name="calibrated-page",
)


def busy_wait_ms(milliseconds: float) -> None:
    """Pin a stage's duration (sleep, topped up with a short spin)."""
    deadline = time.perf_counter() + milliseconds / 1000.0
    remaining = deadline - time.perf_counter()
    if remaining > 0.002:
        time.sleep(remaining - 0.001)
    while time.perf_counter() < deadline:
        pass


def _make_records(count: int, labelled: bool) -> List[Dict[str, Any]]:
    records = []
    for index in range(count):
        mdt = mdt_label(str(index % 4 + 1))
        def wrap(value: str):
            return label_value(value, mdt) if labelled else value

        records.append(
            {
                "name": wrap(f"Patient {index:04d}"),
                "stage": wrap(str(index % 4 + 1)),
                "site": wrap("breast"),
                "nhs": wrap(f"{index:03d} {index:03d} {index:04d}"),
            }
        )
    return records


class CalibratedFrontend:
    """One paper-scale request path; label tracking is the measured part."""

    def __init__(self, records: int = 200, delays: FrontendDelays | None = None):
        self.delays = delays or FrontendDelays()
        self._labelled_records = _make_records(records, labelled=True)
        self._plain_records = _make_records(records, labelled=False)
        mdt_labels = [mdt_label(str(n)) for n in range(1, 5)]
        self._privileges = PrivilegeSet({"clearance": mdt_labels})

    def handle_request(self) -> Dict[str, float]:
        """Serve one request; returns the pinned components' times in ms.

        The template stage renders the labelled page for real and is
        topped up to the pinned figure, which stands for the *plain*
        rendering work of the paper's stack; what tracking adds on top
        is priced by :meth:`measure`.
        """
        timings: Dict[str, float] = {}

        started = time.perf_counter()
        busy_wait_ms(self.delays.authentication)
        timings["authentication"] = _ms_since(started)

        started = time.perf_counter()
        busy_wait_ms(self.delays.privilege_fetching)
        timings["privilege_fetching"] = _ms_since(started)

        started = time.perf_counter()
        self.render_page(track_labels=True)
        busy_wait_ms(self.delays.template_rendering - _ms_since(started))
        timings["template_rendering"] = self.delays.template_rendering

        started = time.perf_counter()
        busy_wait_ms(self.delays.other)
        timings["other"] = _ms_since(started)
        return timings

    def render_page(self, track_labels: bool) -> None:
        """Render the page and, under tracking, run the response check."""
        if not track_labels:
            PAGE_TEMPLATE.render(records=self._plain_records)
            return
        page = PAGE_TEMPLATE.render(records=self._labelled_records)
        assert self._privileges.clearance_covers(LabelSet(page.labels))

    def measure(self, iterations: int = 10) -> Dict[str, float]:
        """Per-component times (ms, medians) over *iterations* requests.

        ``label_propagation`` is the labelled render + response check
        minus the plain render, the two sampled alternately.
        """
        requests = [self.handle_request() for _ in range(iterations)]
        measured = {
            component: LatencyStats([timings[component] for timings in requests]).median
            for component in requests[0]
        }
        labelled, plain = measure_interleaved(
            lambda: self.render_page(True), lambda: self.render_page(False),
            iterations=iterations * 4, warmup=2,
        )
        measured["label_propagation"] = (labelled.median - plain.median) * 1000
        return measured


def _ms_since(started: float) -> float:
    return (time.perf_counter() - started) * 1000.0
