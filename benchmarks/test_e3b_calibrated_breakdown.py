"""E3b: the calibrated Figure 5 frontend breakdown.

The raw breakdown (E3) measures the in-process substrate, where every
component is orders of magnitude cheaper than on the paper's 2011 Ruby
stack. Here the environment-bound components (authentication, privilege
fetch, template base cost, other) are *pinned*: read from the paper's
table and reported as such, not timed. Label propagation — the part this
reproduction implements — is *measured* on a 200-record labelled page:
the labelled render plus the response check, minus the plain render, the
two sampled alternately. The question answered: at paper-scale component
costs, does label tracking land in the paper's 17-of-180 ms band rather
than dominating?
"""

from benchmarks.harness import PAPER_FRONTEND_BREAKDOWN, comparison_table, measure_interleaved
from repro.core.labels import LabelSet
from repro.core.privileges import PrivilegeSet
from repro.mdt.labels import mdt_label
from repro.taint import label as label_value
from repro.web.templates import Template

#: Label propagation as a share of the calibrated page: the paper reads
#: 17/180 ≈ 0.09. A minority share, and not below the noise of two
#: alternately sampled ≈ 1 ms renders.
LABEL_SHARE_BAND = (-0.01, 0.25)

MEASURED = "label_propagation"
PINNED = {name: ms for name, ms in PAPER_FRONTEND_BREAKDOWN.items() if name != MEASURED}

PAGE_TEMPLATE = Template(
    """<html><body><table>
<% for record in records %>
<tr><td><%= record["name"] %></td><td><%= record["stage"] %></td>
<td><%= record["site"] %></td><td><%= record["nhs"] %></td></tr>
<% end %>
</table></body></html>""",
    name="calibrated-page",
)
CLEARANCE = PrivilegeSet({"clearance": [mdt_label(str(n)) for n in range(1, 5)]})


def _records(count, labelled):
    def wrap(value, index):
        return label_value(value, mdt_label(str(index % 4 + 1))) if labelled else value

    return [
        {
            "name": wrap(f"Patient {index:04d}", index),
            "stage": wrap(str(index % 4 + 1), index),
            "site": wrap("breast", index),
            "nhs": wrap(f"{index:03d} {index:03d} {index:04d}", index),
        }
        for index in range(count)
    ]


def label_propagation_ms():
    """Median labelled render + response check minus median plain render."""
    labelled, plain = _records(200, labelled=True), _records(200, labelled=False)

    def render_labelled():
        page = PAGE_TEMPLATE.render(records=labelled)
        assert CLEARANCE.clearance_covers(LabelSet(page.labels))

    tracked, untracked = measure_interleaved(
        render_labelled, lambda: PAGE_TEMPLATE.render(records=plain),
        iterations=32, warmup=2,
    )
    return (tracked.median - untracked.median) * 1000


def test_e3b_calibrated_frontend(benchmark, report):
    measured = dict(PINNED)
    measured[MEASURED] = benchmark.pedantic(label_propagation_ms, rounds=1, iterations=1)
    report(
        comparison_table(
            "E3b — Figure 5 frontend, calibrated mode "
            "(auth/privileges/template/other pinned to paper values; "
            "label propagation measured)",
            PAPER_FRONTEND_BREAKDOWN,
            measured,
        )
        + f"\npinned, not measured: {', '.join(PINNED)}"
    )
    total = sum(measured.values())
    assert set(measured) == set(PAPER_FRONTEND_BREAKDOWN)
    # label propagation is a minority share, as in the paper (17/180 ≈ 9%).
    low, high = LABEL_SHARE_BAND
    assert low < measured[MEASURED] / total < high
    # overall page time lands in the paper's order of magnitude.
    assert 120.0 < total < 400.0
