"""A2 (ablation): taint-tracking overhead by operator family.

The frontend's +14 % page cost (E1) is the sum of many small labeled
operations; this ablation prices each family — concatenation, %
formatting, template rendering, regex matching, JSON encoding,
arithmetic — labeled vs plain.

Two families have three prices, not two. The Listing 2 list response
(``Records.by_mid … r.to_json`` over 40 stored documents): plain
``json.dumps``, the labelled ``json_codec.dumps`` re-encode of the 40
documents, and the join of the fragments the document store keeps per
revision — the path ``GET /records/:mid`` serves. And the front page's
40-row table: the loop inlined in the template (every field escaped per
page), the row as a partial with every fragment cold (what the first
page after a rewrite pays), and with every fragment replayed from its
revision — the path ``GET /`` serves.

Variants are sampled alternately and compared by their medians.
"""

import itertools
import json

from repro.bench.reporting import format_table
from repro.bench.timing import measure_interleaved, overhead_percent
from repro.core.labels import LabelSet
from repro.mdt.labels import mdt_label
from repro.storage import Database
from repro.taint import LabeledInt, LabeledStr, json_codec, regex, strip_labels
from repro.web.templates import Template, TemplateRegistry

LABELS = LabelSet([mdt_label("1")])
PLAIN_NAME = "alice example-patient"
LABELED_NAME = LabeledStr(PLAIN_NAME, labels=LABELS)
PLAIN_TEMPLATE = "patient: %s, again: %s"
LABELED_TEMPLATE = LabeledStr(PLAIN_TEMPLATE)
ERB = Template("<% for item in items %><li><%= item %></li><% end %>")
PLAIN_ITEMS = [PLAIN_NAME] * 10
LABELED_ITEMS = [LABELED_NAME] * 10

FAMILIES = {
    "concatenation": (
        lambda: PLAIN_NAME + "-" + PLAIN_NAME,
        lambda: LABELED_NAME + "-" + LABELED_NAME,
    ),
    "percent formatting": (
        lambda: PLAIN_TEMPLATE % (PLAIN_NAME, PLAIN_NAME),
        lambda: LABELED_TEMPLATE % (LABELED_NAME, LABELED_NAME),
    ),
    "template rendering": (
        lambda: ERB.render(items=PLAIN_ITEMS),
        lambda: ERB.render(items=LABELED_ITEMS),
    ),
    "regex group extraction": (
        lambda: __import__("re").match(r"(\w+) (.*)", PLAIN_NAME).group(1),
        lambda: regex.match(r"(\w+) (.*)", LABELED_NAME).group(1),
    ),
    "json encoding": (
        lambda: __import__("json").dumps({"name": PLAIN_NAME, "n": 3}),
        lambda: json_codec.dumps({"name": LABELED_NAME, "n": LabeledInt(3, labels=LABELS)}),
    ),
    "integer arithmetic": (
        lambda: (37 * 100) / 40,
        lambda: (LabeledInt(37, labels=LABELS) * 100) / LabeledInt(40, labels=LABELS),
    ),
}


#: The front page's table, inlined and through a partial (see mdt/portal.py).
ROW_MARKUP = "\n<tr>\n" + "".join(
    f'<td><%= {{row}}.get("field_{n}", "") %></td>\n' for n in range(4)
) + "</tr>\n"
INLINED_PAGE = (
    "<table>\n<% for record in records %>" + ROW_MARKUP.format(row="record") + "<% end %>\n</table>"
)
PARTIAL_PAGE = '<table>\n<% for row in rows %><% include("row", row) %><% end %>\n</table>'

#: Shape of the 40-row page as ratios to the inlined loop on the same
#: engine, view query and document copies included on every side.
#: Replaying fragments is several times cheaper (measured ≈ 0.16–0.18:
#: what is left is the view query and one include per row); rendering all
#: 40 afresh costs one partial render per row on top of the same escaping
#: (measured ≈ 1.35–1.45: a fold, a join and a labelled string each).
WARM_RATIO_BAND = (0.02, 0.25)
COLD_RATIO_BAND = (0.90, 1.60)


def _record_database(count=40):
    """*count* record-shaped documents (5 plain fields, 10 labelled) under
    a ``by_mid`` view, as the portal's DMZ store holds them."""
    database = Database("a2")
    database.define_view("by_mid", lambda doc: [(doc["mid"], None)])
    for index in range(count):
        document = {"_id": f"record-{index:03d}", "type": "record", "mid": "1"}
        document.update({f"public_{n}": f"value-{n}" for n in range(3)})
        document.update(
            {f"field_{n}": LabeledStr(f"{PLAIN_NAME} {index}", labels=LABELS) for n in range(10)}
        )
        database.put(document)
    return database


def _record_rows(count=40):
    """The documents read back through ``view(include_docs=True)``, as
    the portal reads them."""
    return _record_database(count).view("by_mid", key="1", include_docs=True)


def test_labeled_concat(benchmark):
    benchmark(FAMILIES["concatenation"][1])


def test_labeled_template(benchmark):
    benchmark(FAMILIES["template rendering"][1])


def test_labeled_json(benchmark):
    benchmark(FAMILIES["json encoding"][1])


def test_a2_report(benchmark, report):
    rows = []
    for family, (plain_op, labeled_op) in FAMILIES.items():
        plain, labeled = measure_interleaved(plain_op, labeled_op, iterations=2000, warmup=100)
        rows.append(
            (
                family,
                f"{plain.median * 1e6:.2f} µs",
                f"{labeled.median * 1e6:.2f} µs",
                f"{overhead_percent(plain.median, labeled.median):+.0f}%",
            )
        )
    benchmark(FAMILIES["concatenation"][1])
    report(
        "A2 — taint-tracking overhead by operator family (medians)\n"
        + format_table(("operation", "plain", "labeled", "overhead"), rows)
    )


def test_a2_json_list_response(benchmark, report):
    """Only the shape is asserted: joining stored fragments is at least
    10× cheaper than re-encoding the documents under labels, for the
    same bytes and the same labels."""
    rows = _record_rows()
    documents = [row.value for row in rows]
    plain_documents = strip_labels(documents)

    def plain_op():
        return json.dumps(plain_documents)

    def labeled_op():
        return json_codec.dumps(documents)

    def joined_op():
        return json_codec.join_array([row.json for row in rows])

    joined, labeled = joined_op(), labeled_op()
    assert str.__eq__(joined, labeled) and str.__eq__(joined, plain_op())
    assert joined.labels is labeled.labels is LABELS

    plain, labeled, joined = (
        stats.median
        for stats in measure_interleaved(plain_op, labeled_op, joined_op, iterations=300)
    )
    benchmark(joined_op)
    report(
        "A2 — json list response (40 documents, median)\n"
        + format_table(
            ("serialisation", "per response", "vs plain"),
            [
                ("plain json.dumps", f"{plain * 1e6:.1f} µs", "—"),
                (
                    "labelled json_codec.dumps",
                    f"{labeled * 1e6:.1f} µs",
                    f"{overhead_percent(plain, labeled):+.0f}%",
                ),
                (
                    "join of per-revision fragments",
                    f"{joined * 1e6:.1f} µs",
                    f"{overhead_percent(plain, joined):+.0f}%",
                ),
            ],
        )
    )
    assert labeled >= 10 * joined


def test_a2_row_partial_page(benchmark, report):
    """The 40-row page three ways; only the shape is asserted
    (:data:`WARM_RATIO_BAND`, :data:`COLD_RATIO_BAND`), for the same
    bytes and the same labels."""
    database = _record_database()

    def registry():
        templates = TemplateRegistry()
        templates.register("inlined", INLINED_PAGE)
        templates.register("page", PARTIAL_PAGE)
        templates.register("row", ROW_MARKUP.format(row="item"))
        return templates

    def view():
        return database.view("by_mid", key="1", include_docs=True)

    warm, cold = registry(), registry()
    generation = itertools.count()

    def recompile_cold():
        # A re-registered partial is a new compiled object: every
        # fragment kept under the previous one is cold again. Compiled
        # here, outside the timed call.
        cold.register("row", ROW_MARKUP.format(row="item") + f"<%# {next(generation)} %>")
        cold.get("page")
        cold.get("row")

    def inlined_op():
        return warm.render("inlined", records=[row.value for row in view()])

    def cold_op():
        return cold.render("page", rows=view())

    def warm_op():
        return warm.render("page", rows=view())

    recompile_cold()
    for page in (cold_op(), warm_op()):
        assert str.__eq__(page, inlined_op()) and page.labels is inlined_op().labels is LABELS

    inlined, cold_page, warm_page = (
        stats.median
        for stats in measure_interleaved(
            inlined_op, cold_op, warm_op, iterations=300, prepare=recompile_cold
        )
    )
    benchmark(warm_op)
    report(
        "A2 — 40-row page (view + render, median)\n"
        + format_table(
            ("row markup", "per page", "vs inlined"),
            [
                ("loop inlined in the template", f"{inlined * 1e6:.1f} µs", "—"),
                ("partial, all fragments cold", f"{cold_page * 1e6:.1f} µs",
                 f"{cold_page / inlined:.2f}×"),
                ("partial, all fragments warm", f"{warm_page * 1e6:.1f} µs",
                 f"{warm_page / inlined:.2f}×"),
            ],
        )
    )
    for page, (low, high) in ((warm_page, WARM_RATIO_BAND), (cold_page, COLD_RATIO_BAND)):
        assert low < page / inlined < high
