"""A2 (ablation): taint-tracking overhead by operator family.

The frontend's +14 % page cost (E1) is the sum of many small labeled
operations; this ablation prices each family — concatenation, %
formatting, template rendering, regex matching, JSON encoding,
arithmetic — labeled vs plain.

One family has three prices, not two: the Listing 2 list response
(``Records.by_mid … r.to_json`` over 40 stored documents) as plain
``json.dumps``, as the labelled ``json_codec.dumps`` re-encode of the 40
documents, and as the join of the fragments the document store keeps per
revision — the path ``GET /records/:mid`` serves.
"""

import json

from repro.bench.reporting import format_table
from repro.bench.timing import measure_latency, overhead_percent
from repro.core.labels import LabelSet
from repro.mdt.labels import mdt_label
from repro.storage import Database
from repro.taint import LabeledInt, LabeledStr, json_codec, regex, strip_labels
from repro.web.templates import Template

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


def _record_rows(count=40):
    """*count* record-shaped documents (5 plain fields, 10 labelled) read
    back through ``view(include_docs=True)``, as the portal reads them."""
    database = Database("a2")
    database.define_view("by_mid", lambda doc: [(doc["mid"], None)])
    for index in range(count):
        document = {"_id": f"record-{index:03d}", "type": "record", "mid": "1"}
        document.update({f"public_{n}": f"value-{n}" for n in range(3)})
        document.update(
            {f"field_{n}": LabeledStr(f"{PLAIN_NAME} {index}", labels=LABELS) for n in range(10)}
        )
        database.put(document)
    return database.view("by_mid", key="1", include_docs=True)


def test_labeled_concat(benchmark):
    benchmark(FAMILIES["concatenation"][1])


def test_labeled_template(benchmark):
    benchmark(FAMILIES["template rendering"][1])


def test_labeled_json(benchmark):
    benchmark(FAMILIES["json encoding"][1])


def test_a2_report(benchmark, report):
    rows = []
    for family, (plain_op, labeled_op) in FAMILIES.items():
        plain = measure_latency(plain_op, iterations=2000, warmup=100)
        labeled = measure_latency(labeled_op, iterations=2000, warmup=100)
        rows.append(
            (
                family,
                f"{plain.mean * 1e6:.2f} µs",
                f"{labeled.mean * 1e6:.2f} µs",
                f"+{overhead_percent(plain.mean, labeled.mean):.0f}%",
            )
        )
    benchmark(FAMILIES["concatenation"][1])
    report(
        "A2 — taint-tracking overhead by operator family\n"
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

    plain = measure_latency(plain_op, iterations=300, warmup=20).median
    labeled = measure_latency(labeled_op, iterations=300, warmup=20).median
    joined = measure_latency(joined_op, iterations=300, warmup=20).median
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
