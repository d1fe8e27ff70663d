"""Property: a page rendered through a labelled partial is the page
rendered with the loop inlined — bytes, label set (interned identity)
and user taint — whether the items are plain dicts (rendered per page)
or document-store view rows (rendered once per revision and replayed).

The partial mixes an escaping interpolation, a raw one (``<%==``, which
keeps user taint) and literal markup, so the fold sees confidentiality
and integrity labels, unlabelled rows, tainted values and 0/1/many rows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labels import LabelSet, conf_label, int_label
from repro.storage import Database
from repro.taint import is_user_tainted, label, labels_of, with_labels
from repro.web.templates import TemplateRegistry

L_PATIENT = conf_label("ecric.org.uk", "patient", "9")
L_MDT = conf_label("ecric.org.uk", "mdt", "3")
L_TRUSTED = int_label("ecric.org.uk", "mdt")

ROW = '<tr><td><%= {row}.get("name", "") %></td><td><%== {row}.get("note", "") %></td></tr>\n'
PAGE = "<h1><%= title %></h1>\n<table>\n{rows}</table>\n"

TEMPLATES = TemplateRegistry()
TEMPLATES.register(
    "inlined", PAGE.format(rows="<% for record in rows %>" + ROW.format(row="record") + "<% end %>")
)
TEMPLATES.register(
    "page", PAGE.format(rows='<% for row in rows %><% include("row", row) %><% end %>')
)
TEMPLATES.register("row", ROW.format(row="item"))

_text = st.text(alphabet="ab<>&\"' ", max_size=6)
_values = st.one_of(
    _text,
    st.integers(-9, 9),
    st.tuples(
        _text, st.sampled_from(((L_PATIENT,), (L_MDT,), (L_TRUSTED,), (L_MDT, L_TRUSTED)))
    ).map(lambda pair: label(pair[0], *pair[1])),
    _text.map(lambda value: with_labels(value, LabelSet([L_MDT]), user_taint=True)),
    _text.map(lambda value: with_labels(value, LabelSet(), user_taint=True)),
)
_documents = st.lists(
    st.dictionaries(st.sampled_from(("name", "note", "other")), _values, max_size=3), max_size=5
)
_titles = st.one_of(_text, _text.map(lambda value: label(value, L_TRUSTED)))


def _assert_same_page(actual, expected):
    assert type(actual) is type(expected)
    assert str.__eq__(actual, expected)
    assert labels_of(actual) is labels_of(expected)
    assert is_user_tainted(actual) is is_user_tainted(expected)


@settings(max_examples=120, deadline=None)
@given(documents=_documents, title=_titles)
def test_partial_page_equals_inlined_page(documents, title):
    inlined = TEMPLATES.render("inlined", title=title, rows=documents)
    _assert_same_page(TEMPLATES.render("page", title=title, rows=documents), inlined)

    # The same documents read back from a store (which keeps labels and
    # drops user taint): fragments are memoised on the revisions, so the
    # second render replays what the first one rendered.
    database = Database("pages")
    database.define_view("all", lambda doc: [(None, None)])
    for index, document in enumerate(documents):
        database.put({"_id": f"doc-{index}", **document})
    stored = TEMPLATES.render(
        "inlined", title=title, rows=[row.value for row in database.view("all", include_docs=True)]
    )
    for _ in range(2):
        rows = database.view("all", include_docs=True)
        _assert_same_page(TEMPLATES.render("page", title=title, rows=rows), stored)
