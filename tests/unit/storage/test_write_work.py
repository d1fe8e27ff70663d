"""Work-count pin for the stored-write path (paper §4.4 hand-off).

One ``upsert`` of the storage unit's record document does each piece of
its work once: one label split, one serialisation (the storable-JSON
validation that doubles as the revision digest), one map call per view,
one parse of the sidecar's URI lists per distinct label set — and a
rewrite that changes no emitted key leaves the per-key index alone.
Counts, not timings: a later change that re-adds a per-field or per-view
pass fails here whatever the host is doing.
"""

import json

import pytest

from repro.core.labels import LabelSet, conf_label
from repro.mdt.storage_unit import SENSITIVE_RECORD_FIELDS, define_application_views
from repro.storage import Database
from repro.taint import json_codec, labels_of, with_labels

EVENT_LABELS = LabelSet([conf_label("ecric.org.uk", "mdt", "7"), conf_label("ecric.org.uk", "patient", "42")])


def record_document() -> dict:
    """The 16-field document ``DataStorage.on_record`` writes."""
    document = {
        "_id": "record-7-42",
        "type": "record",
        "mid": "7",
        "hospital": "addenbrookes",
        "region": "east",
        "tumour_count": "2",
    }
    for field in SENSITIVE_RECORD_FIELDS:
        document[field] = with_labels(f"{field}-value", EVENT_LABELS)
    assert len(document) == 16
    return document


class _Counter:
    def __init__(self, wrapped):
        self.wrapped = wrapped
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.wrapped(*args, **kwargs)


@pytest.fixture()
def database() -> Database:
    database = Database("app")
    define_application_views(database)
    return database


def test_one_upsert_does_each_piece_of_work_once(database, monkeypatch):
    database.upsert(record_document())  # the counted write replaces a revision, as most do

    encode = _Counter(json_codec.encode_document)
    dumps = _Counter(json.dumps)
    from_uris = _Counter(LabelSet.from_uris)
    monkeypatch.setattr(json_codec, "encode_document", encode)
    monkeypatch.setattr(json, "dumps", dumps)
    monkeypatch.setattr(LabelSet, "from_uris", from_uris)
    maps = []
    for view in database._views.values():
        view.map_function = _Counter(view.map_function)
        maps.append(view.map_function)

    document = record_document()
    outcome = database.upsert(document)

    assert outcome["rev"].startswith("2-")
    assert encode.calls == 1
    assert dumps.calls == 1
    assert [counter.calls for counter in maps] == [1, 1, 1, 1]
    distinct_label_sets = {labels_of(value) for value in document.values()} - {LabelSet()}
    assert distinct_label_sets == {EVENT_LABELS}
    assert from_uris.calls == 1  # never more than the distinct label sets in the document
    assert database.raw_document("record-7-42").labels == EVENT_LABELS


def test_rewriting_an_unchanged_document_leaves_the_key_index_untouched(database):
    database.upsert(record_document())
    before = {
        name: {key: docs for key, docs in view.by_key.items()}
        for name, view in database._views.items()
    }
    assert before["records/by_mid"] == {"7": {"record-7-42"}}

    database.upsert(record_document())

    for name, view in database._views.items():
        assert view.by_key.keys() == before[name].keys()
        for key, docs in view.by_key.items():
            assert docs is before[name][key], f"{name}[{key!r}] was rebuilt"
    assert [row.key for row in database.view("records/by_mid", key="7")] == ["7"]
