"""Unit tests for the label-carrying JSON codec."""

import json

from repro.core.labels import LabelSet, conf_label
from repro.taint import LabeledStr, label, labels_of, mark_user_input
from repro.taint import json_codec

PATIENT = conf_label("ecric.org.uk", "patient", "1")
MDT = conf_label("ecric.org.uk", "mdt", "1")


class TestDumps:
    def test_result_is_labeled_with_content_labels(self):
        record = {"name": label("alice", PATIENT), "mdt": label("1", MDT)}
        text = json_codec.dumps(record)
        assert isinstance(text, LabeledStr)
        assert labels_of(text) == LabelSet([PATIENT, MDT])
        assert json.loads(text) == {"name": "alice", "mdt": "1"}

    def test_unlabeled_payload_gives_unlabeled_json(self):
        assert labels_of(json_codec.dumps({"a": 1})) == LabelSet()

    def test_nested_structures(self):
        payload = {"rows": [{"v": label(3, PATIENT)}]}
        assert labels_of(json_codec.dumps(payload)) == LabelSet([PATIENT])

    def test_to_json_alias(self):
        assert labels_of(json_codec.to_json([label("x", MDT)])) == LabelSet([MDT])

    def test_kwargs_passthrough(self):
        text = json_codec.dumps({"b": 1, "a": 2}, sort_keys=True)
        assert text == '{"a": 2, "b": 1}'


class TestLoads:
    def test_labeled_text_labels_every_leaf(self):
        text = LabeledStr('{"name": "alice", "n": 3}', labels=LabelSet([PATIENT]))
        decoded = json_codec.loads(text)
        assert labels_of(decoded["name"]) == LabelSet([PATIENT])
        assert labels_of(decoded["n"]) == LabelSet([PATIENT])

    def test_plain_text_stays_plain(self):
        decoded = json_codec.loads('{"a": 1}')
        assert labels_of(decoded["a"]) == LabelSet()

    def test_taint_propagates_through_decode(self):
        from repro.taint import is_user_tainted

        decoded = json_codec.loads(mark_user_input('{"q": "x"}'))
        assert is_user_tainted(decoded["q"])


class TestDocumentSidecar:
    def test_round_trip(self):
        doc = {
            "patient": label("alice", PATIENT),
            "mdt": label("1", MDT),
            "plain": "public",
            "nested": {"count": label(3, PATIENT)},
            "items": [label("x", MDT), "y"],
        }
        plain, sidecar = json_codec.encode_document(doc)
        assert labels_of(plain) == LabelSet()
        assert json.dumps(plain)  # storable
        restored = json_codec.decode_document(plain, sidecar)
        assert labels_of(restored["patient"]) == LabelSet([PATIENT])
        assert labels_of(restored["mdt"]) == LabelSet([MDT])
        assert labels_of(restored["plain"]) == LabelSet()
        assert labels_of(restored["nested"]["count"]) == LabelSet([PATIENT])
        assert labels_of(restored["items"][0]) == LabelSet([MDT])
        assert labels_of(restored["items"][1]) == LabelSet()

    def test_sidecar_only_contains_labeled_leaves(self):
        doc = {"a": "public", "b": label("secret", PATIENT)}
        _plain, sidecar = json_codec.encode_document(doc)
        assert list(sidecar) == ["/b"]
        assert sidecar["/b"] == [PATIENT.uri]

    def test_pointer_escaping(self):
        doc = {"we/ird~key": label("v", PATIENT)}
        plain, sidecar = json_codec.encode_document(doc)
        assert list(sidecar) == ["/we~1ird~0key"]
        restored = json_codec.decode_document(plain, sidecar)
        assert labels_of(restored["we/ird~key"]) == LabelSet([PATIENT])

    def test_stale_pointers_ignored(self):
        restored = json_codec.decode_document({"a": 1}, {"/gone": [PATIENT.uri], "/list/9": [PATIENT.uri]})
        assert restored == {"a": 1}

    def test_scalar_document(self):
        plain, sidecar = json_codec.encode_document(label("top", PATIENT))
        assert plain == "top"
        assert sidecar == {"": [PATIENT.uri]}
        restored = json_codec.decode_document(plain, sidecar)
        assert labels_of(restored) == LabelSet([PATIENT])


class TestCopyContainers:
    def test_containers_are_fresh_at_every_depth_and_leaves_shared(self):
        class Rows(list):
            pass

        secret = label("alice", PATIENT)
        original = {
            "flat": [1, "x"],
            "deep": [{"inner": (1, [secret])}],
            "subclass": Rows([{"n": label(3, MDT)}]),
            "leaf": secret,
            "pair": (1, 2),
        }
        copy = json_codec.copy_containers(original)
        assert copy == original
        for path in (
            lambda d: d,
            lambda d: d["flat"],
            lambda d: d["deep"],
            lambda d: d["deep"][0],
            lambda d: d["deep"][0]["inner"][1],
            lambda d: d["subclass"],
            lambda d: d["subclass"][0],
        ):
            assert path(copy) is not path(original)
        assert copy["leaf"] is secret and copy["deep"][0]["inner"][1][0] is secret
        assert copy["pair"] is original["pair"]  # immutable all the way down
        assert labels_of(copy) == labels_of(original)

    def test_scalars_pass_through(self):
        secret = label(7, PATIENT)
        assert json_codec.copy_containers(secret) is secret
        assert json_codec.copy_containers(None) is None
