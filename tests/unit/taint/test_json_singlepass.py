"""Single-pass labeled serialisation must match the seed two-pass exactly.

``json_codec`` now strips labels and collects them in one traversal
(``dumps``/``encode_document``) and applies a whole sidecar in one walk
(``decode_document``). These tests carry the *seed* two-pass
implementations verbatim as a reference and assert byte- and
label-identical results on nested documents, including stale pointers.
"""

from typing import Any, Dict, List

from repro.core.labels import LabelSet, conf_label, int_label
from repro.taint import json_codec
from repro.taint.json_codec import (
    _escape_pointer_token,
    _parse_pointer,
    decode_document,
    dumps,
    encode_document,
)
from repro.taint.labeled import is_labeled, labels_of, strip_labels, with_labels
from repro.taint.number import LabeledFloat, LabeledInt
from repro.taint.string import LabeledStr

MDT = conf_label("ecric.org.uk", "mdt", "1")
PATIENT = conf_label("ecric.org.uk", "patient", "33812769")
TRUSTED = int_label("ecric.org.uk", "mdt")

MDT_SET = LabelSet([MDT])
BOTH_SET = LabelSet([MDT, PATIENT, TRUSTED])


# -- the seed reference implementations (two-pass) ---------------------------


def seed_encode_document(document: Any):
    sidecar: Dict[str, List[str]] = {}
    _seed_collect(document, "", sidecar)
    return strip_labels(document), sidecar


def _seed_collect(value: Any, pointer: str, sidecar: Dict[str, List[str]]) -> None:
    if is_labeled(value):
        labels = labels_of(value)
        if labels:
            sidecar[pointer or ""] = labels.to_uris()
        return
    if isinstance(value, dict):
        for key, item in value.items():
            _seed_collect(item, f"{pointer}/{_escape_pointer_token(str(key))}", sidecar)
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _seed_collect(item, f"{pointer}/{index}", sidecar)


def seed_decode_document(document: Any, sidecar: Dict[str, List[str]]) -> Any:
    result = document
    for pointer, uris in sidecar.items():
        labels = LabelSet.from_uris(uris)
        result = _seed_apply(result, _parse_pointer(pointer), labels)
    return result


def _seed_apply(value: Any, path: List[str], labels: LabelSet) -> Any:
    if not path:
        return with_labels(value, labels_of(value).union(labels))
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        if head not in value:
            return value
        updated = dict(value)
        updated[head] = _seed_apply(value[head], rest, labels)
        return updated
    if isinstance(value, list):
        index = int(head)
        if index >= len(value):
            return value
        updated_list = list(value)
        updated_list[index] = _seed_apply(value[index], rest, labels)
        return updated_list
    return value


# -- fixtures ----------------------------------------------------------------


def nested_document() -> dict:
    return {
        "name": LabeledStr("alice", labels=MDT_SET),
        "score": LabeledFloat(0.25, labels=BOTH_SET),
        "count": LabeledInt(7, labels=LabelSet([PATIENT])),
        "public": "open data",
        "nested": {
            "deep/key~odd": LabeledStr("escaped", labels=MDT_SET),
            "list": [
                LabeledStr("first", labels=LabelSet([PATIENT])),
                "plain",
                {"inner": LabeledInt(3, labels=MDT_SET)},
            ],
        },
        "mixed": [LabeledStr("tail", labels=BOTH_SET)],
    }


def assert_same_labeled(a: Any, b: Any) -> None:
    """Deep equality including per-leaf labels and types."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, dict):
        assert set(a) == set(b)
        for key in a:
            assert_same_labeled(a[key], b[key])
        return
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for left, right in zip(a, b):
            assert_same_labeled(left, right)
        return
    assert a == b
    assert labels_of(a) == labels_of(b)


# -- encode ------------------------------------------------------------------


class TestEncodeSinglePass:
    def test_matches_seed_on_nested_document(self):
        document = nested_document()
        plain, sidecar = encode_document(document)
        seed_plain, seed_sidecar = seed_encode_document(document)
        assert plain == seed_plain
        assert sidecar == seed_sidecar

    def test_plain_document_has_empty_sidecar_and_plain_types(self):
        document = {"a": 1, "b": ["x", {"c": 2.5}], "d": None, "e": True}
        plain, sidecar = encode_document(document)
        assert sidecar == {}
        assert plain == document

    def test_encode_strips_every_leaf(self):
        plain, _ = encode_document(nested_document())
        assert labels_of(plain) == LabelSet.empty()

    def test_encode_copies_containers(self):
        document = {"inner": {"k": "v"}, "items": [1, 2]}
        plain, _ = encode_document(document)
        assert plain["inner"] is not document["inner"]
        assert plain["items"] is not document["items"]

    def test_tuple_preserved(self):
        document = {"t": (LabeledStr("x", labels=MDT_SET), "y")}
        plain, sidecar = encode_document(document)
        seed_plain, seed_sidecar = seed_encode_document(document)
        assert isinstance(plain["t"], tuple)
        assert plain == seed_plain
        assert sidecar == seed_sidecar


# -- decode ------------------------------------------------------------------


class TestDecodeSinglePass:
    def test_round_trip_matches_seed(self):
        document = nested_document()
        plain, sidecar = encode_document(document)
        assert_same_labeled(
            decode_document(plain, sidecar), seed_decode_document(plain, sidecar)
        )

    def test_round_trip_restores_labels(self):
        document = nested_document()
        plain, sidecar = encode_document(document)
        decoded = decode_document(plain, sidecar)
        assert labels_of(decoded["name"]) == MDT_SET
        assert labels_of(decoded["score"]) == BOTH_SET
        assert labels_of(decoded["nested"]["list"][0]) == LabelSet([PATIENT])
        assert labels_of(decoded["nested"]["list"][2]["inner"]) == MDT_SET

    def test_stale_dict_pointer_skipped(self):
        document = nested_document()
        plain, sidecar = encode_document(document)
        del plain["name"]
        del plain["nested"]["list"][2]["inner"]
        assert_same_labeled(
            decode_document(plain, sidecar), seed_decode_document(plain, sidecar)
        )

    def test_stale_list_pointer_skipped(self):
        document = {"items": [LabeledStr("a", labels=MDT_SET), LabeledStr("b", labels=MDT_SET)]}
        plain, sidecar = encode_document(document)
        plain["items"].pop()
        decoded = decode_document(plain, sidecar)
        assert_same_labeled(decoded, seed_decode_document(plain, sidecar))
        assert labels_of(decoded["items"][0]) == MDT_SET

    def test_root_pointer_labels_whole_document(self):
        plain = {"a": "x", "b": [1, 2]}
        sidecar = {"": MDT_SET.to_uris()}
        assert_same_labeled(
            decode_document(plain, sidecar), seed_decode_document(plain, sidecar)
        )

    def test_root_pointer_combines_with_leaf_pointers(self):
        plain = {"a": "x", "b": ["y"]}
        sidecar = {
            "": MDT_SET.to_uris(),
            "/b/0": LabelSet([PATIENT]).to_uris(),
        }
        decoded = decode_document(plain, sidecar)
        assert_same_labeled(decoded, seed_decode_document(plain, sidecar))
        assert labels_of(decoded["b"][0]) == LabelSet([MDT, PATIENT])

    def test_pointer_into_scalar_skipped(self):
        plain = {"a": "scalar"}
        sidecar = {"/a/deep": MDT_SET.to_uris()}
        assert_same_labeled(
            decode_document(plain, sidecar), seed_decode_document(plain, sidecar)
        )

    def test_empty_sidecar_returns_document_unchanged(self):
        plain = {"a": 1}
        assert decode_document(plain, {}) is plain

    def test_aliased_list_tokens_union_like_seed(self):
        """Distinct tokens ("0" vs "00") hitting one index must union."""
        plain = ["secret"]
        sidecar = {
            "/0": MDT_SET.to_uris(),
            "/00": LabelSet([PATIENT]).to_uris(),
        }
        decoded = decode_document(plain, sidecar)
        assert_same_labeled(decoded, seed_decode_document(plain, sidecar))
        assert labels_of(decoded[0]) == LabelSet([MDT, PATIENT])

    def test_unaffected_siblings_not_copied(self):
        """Copy-on-write: only containers along labeled paths are rebuilt."""
        plain = {"hot": {"k": "v"}, "cold": {"x": "y"}}
        sidecar = {"/hot/k": MDT_SET.to_uris()}
        decoded = decode_document(plain, sidecar)
        assert decoded is not plain
        assert decoded["cold"] is plain["cold"]


# -- dumps -------------------------------------------------------------------


class TestDumpsSinglePass:
    def test_text_and_labels_match_seed(self):
        import json

        document = nested_document()
        document.pop("mixed")  # tuples serialise, sets would not
        result = dumps(document, sort_keys=True)
        assert result == json.dumps(strip_labels(document), sort_keys=True)
        assert result.labels == labels_of(document)
        assert result.user_tainted is False

    def test_plain_value_has_no_labels(self):
        result = dumps({"a": [1, 2], "b": "x"})
        assert result.labels == LabelSet.empty()

    def test_integrity_dropped_when_unlabeled_leaf_present(self):
        document = {"trusted": LabeledStr("x", labels=LabelSet([TRUSTED])), "plain": "y"}
        result = dumps(document)
        assert result.labels == labels_of(document)
        assert result.labels.integrity == frozenset()

    def test_single_labeled_leaf_keeps_integrity(self):
        document = [LabeledStr("x", labels=LabelSet([TRUSTED, MDT]))]
        result = dumps(document)
        assert result.labels == labels_of(document)
        assert result.labels.integrity == {TRUSTED}

    def test_labeled_dict_keys_contribute(self):
        document = {LabeledStr("key", labels=MDT_SET): "value"}
        result = dumps(document)
        assert result.labels == labels_of(document)
        assert result.labels.confidentiality == {MDT}



# -- join_array --------------------------------------------------------------


class TestJoinArray:
    """Joining per-element ``dumps`` fragments is ``dumps`` of the list:
    same bytes, same interned label set, never user-tainted."""

    @staticmethod
    def assert_same_as_dumps(elements):
        joined = json_codec.join_array([dumps(element) for element in elements])
        whole = dumps(elements)
        assert type(joined) is LabeledStr
        assert str.__eq__(joined, whole)
        assert joined.labels is whole.labels
        assert joined.user_tainted is whole.user_tainted is False

    def test_labelled_documents(self):
        document = nested_document()
        document.pop("mixed")
        self.assert_same_as_dumps([document, {"other": LabeledStr("x", labels=BOTH_SET)}, document])

    def test_empty_array_carries_no_labels(self):
        self.assert_same_as_dumps([])
        assert json_codec.join_array([]) == "[]"
        assert json_codec.join_array([]).labels is LabelSet.empty()

    def test_single_element_keeps_its_integrity(self):
        # The list fold starts from the first element's labels, so a lone
        # endorsed element is not intersected with the empty set.
        self.assert_same_as_dumps([LabeledStr("x", labels=LabelSet([TRUSTED, MDT]))])

    def test_unlabelled_element_drops_integrity_keeps_confidentiality(self):
        self.assert_same_as_dumps([LabeledStr("x", labels=LabelSet([TRUSTED, MDT])), "plain"])
        self.assert_same_as_dumps(["plain", LabeledStr("x", labels=LabelSet([TRUSTED, MDT]))])

    def test_user_taint_of_an_element_does_not_survive(self):
        tainted = with_labels("x", MDT_SET, user_taint=True)
        self.assert_same_as_dumps([tainted, {"k": tainted}])

    def test_plain_fragments_are_accepted(self):
        joined = json_codec.join_array(['{"a": 1}', "2"])
        assert joined == "[" + '{"a": 1}, 2' + "]"
        assert joined.labels is LabelSet.empty()
