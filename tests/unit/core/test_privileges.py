"""Unit tests for privileges (paper §4.1)."""

import pytest

from repro.core.labels import LabelSet, conf_label, int_label
from repro.core.privileges import (
    CLEARANCE,
    DECLASSIFICATION,
    ENDORSEMENT,
    PrivilegeSet,
)
from repro.exceptions import PolicyError

PATIENT_ROOT = conf_label("ecric.org.uk", "patient")
PATIENT_1 = PATIENT_ROOT.child("1")
PATIENT_2 = PATIENT_ROOT.child("2")
MDT_1 = conf_label("ecric.org.uk", "mdt", "1")
MDT_INT = int_label("ecric.org.uk", "mdt")


class TestPrivilegeSet:
    def test_empty_set_grants_nothing(self):
        privileges = PrivilegeSet.empty()
        assert not privileges.grants(CLEARANCE, PATIENT_1)
        assert not privileges

    def test_empty_set_covers_unlabelled_data(self):
        assert PrivilegeSet.empty().clearance_covers(LabelSet())

    def test_clearance_covers(self):
        privileges = PrivilegeSet({CLEARANCE: [MDT_1, PATIENT_1]})
        assert privileges.clearance_covers(LabelSet([MDT_1]))
        assert privileges.clearance_covers(LabelSet([MDT_1, PATIENT_1]))
        assert not privileges.clearance_covers(LabelSet([PATIENT_2]))

    def test_hierarchical_clearance(self):
        privileges = PrivilegeSet({CLEARANCE: [PATIENT_ROOT]})
        assert privileges.clearance_covers(LabelSet([PATIENT_1, PATIENT_2]))

    def test_integrity_labels_do_not_affect_clearance(self):
        privileges = PrivilegeSet.empty()
        assert privileges.clearance_covers(LabelSet([MDT_INT]))

    def test_declassification_covers_granted_labels_only(self):
        privileges = PrivilegeSet({DECLASSIFICATION: [MDT_1]})
        assert privileges.missing_declassification(LabelSet([MDT_1])) == frozenset()
        assert privileges.missing_declassification(LabelSet([PATIENT_1])) == {PATIENT_1}

    def test_clearance_does_not_imply_declassification(self):
        privileges = PrivilegeSet({CLEARANCE: [MDT_1]})
        assert privileges.missing_declassification(LabelSet([MDT_1])) == {MDT_1}

    def test_can_endorse(self):
        privileges = PrivilegeSet({ENDORSEMENT: [MDT_INT]})
        assert privileges.can_endorse(LabelSet([MDT_INT]))
        assert not PrivilegeSet.empty().can_endorse(LabelSet([MDT_INT]))

    def test_missing_clearance_reports_exact_labels(self):
        privileges = PrivilegeSet({CLEARANCE: [MDT_1]})
        missing = privileges.missing_clearance(LabelSet([MDT_1, PATIENT_1, PATIENT_2]))
        assert missing == {PATIENT_1, PATIENT_2}

    def test_missing_declassification(self):
        privileges = PrivilegeSet({DECLASSIFICATION: [MDT_1]})
        missing = privileges.missing_declassification(LabelSet([MDT_1, PATIENT_1]))
        assert missing == {PATIENT_1}

    def test_merge(self):
        a = PrivilegeSet({CLEARANCE: [MDT_1]})
        b = PrivilegeSet({CLEARANCE: [PATIENT_1], DECLASSIFICATION: [MDT_1]})
        merged = a.merge(b)
        assert merged.clearance_covers(LabelSet([MDT_1, PATIENT_1]))
        assert merged.missing_declassification(LabelSet([MDT_1])) == frozenset()

    def test_restrict(self):
        privileges = PrivilegeSet({CLEARANCE: [MDT_1], DECLASSIFICATION: [MDT_1]})
        only_clearance = privileges.restrict([CLEARANCE])
        assert only_clearance.grants(CLEARANCE, MDT_1)
        assert only_clearance.missing_declassification(LabelSet([MDT_1])) == {MDT_1}

    def test_without_clearance_for_exact(self):
        privileges = PrivilegeSet({CLEARANCE: [MDT_1, PATIENT_1]})
        reduced = privileges.without_clearance_for([MDT_1])
        assert not reduced.grants(CLEARANCE, MDT_1)
        assert reduced.grants(CLEARANCE, PATIENT_1)

    def test_without_clearance_removes_covering_ancestor(self):
        privileges = PrivilegeSet({CLEARANCE: [PATIENT_ROOT]})
        reduced = privileges.without_clearance_for([PATIENT_1])
        # The hierarchical root would still cover the withheld label, so it
        # must go entirely.
        assert not reduced.grants(CLEARANCE, PATIENT_1)
        assert not reduced.grants(CLEARANCE, PATIENT_2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(PolicyError):
            PrivilegeSet({"root": [MDT_1]})
        with pytest.raises(PolicyError):
            PrivilegeSet.empty().labels_for("root")

    def test_dict_round_trip(self):
        privileges = PrivilegeSet({CLEARANCE: [MDT_1], ENDORSEMENT: [MDT_INT]})
        assert PrivilegeSet.from_dict(privileges.to_dict()) == privileges

    def test_grants_exact_and_hierarchical(self):
        privileges = PrivilegeSet({CLEARANCE: [PATIENT_ROOT]})
        assert privileges.grants(CLEARANCE, PATIENT_ROOT)
        assert privileges.grants(CLEARANCE, PATIENT_1)
        assert not privileges.grants(CLEARANCE, MDT_1)
        assert not privileges.grants(DECLASSIFICATION, PATIENT_1)

    def test_grant_labels_accept_uri_strings(self):
        privileges = PrivilegeSet({CLEARANCE: [PATIENT_1.uri]})
        assert privileges.labels_for(CLEARANCE) == {PATIENT_1}
        assert PrivilegeSet.empty().grant(CLEARANCE, PATIENT_1.uri) == privileges

    def test_equal_sets_hash_equal(self):
        a = PrivilegeSet({CLEARANCE: [PATIENT_1], DECLASSIFICATION: [MDT_1]})
        b = PrivilegeSet({DECLASSIFICATION: [MDT_1.uri], CLEARANCE: [PATIENT_1.uri]})
        assert a == b
        assert len({a, b}) == 1
        assert a != PrivilegeSet({CLEARANCE: [PATIENT_1]})

    def test_grant_adds_without_mutating_the_original(self):
        original = PrivilegeSet({CLEARANCE: [MDT_1]})
        widened = original.grant(CLEARANCE, PATIENT_1)
        assert widened.clearance_covers(LabelSet([MDT_1, PATIENT_1]))
        assert not original.grants(CLEARANCE, PATIENT_1)

    def test_grant_and_revoke_reject_unknown_kind(self):
        with pytest.raises(PolicyError):
            PrivilegeSet.empty().grant("root", MDT_1)
        with pytest.raises(PolicyError):
            PrivilegeSet({CLEARANCE: [MDT_1]}).revoke("root", MDT_1)

    def test_revoke_removes_the_exact_grant_only(self):
        privileges = PrivilegeSet({CLEARANCE: [PATIENT_ROOT, PATIENT_1, MDT_1]})
        reduced = privileges.revoke(CLEARANCE, PATIENT_1, MDT_1)
        assert reduced.labels_for(CLEARANCE) == {PATIENT_ROOT}
        # The hierarchical root still covers the revoked child grant.
        assert reduced.grants(CLEARANCE, PATIENT_1)
        assert not reduced.grants(CLEARANCE, MDT_1)

    def test_clearance_decision_follows_grant_and_revoke(self):
        privileges = PrivilegeSet({CLEARANCE: [MDT_1]})
        labels = LabelSet([MDT_1, PATIENT_1])
        assert not privileges.clearance_covers(labels)
        granted = privileges.grant(CLEARANCE, PATIENT_1)
        assert granted.clearance_covers(labels)
        assert not granted.revoke(CLEARANCE, PATIENT_1).clearance_covers(labels)
        assert not privileges.clearance_covers(labels)

    def test_hierarchical_declassification(self):
        privileges = PrivilegeSet({DECLASSIFICATION: [PATIENT_ROOT]})
        assert privileges.missing_declassification(LabelSet([PATIENT_1, PATIENT_2])) == frozenset()
        assert privileges.missing_declassification(LabelSet([PATIENT_1, MDT_1])) == {MDT_1}

    def test_declassification_ignores_integrity_labels(self):
        assert PrivilegeSet.empty().missing_declassification(LabelSet([MDT_INT])) == frozenset()

    def test_queries_accept_plain_label_iterables(self):
        privileges = PrivilegeSet({CLEARANCE: [MDT_1], DECLASSIFICATION: [MDT_1]})
        assert privileges.clearance_covers([MDT_1])
        assert privileges.missing_clearance([MDT_1, PATIENT_1]) == {PATIENT_1}
        assert privileges.missing_declassification([MDT_1, PATIENT_1]) == {PATIENT_1}
        assert not privileges.can_endorse([MDT_INT])

    def test_repr_lists_held_kinds_only(self):
        privileges = PrivilegeSet({CLEARANCE: [PATIENT_1, MDT_1]})
        assert repr(privileges) == f"PrivilegeSet(clearance=[{MDT_1.uri}, {PATIENT_1.uri}])"
        assert repr(PrivilegeSet.empty()) == "PrivilegeSet()"
