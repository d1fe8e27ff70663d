"""Unit tests for policy parsing."""

import pytest

from repro.core.labels import LabelSet, conf_label
from repro.core.policy import (
    Policy,
    PolicyDocument,
    parse_policy,
    parse_policy_document,
)
from repro.core.privileges import CLEARANCE
from repro.exceptions import PolicyError

EXAMPLE = """
# SafeWeb policy for the MDT web portal
authority ecric.org.uk

unit data_producer {
    privileged
    declassification label:conf:ecric.org.uk/patient
}

unit data_aggregator {
    clearance label:conf:ecric.org.uk/patient
}

unit data_storage {
    privileged
    clearance label:conf:ecric.org.uk/mdt
    declassification label:conf:ecric.org.uk/mdt
    withhold label:conf:ecric.org.uk/admin
}

user mdt1 {
    password secret1
    mdt 1
    region east
    clearance label:conf:ecric.org.uk/mdt/1
    declassification label:conf:ecric.org.uk/mdt/1
}

user mdt2 {
    password secret2
    mdt 2
    region east
    clearance label:conf:ecric.org.uk/mdt/2
    declassification label:conf:ecric.org.uk/mdt/2
}
"""

MDT_1 = conf_label("ecric.org.uk", "mdt", "1")
MDT_2 = conf_label("ecric.org.uk", "mdt", "2")
PATIENT = conf_label("ecric.org.uk", "patient", "42")
ADMIN = conf_label("ecric.org.uk", "admin")


@pytest.fixture()
def policy() -> Policy:
    return parse_policy(EXAMPLE)


class TestPolicyParsing:
    def test_authority(self, policy):
        assert policy.authority == "ecric.org.uk"

    def test_unit_names(self, policy):
        assert policy.unit_names == ["data_aggregator", "data_producer", "data_storage"]

    def test_privileged_flag(self, policy):
        assert policy.unit("data_producer").privileged
        assert not policy.unit("data_aggregator").privileged

    def test_unit_grants(self, policy):
        aggregator = policy.unit("data_aggregator")
        assert aggregator.privileges.clearance_covers(LabelSet([PATIENT]))
        assert aggregator.privileges.missing_declassification(LabelSet([PATIENT])) == {PATIENT}

    def test_withhold_strips_clearance(self, policy):
        storage = policy.unit("data_storage")
        assert ADMIN in storage.withheld_labels
        assert not storage.privileges.grants(CLEARANCE, ADMIN)

    def test_user_fields(self, policy):
        user = policy.user("mdt1")
        assert user.mdt_id == "1"
        assert user.region == "east"
        assert user.check_password("secret1")
        assert not user.check_password("secret2")

    def test_user_grants_are_disjoint(self, policy):
        assert policy.user("mdt1").privileges.grants(CLEARANCE, MDT_1)
        assert not policy.user("mdt1").privileges.grants(CLEARANCE, MDT_2)

    def test_find_user_is_case_sensitive(self, policy):
        assert policy.find_user("mdt1") is not None
        assert policy.find_user("MDT1") is None

    def test_unknown_lookups_fail_closed(self, policy):
        with pytest.raises(PolicyError):
            policy.unit("nope")
        with pytest.raises(PolicyError):
            policy.user("nope")

    def test_added_user_is_resolvable(self, policy):
        from repro.core.principals import UserPrincipal
        from repro.core.privileges import PrivilegeSet

        policy.add_user(UserPrincipal("mdt3", PrivilegeSet({CLEARANCE: [MDT_2]}), password="pw"))
        assert "mdt3" in policy.user_names
        assert policy.user("mdt3").check_password("pw")
        assert policy.find_user("mdt3").privileges.grants(CLEARANCE, MDT_2)

    def test_json_round_trip(self, policy):
        document = parse_policy_document(EXAMPLE)
        rebuilt = Policy(PolicyDocument.from_json(document.to_json()))
        assert rebuilt.unit_names == policy.unit_names
        assert rebuilt.user_names == policy.user_names
        assert rebuilt.user("mdt1").privileges == policy.user("mdt1").privileges
        assert rebuilt.user("mdt1").check_password("secret1")

    @pytest.mark.parametrize(
        "bad",
        [
            "unit x {",  # unterminated block
            "unit x { clearance }",  # one-line block not supported
            "nonsense",
            "unit x {\n  clearance\n}",  # missing label
            "unit x {\n  clearance not-a-label\n}",
            "user u {\n  privileged\n}",  # unit-only directive
            "unit x {\n}\nunit x {\n}",  # duplicate
        ],
    )
    def test_malformed_policies_rejected(self, bad):
        with pytest.raises(PolicyError):
            parse_policy(bad)

    def test_comments_and_blank_lines_ignored(self):
        policy = parse_policy("# hi\n\nauthority a.org\nunit u {\n# inner\n}\n")
        assert policy.authority == "a.org"
        assert policy.unit_names == ["u"]

    def test_password_digest_form(self):
        source = parse_policy("user u {\n  password p\n}").user("u")
        text = (
            "user u {\n"
            f"  password_digest {source.password_salt} {source.password_digest}\n"
            "}"
        )
        rebuilt = parse_policy(text).user("u")
        assert rebuilt.check_password("p")
