"""Unit tests for policy parsing."""

import json

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
"""

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

    def test_unknown_lookups_fail_closed(self, policy):
        with pytest.raises(PolicyError):
            policy.unit("nope")

    def test_json_round_trip(self, policy):
        document = parse_policy_document(EXAMPLE)
        rebuilt = Policy(PolicyDocument.from_json(document.to_json()))
        assert rebuilt.unit_names == policy.unit_names
        for name in policy.unit_names:
            assert rebuilt.unit(name).privileges == policy.unit(name).privileges
            assert rebuilt.unit(name).privileged == policy.unit(name).privileged
        assert rebuilt.unit("data_storage").withheld_labels == LabelSet([ADMIN])

    def test_json_describes_units_only(self):
        payload = json.loads(parse_policy_document(EXAMPLE).to_json())
        assert sorted(payload) == ["authority", "units"]

    @pytest.mark.parametrize(
        "bad",
        [
            "unit x {",  # unterminated block
            "unit x { clearance }",  # one-line block not supported
            "nonsense",
            "unit x {\n  clearance\n}",  # missing label
            "unit x {\n  clearance not-a-label\n}",
            "user u {\n  privileged\n}",  # users live in the web database
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

    @pytest.mark.parametrize(
        "directive",
        ["password p", "password_digest salt digest", "mdt 1", "region east"],
    )
    def test_user_directives_are_unknown(self, directive):
        # Credentials, MDT and region belong to web users, which the web
        # database describes; neither block kind takes them.
        with pytest.raises(PolicyError, match="unknown directive"):
            parse_policy(f"unit u {{\n  {directive}\n}}")
        with pytest.raises(PolicyError, match="unexpected top-level"):
            parse_policy(f"user u {{\n  {directive}\n}}")
