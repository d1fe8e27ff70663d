"""Unit tests for the synthetic workload generator."""

import json

import pytest

from repro.core.labels import LabelSet
from repro.events.cluster import shard_policy_document
from repro.exceptions import SafeWebError
from repro.mdt.labels import mdt_aggregate_label, mdt_label, region_aggregate_label
from repro.mdt.workload import WorkloadConfig, generate_workload
from repro.storage.webdb import WebDatabase

CONFIG = WorkloadConfig(num_regions=2, mdts_per_region=3, patients_per_mdt=4, seed=5)


@pytest.fixture(scope="module")
def workload():
    return generate_workload(CONFIG)


class TestDirectory:
    def test_mdt_count(self, workload):
        assert len(workload.directory) == 6
        assert workload.directory.mdt_ids() == ["1", "2", "3", "4", "5", "6"]

    def test_regions(self, workload):
        assert workload.directory.regions() == ["region-1", "region-2"]
        assert len(workload.directory.in_region("region-1")) == 3

    def test_hospitals_shared_between_mdts(self, workload):
        # mdts_per_hospital=2 → MDTs 1 and 2 share hospital-1.
        assert (
            workload.directory.find("1").hospital == workload.directory.find("2").hospital
        )
        assert (
            workload.directory.find("1").hospital != workload.directory.find("3").hospital
        )

    def test_clinics_differ_within_hospital(self, workload):
        assert workload.directory.find("1").clinic != workload.directory.find("2").clinic

    def test_unknown_mdt(self, workload):
        with pytest.raises(SafeWebError):
            workload.directory.find("99")
        assert workload.directory.find_or_none("99") is None


class TestMainDatabase:
    def test_patient_counts(self, workload):
        counts = workload.main_db.counts()
        assert counts["patients"] == 6 * 4
        assert counts["tumours"] >= counts["patients"]

    def test_some_fields_missing_for_completeness_metric(self, workload):
        blanks = sum(
            1
            for patient in workload.main_db.patients()
            if patient.date_of_birth == "" or patient.nhs_number == ""
        )
        assert blanks > 0

    def test_deterministic_generation(self):
        first = generate_workload(CONFIG)
        second = generate_workload(CONFIG)
        assert [p.name for p in first.main_db.patients()] == [
            p.name for p in second.main_db.patients()
        ]
        assert first.user_passwords == second.user_passwords

    def test_different_seeds_differ(self):
        other = generate_workload(WorkloadConfig(seed=CONFIG.seed + 1))
        assert other.user_passwords != generate_workload(CONFIG).user_passwords

    def test_default_seed_passwords_are_pinned(self):
        # Drawn from the registry's PRNG after the main database: a
        # durable web database reopened from disk, and the benchmark's
        # registry reference, both rely on this exact draw.
        assert generate_workload(WorkloadConfig()).user_passwords == {
            "mdt1": "pw-147623",
            "mdt2": "pw-331230",
            "mdt3": "pw-514463",
            "mdt4": "pw-728437",
        }


class TestPolicy:
    def test_units_present(self, workload):
        assert workload.policy.unit_names == [
            "data_aggregator",
            "data_producer",
            "data_storage",
        ]

    def test_producer_privileged(self, workload):
        assert workload.policy.unit("data_producer").privileged
        assert not workload.policy.unit("data_aggregator").privileged

    def test_storage_can_declassify_mdt_labels(self, workload):
        storage = workload.policy.unit("data_storage")
        missing = storage.privileges.missing_declassification(LabelSet([mdt_label("3")]))
        assert missing == frozenset()

    def test_no_credential_leaves_the_web_database(self):
        # The policy JSON is what ClusterEngine.start sends to every
        # broker shard and worker process.
        workload = generate_workload()
        shipped = {
            "policy": workload.policy.document.to_json(),
            "shard policy": shard_policy_document(workload.policy.document).to_json(),
        }
        for what, text in shipped.items():
            assert "password" not in _keys(json.loads(text)), what
            for password in workload.user_passwords.values():
                assert password not in text, what


def _keys(value):
    """Every dict key anywhere in a decoded JSON value."""
    if isinstance(value, dict):
        return set(value).union(*map(_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(_keys, value))
    return set()


@pytest.fixture(scope="module")
def webdb(workload):
    database = WebDatabase(password_iterations=1_000)
    workload.populate_webdb(database)
    yield database
    database.close()


class TestWebdbPopulation:
    def test_populate(self, workload, webdb):
        assert len(webdb.user_names()) == 6
        user_id = webdb.user_id("mdt1")
        privileges = webdb.privileges_for(user_id)
        assert privileges.clearance_covers(LabelSet([mdt_label("1")]))
        assert privileges.clearance_covers(LabelSet([mdt_aggregate_label("2")]))
        info = workload.directory.find("1")
        assert webdb.count_privileges(
            u_id=user_id, hospital=info.hospital, clinic=info.clinic
        ) == 1

    def test_user_clearances_follow_policy_p1(self, webdb):
        user = webdb.principal_for("mdt1")
        assert (user.mdt_id, user.region) == ("1", "region-1")
        # Own patient-level data.
        assert user.privileges.clearance_covers(LabelSet([mdt_label("1")]))
        assert not user.privileges.clearance_covers(LabelSet([mdt_label("2")]))
        assert not user.privileges.missing_declassification(LabelSet([mdt_label("1")]))
        # Same-region MDT aggregates (MDTs 1-3 are region-1).
        assert user.privileges.clearance_covers(LabelSet([mdt_aggregate_label("3")]))
        assert not user.privileges.clearance_covers(LabelSet([mdt_aggregate_label("4")]))
        # Regional aggregates: all of them.
        assert user.privileges.clearance_covers(
            LabelSet([region_aggregate_label("region-2")])
        )

    def test_passwords_match_web_users(self, workload, webdb):
        assert webdb.user_names() == sorted(workload.user_passwords)
        for username, password in workload.user_passwords.items():
            assert webdb.check_password(username, password)
            assert not webdb.check_password(username, password + "x")
