"""Unit tests for the synthetic workload generator."""

import pytest

from repro.core.labels import LabelSet
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

    def test_user_clearances_follow_policy_p1(self, workload):
        user = workload.policy.user("mdt1")
        # Own patient-level data.
        assert user.privileges.clearance_covers(LabelSet([mdt_label("1")]))
        assert not user.privileges.clearance_covers(LabelSet([mdt_label("2")]))
        # Same-region MDT aggregates (MDTs 1-3 are region-1).
        assert user.privileges.clearance_covers(LabelSet([mdt_aggregate_label("3")]))
        assert not user.privileges.clearance_covers(LabelSet([mdt_aggregate_label("4")]))
        # Regional aggregates: all of them.
        assert user.privileges.clearance_covers(
            LabelSet([region_aggregate_label("region-2")])
        )

    def test_passwords_match_policy_users(self, workload):
        for username, password in workload.user_passwords.items():
            assert workload.policy.user(username).check_password(password)


class TestWebdbPopulation:
    def test_populate(self, workload):
        webdb = WebDatabase(password_iterations=1_000)
        workload.populate_webdb(webdb)
        assert len(webdb.user_names()) == 6
        user_id = webdb.user_id("mdt1")
        privileges = webdb.privileges_for(user_id)
        assert privileges.clearance_covers(LabelSet([mdt_label("1")]))
        assert privileges.clearance_covers(LabelSet([mdt_aggregate_label("2")]))
        info = workload.directory.find("1")
        assert webdb.count_privileges(
            u_id=user_id, hospital=info.hospital, clinic=info.clinic
        ) == 1
        webdb.close()
