"""Unit tests for the simulated main registration database."""

import pytest

from repro.storage import MainDatabase, Patient, Treatment, Tumour


def patient(pid="p1", mdt="1", hospital="h1", region="east") -> Patient:
    return Patient(
        patient_id=pid,
        name=f"Patient {pid}",
        date_of_birth="1960-01-01",
        nhs_number=f"nhs-{pid}",
        hospital=hospital,
        mdt_id=mdt,
        region=region,
    )


@pytest.fixture()
def db() -> MainDatabase:
    database = MainDatabase()
    database.bulk_load(
        patients=[
            patient("p1", mdt="1"),
            patient("p2", mdt="1"),
            patient("p3", mdt="2", region="west"),
        ],
        tumours=[
            Tumour("t1", "p1", "breast", "2", "2010-01-01"),
            Tumour("t2", "p1", "lung", "3", "2010-06-01"),
            Tumour("t3", "p3", "breast", "1", "2011-01-01"),
        ],
        treatments=[
            Treatment("tr1", "t1", "surgery", "2010-02-01", "complete"),
            Treatment("tr2", "t1", "chemo", "2010-03-01", None),
        ],
    )
    return database


class TestIntegrity:
    def test_duplicate_patient_rejected(self, db):
        with pytest.raises(ValueError):
            db.bulk_load(patients=[patient("p1")])

    def test_tumour_requires_patient(self, db):
        with pytest.raises(ValueError):
            db.bulk_load(tumours=[Tumour("tx", "ghost", "breast", "1", "2011-01-01")])

    def test_treatment_requires_tumour(self, db):
        with pytest.raises(ValueError):
            db.bulk_load(treatments=[Treatment("trx", "ghost", "surgery", "2011-01-01")])


class TestQueries:
    def test_patients(self, db):
        assert [p.patient_id for p in db.patients()] == ["p1", "p2", "p3"]

    def test_patients_for_mdt(self, db):
        assert [p.patient_id for p in db.patients_for_mdt("1")] == ["p1", "p2"]
        assert db.patients_for_mdt("ghost") == []

    def test_tumours_for(self, db):
        assert [t.tumour_id for t in db.tumours_for("p1")] == ["t1", "t2"]
        assert db.tumours_for("p2") == []

    def test_treatments_for(self, db):
        assert [t.treatment_id for t in db.treatments_for("t1")] == ["tr1", "tr2"]

    def test_mdt_ids_and_regions(self, db):
        assert db.mdt_ids() == ["1", "2"]
        assert db.regions() == ["east", "west"]

    def test_counts(self, db):
        assert db.counts() == {"patients": 3, "tumours": 3, "treatments": 2}


class TestCaseRecords:
    def test_one_record_per_tumour(self, db):
        records = list(db.case_records())
        assert len(records) == 3

    def test_filtered_by_mdt(self, db):
        records = list(db.case_records(mdt_id="1"))
        assert {record.tumour.tumour_id for record in records} == {"t1", "t2"}

    def test_attributes_are_strings(self, db):
        record = next(db.case_records(mdt_id="1"))
        attributes = record.to_attributes()
        assert attributes["patient_id"] == "p1"
        assert attributes["treatment_count"] == "2"
        assert attributes["treatments"] == "surgery;chemo"
        assert all(isinstance(v, str) for v in attributes.values())


class TestAtomicBulkLoad:
    """``bulk_load`` validates the whole batch before applying any row —
    a bad row midway must leave the database untouched, not half-loaded."""

    def test_bad_tumour_reference_rolls_back_everything(self):
        db = MainDatabase()
        with pytest.raises(ValueError):
            db.bulk_load(
                patients=[patient("p1"), patient("p2")],
                tumours=[
                    Tumour("t1", "p1", "lung", "II", "2020-01-01"),
                    Tumour("t2", "missing", "lung", "II", "2020-01-01"),
                ],
            )
        assert db.counts() == {"patients": 0, "tumours": 0, "treatments": 0}

    def test_duplicate_patient_rolls_back_everything(self):
        db = MainDatabase()
        db.bulk_load(patients=[patient("p1")])
        with pytest.raises(ValueError):
            db.bulk_load(patients=[patient("p2"), patient("p1")])
        assert db.counts()["patients"] == 1
        assert db.patient("p2") is None

    def test_batch_internal_references_still_load(self):
        db = MainDatabase()
        db.bulk_load(
            patients=[patient("p1")],
            tumours=[Tumour("t1", "p1", "lung", "II", "2020-01-01")],
            treatments=[Treatment("tr1", "t1", "surgery", "2020-02-01")],
        )
        assert db.counts() == {"patients": 1, "tumours": 1, "treatments": 1}
