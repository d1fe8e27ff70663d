"""The simulated main cancer registration database (paper §2.1).

The real ECRIC main database holds structured information about patients,
tumours and associated treatments inside a secure private network. We
reproduce its *shape*: three relational-style tables with foreign keys,
indexed access paths the data producer uses, and a case-record join that
flattens one patient's clinical picture into the dict the producer
publishes as events. Data comes from the synthetic workload generator
(:mod:`repro.mdt.workload`) — the per-patient / per-MDT / per-region
structure the MDT policy discriminates on is what matters, not medical
realism.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional


@dataclass(frozen=True)
class Patient:
    patient_id: str
    name: str
    date_of_birth: str
    nhs_number: str
    hospital: str
    mdt_id: str
    region: str


@dataclass(frozen=True)
class Tumour:
    tumour_id: str
    patient_id: str
    site: str
    stage: str
    diagnosis_date: str


@dataclass(frozen=True)
class Treatment:
    treatment_id: str
    tumour_id: str
    kind: str
    start_date: str
    outcome: Optional[str] = None


@dataclass
class CaseRecord:
    """The flattened join the data producer publishes (one per tumour)."""

    patient: Patient
    tumour: Tumour
    treatments: List[Treatment] = field(default_factory=list)

    def to_attributes(self) -> Dict[str, str]:
        """Event attributes (untyped strings, §4.1)."""
        return {
            "patient_id": self.patient.patient_id,
            "patient_name": self.patient.name,
            "date_of_birth": self.patient.date_of_birth,
            "nhs_number": self.patient.nhs_number,
            "hospital": self.patient.hospital,
            "mdt_id": self.patient.mdt_id,
            "region": self.patient.region,
            "tumour_id": self.tumour.tumour_id,
            "site": self.tumour.site,
            "stage": self.tumour.stage,
            "diagnosis_date": self.tumour.diagnosis_date,
            "treatment_count": str(len(self.treatments)),
            "treatments": ";".join(t.kind for t in self.treatments),
            "outcomes": ";".join(t.outcome or "" for t in self.treatments),
        }


class MainDatabase:
    """In-memory relational store with the producer's access paths."""

    def __init__(self):
        self._lock = threading.RLock()
        self._patients: Dict[str, Patient] = {}
        self._tumours: Dict[str, Tumour] = {}
        self._treatments: Dict[str, Treatment] = {}
        self._tumours_by_patient: Dict[str, List[str]] = {}
        self._treatments_by_tumour: Dict[str, List[str]] = {}
        self._patients_by_mdt: Dict[str, List[str]] = {}

    # -- loading -------------------------------------------------------------

    def bulk_load(
        self,
        patients: Iterable[Patient] = (),
        tumours: Iterable[Tumour] = (),
        treatments: Iterable[Treatment] = (),
    ) -> None:
        """Insert rows under one lock acquisition, atomically.

        Referential order is enforced within the call (patients before
        tumours before treatments; a duplicate patient id is refused),
        and validation runs over the *whole* batch before any row is
        applied, so a bad row midway leaves the database untouched
        instead of half-loaded. The workload generator builds its
        synthetic registry with one call.
        """
        patients = list(patients)
        tumours = list(tumours)
        treatments = list(treatments)
        with self._lock:
            known_patients = set(self._patients)
            for patient in patients:
                if patient.patient_id in known_patients:
                    raise ValueError(f"duplicate patient {patient.patient_id!r}")
                known_patients.add(patient.patient_id)
            known_tumours = set(self._tumours)
            for tumour in tumours:
                if tumour.patient_id not in known_patients:
                    raise ValueError(
                        f"tumour references unknown patient {tumour.patient_id!r}"
                    )
                known_tumours.add(tumour.tumour_id)
            for treatment in treatments:
                if treatment.tumour_id not in known_tumours:
                    raise ValueError(
                        f"treatment references unknown tumour {treatment.tumour_id!r}"
                    )
            for patient in patients:
                self._patients[patient.patient_id] = patient
                self._patients_by_mdt.setdefault(patient.mdt_id, []).append(
                    patient.patient_id
                )
            for tumour in tumours:
                self._tumours[tumour.tumour_id] = tumour
                self._tumours_by_patient.setdefault(tumour.patient_id, []).append(
                    tumour.tumour_id
                )
            for treatment in treatments:
                self._treatments[treatment.treatment_id] = treatment
                self._treatments_by_tumour.setdefault(treatment.tumour_id, []).append(
                    treatment.treatment_id
                )

    # -- queries ---------------------------------------------------------------

    def patient(self, patient_id: str) -> Optional[Patient]:
        with self._lock:
            return self._patients.get(patient_id)

    def patients(self) -> List[Patient]:
        with self._lock:
            return [self._patients[pid] for pid in sorted(self._patients)]

    def patients_for_mdt(self, mdt_id: str) -> List[Patient]:
        with self._lock:
            ids = list(self._patients_by_mdt.get(mdt_id, []))
            return [self._patients[pid] for pid in ids]

    def tumours_for(self, patient_id: str) -> List[Tumour]:
        with self._lock:
            ids = list(self._tumours_by_patient.get(patient_id, []))
            return [self._tumours[tid] for tid in ids]

    def treatments_for(self, tumour_id: str) -> List[Treatment]:
        with self._lock:
            ids = list(self._treatments_by_tumour.get(tumour_id, []))
            return [self._treatments[tid] for tid in ids]

    def mdt_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._patients_by_mdt)

    def regions(self) -> List[str]:
        with self._lock:
            return sorted({patient.region for patient in self._patients.values()})

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return {
                "patients": len(self._patients),
                "tumours": len(self._tumours),
                "treatments": len(self._treatments),
            }

    # -- the producer's join ------------------------------------------------------

    def case_records(self, mdt_id: Optional[str] = None) -> Iterator[CaseRecord]:
        """Flattened case records, one per tumour, optionally per MDT."""
        if mdt_id is None:
            patients = self.patients()
        else:
            patients = self.patients_for_mdt(mdt_id)
        for patient in patients:
            for tumour in self.tumours_for(patient.patient_id):
                yield CaseRecord(
                    patient=patient,
                    tumour=tumour,
                    treatments=self.treatments_for(tumour.tumour_id),
                )
