"""Synthetic workload generation (the paper's data substitute).

The real evaluation ran against ECRIC's cancer registration database,
which is patient-sensitive and unavailable. This generator reproduces the
*structure* the MDT policy discriminates on: MDTs grouped into regions,
hospitals hosting one clinic ("type") per MDT, patients treated by one
MDT, tumours with staging, treatments with optional outcomes and
deliberately missing fields so the completeness metric has something to
measure. Everything is driven by a seeded PRNG for reproducible tests
and benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.policy import Policy, PolicyDocument, UnitSpec
from repro.mdt.labels import (
    mdt_aggregate_label,
    mdt_label,
    mdt_label_root,
    mdt_aggregate_root,
    region_aggregate_root,
)
from repro.storage.maindb import MainDatabase, Patient, Treatment, Tumour
from repro.storage.webdb import WebDatabase

_FIRST_NAMES = [
    "Alice", "Brian", "Carol", "Deepak", "Elena", "Farid", "Grace", "Henry",
    "Irene", "Jamal", "Kirsten", "Liam", "Maria", "Nadia", "Oliver", "Priya",
]
_LAST_NAMES = [
    "Archer", "Bennett", "Clarke", "Davies", "Evans", "Foster", "Griffiths",
    "Hughes", "Iqbal", "Jones", "Khan", "Lewis", "Morris", "Novak", "Owen",
]
_SITES = ["breast", "lung", "colorectal", "prostate", "ovarian", "skin"]
_TREATMENTS = ["surgery", "chemotherapy", "radiotherapy", "hormone", "immunotherapy"]
_OUTCOMES = ["complete", "partial", "stable", "progressive", None]


@dataclass(frozen=True)
class MdtInfo:
    """Directory entry for one MDT (the Listing 3 ``Measurement`` analogue)."""

    mdt_id: str
    hospital: str
    clinic: str
    region: str


class MdtDirectory:
    """Registry of MDTs: id → (hospital, clinic, region)."""

    def __init__(self, entries: Dict[str, MdtInfo]):
        self._entries = dict(entries)

    def find(self, mdt_id: str) -> MdtInfo:
        from repro.exceptions import SafeWebError

        try:
            return self._entries[str(mdt_id)]
        except KeyError:
            raise SafeWebError(f"unknown MDT {mdt_id!r}") from None

    def find_or_none(self, mdt_id: str):
        return self._entries.get(str(mdt_id))

    def mdt_ids(self) -> List[str]:
        return sorted(self._entries, key=lambda mid: int(mid) if mid.isdigit() else mid)

    def in_region(self, region: str) -> List[MdtInfo]:
        return [info for info in self._entries.values() if info.region == region]

    def regions(self) -> List[str]:
        return sorted({info.region for info in self._entries.values()})

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class WorkloadConfig:
    """Knobs for workload generation (defaults are test-sized)."""

    num_regions: int = 2
    mdts_per_region: int = 2
    #: Two MDTs per hospital so the §5.2 "inappropriate access check"
    #: injection (dropping the clinic condition) has something to leak.
    mdts_per_hospital: int = 2
    patients_per_mdt: int = 10
    max_tumours_per_patient: int = 2
    max_treatments_per_tumour: int = 3
    #: Probability a generated field is left blank (drives completeness).
    missing_field_rate: float = 0.15
    seed: int = 42


@dataclass
class Workload:
    """Everything a deployment needs, generated consistently."""

    config: WorkloadConfig
    main_db: MainDatabase
    directory: MdtDirectory
    policy: Policy
    user_passwords: Dict[str, str] = field(default_factory=dict)

    def populate_webdb(self, webdb: WebDatabase) -> None:
        """Create portal users with label privileges and ACL rows."""
        for mdt_id in self.directory.mdt_ids():
            info = self.directory.find(mdt_id)
            username = f"mdt{mdt_id}"
            user_id = webdb.add_user(
                username,
                self.user_passwords[username],
                mdt=mdt_id,
                region=info.region,
            )
            grants = [
                ("clearance", mdt_label(mdt_id).uri),
                ("declassification", mdt_label(mdt_id).uri),
            ]
            # MDT-level aggregates: visible to every MDT in the same region.
            grants.extend(
                ("clearance", mdt_aggregate_label(peer.mdt_id).uri)
                for peer in self.directory.in_region(info.region)
            )
            # Regional aggregates: visible to all MDTs.
            grants.append(("clearance", region_aggregate_root().uri))
            webdb.grant_label_privileges(user_id, grants)
            # The Listing 3 application-level ACL row.
            webdb.grant_acl(user_id, hospital=info.hospital, clinic=info.clinic)


def generate_workload(config: WorkloadConfig | None = None) -> Workload:
    """Generate the main database, MDT directory, policy and users."""
    config = config or WorkloadConfig()
    rng = random.Random(config.seed)

    directory = _generate_directory(config)
    main_db = _generate_main_db(config, directory, rng)
    # Drawn after the registry, in MDT order: every seed's passwords,
    # and so every durable web database built from them, stay the same.
    passwords = {
        f"mdt{mdt_id}": f"pw-{rng.randint(100000, 999999)}" for mdt_id in directory.mdt_ids()
    }
    return Workload(
        config=config,
        main_db=main_db,
        directory=directory,
        policy=_generate_policy(),
        user_passwords=passwords,
    )


def _generate_directory(config: WorkloadConfig) -> MdtDirectory:
    entries: Dict[str, MdtInfo] = {}
    mdt_id = 0
    for region_index in range(config.num_regions):
        region = f"region-{region_index + 1}"
        for slot in range(config.mdts_per_region):
            mdt_id += 1
            hospital_index = (mdt_id - 1) // config.mdts_per_hospital + 1
            clinic = _SITES[slot % len(_SITES)]
            entries[str(mdt_id)] = MdtInfo(
                mdt_id=str(mdt_id),
                hospital=f"hospital-{hospital_index}",
                clinic=clinic,
                region=region,
            )
    return MdtDirectory(entries)


def _generate_main_db(
    config: WorkloadConfig, directory: MdtDirectory, rng: random.Random
) -> MainDatabase:
    main_db = MainDatabase()
    patients = []
    tumours = []
    treatments = []
    patient_counter = 0
    tumour_counter = 0
    treatment_counter = 0

    def maybe(value: str) -> str:
        return "" if rng.random() < config.missing_field_rate else value

    for mdt_id in directory.mdt_ids():
        info = directory.find(mdt_id)
        for _ in range(config.patients_per_mdt):
            patient_counter += 1
            patient_id = f"p{patient_counter:05d}"
            name = f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}"
            patients.append(
                Patient(
                    patient_id=patient_id,
                    name=name,
                    date_of_birth=maybe(
                        f"19{rng.randint(30, 89):02d}-{rng.randint(1, 12):02d}-"
                        f"{rng.randint(1, 28):02d}"
                    ),
                    nhs_number=maybe(f"{rng.randint(100, 999)} {rng.randint(100, 999)} "
                                     f"{rng.randint(1000, 9999)}"),
                    hospital=info.hospital,
                    mdt_id=mdt_id,
                    region=info.region,
                )
            )
            for _ in range(rng.randint(1, config.max_tumours_per_patient)):
                tumour_counter += 1
                tumour_id = f"t{tumour_counter:05d}"
                # The MDT's clinic dominates, with occasional referrals, so
                # different MDTs share tumour sites (the design-error
                # injection relies on cross-MDT site collisions).
                site = info.clinic if rng.random() < 0.8 else rng.choice(_SITES)
                tumours.append(
                    Tumour(
                        tumour_id=tumour_id,
                        patient_id=patient_id,
                        site=site,
                        stage=maybe(str(rng.randint(1, 4))),
                        diagnosis_date=maybe(
                            f"20{rng.randint(5, 10):02d}-{rng.randint(1, 12):02d}-"
                            f"{rng.randint(1, 28):02d}"
                        ),
                    )
                )
                for _ in range(rng.randint(0, config.max_treatments_per_tumour)):
                    treatment_counter += 1
                    treatments.append(
                        Treatment(
                            treatment_id=f"tr{treatment_counter:05d}",
                            tumour_id=tumour_id,
                            kind=rng.choice(_TREATMENTS),
                            start_date=f"20{rng.randint(8, 11):02d}-"
                            f"{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
                            outcome=rng.choice(_OUTCOMES),
                        )
                    )
    # One critical section for the whole synthetic registry.
    main_db.bulk_load(patients=patients, tumours=tumours, treatments=treatments)
    return main_db


def _generate_policy() -> Policy:
    """The three Figure 4 units; portal users live in the web database."""
    document = PolicyDocument(authority="ecric.org.uk")
    document.units["data_producer"] = UnitSpec(
        name="data_producer",
        privileged=True,
    )
    document.units["data_aggregator"] = UnitSpec(
        name="data_aggregator",
        grants={"clearance": [mdt_label_root().uri]},
    )
    document.units["data_storage"] = UnitSpec(
        name="data_storage",
        privileged=True,
        grants={
            "clearance": [
                mdt_label_root().uri,
                mdt_aggregate_root().uri,
                region_aggregate_root().uri,
            ],
            "declassification": [mdt_label_root().uri],
        },
    )
    return Policy(document)
