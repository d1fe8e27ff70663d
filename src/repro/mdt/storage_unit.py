"""The data storage unit (paper §5.1, unit (c)).

A *privileged* unit holding declassification privileges for all MDTs. It
handles data persistence: aggregated records and metrics arrive as
labelled events and are written into the application database with
labels attached per field — the point where the backend's event-level
granularity becomes the frontend's variable-level granularity (§4.4).

Relabelling (the §3.1 aggregate pattern) happens here and only here:

* **records** keep their event labels verbatim — no declassification is
  involved, so even a buggy upstream aggregator cannot cause this unit
  to weaken anything (mixed records stay labelled with *all* their MDTs);
* **MDT metrics** have patient/MDT labels removed (declassification,
  privilege-checked) and the MDT-specific aggregate label applied;
* **regional metrics** likewise get the regional aggregate label.
"""

from __future__ import annotations

from typing import Optional

from repro.core.labels import LabelSet
from repro.events.event import Event
from repro.events.supervision import CircuitBreaker
from repro.events.unit import Unit
from repro.exceptions import DeclassificationError
from repro.mdt.labels import mdt_aggregate_label, region_aggregate_label
from repro.storage.docstore import DocumentDatabase
from repro.taint.labeled import with_labels

#: Record fields persisted with confidentiality labels; everything else
#: (counts, ids the view indexes on) stays plain.
SENSITIVE_RECORD_FIELDS = (
    "patient_id",
    "patient_name",
    "date_of_birth",
    "nhs_number",
    "site",
    "stage",
    "diagnosis_date",
    "treatments",
    "outcomes",
    "source_patients",
)


class DataStorage(Unit):
    """Persists labelled results into the application database.

    An optional :class:`~repro.events.supervision.CircuitBreaker` guards
    every write: when the backend keeps failing the breaker opens and
    writes are rejected fast with
    :class:`~repro.exceptions.CircuitOpenError` instead of stalling the
    pipeline — under a supervised engine those events dead-letter
    (with labels intact) rather than piling up behind a sick database.
    """

    unit_name = "data_storage"

    def __init__(self, app_db: DocumentDatabase, breaker: Optional[CircuitBreaker] = None):
        super().__init__()
        self._app_db = app_db
        self.breaker = breaker
        self.documents_written = 0

    def setup(self) -> None:
        self.subscribe("/aggregated_record", self.on_record)
        self.subscribe("/mdt_metric", self.on_mdt_metric)
        self.subscribe("/region_metric", self.on_region_metric)

    # -- records ---------------------------------------------------------------

    def on_record(self, event: Event) -> None:
        labels = event.labels
        doc_id = "record-" + event["record_key"].replace(":", "-").replace("/", "-")
        document = {
            "_id": doc_id,
            "type": "record",
            "mid": event.get("mdt_id", ""),
            "hospital": event.get("hospital", ""),
            "region": event.get("region", ""),
            "tumour_count": event.get("tumour_count", "0"),
        }
        for field in SENSITIVE_RECORD_FIELDS:
            value = event.get(field, "")
            document[field] = with_labels(value, labels) if labels else value
        self._upsert(document)

    # -- metrics (relabelling under declassification privilege) -------------------

    def on_mdt_metric(self, event: Event) -> None:
        mdt_id = event["mdt_id"]
        self._check_declassification(event.labels)
        # Unlabelled input (the benchmark baseline) yields unlabelled
        # aggregates; labelled input is relabelled to the aggregate label.
        if event.labels:
            aggregate_labels = LabelSet([mdt_aggregate_label(mdt_id)])
            completeness = with_labels(event.get("completeness", ""), aggregate_labels)
            survival = with_labels(event.get("survival", ""), aggregate_labels)
        else:
            completeness = event.get("completeness", "")
            survival = event.get("survival", "")
        document = {
            "_id": f"metric-mdt-{mdt_id}",
            "type": "mdt_metric",
            "metric_mid": mdt_id,
            "record_count": event.get("record_count", "0"),
            "completeness": completeness,
            "survival": survival,
        }
        self._upsert(document)

    def on_region_metric(self, event: Event) -> None:
        region = event["region"]
        self._check_declassification(event.labels)
        if event.labels:
            aggregate_labels = LabelSet([region_aggregate_label(region)])
            completeness = with_labels(event.get("completeness", ""), aggregate_labels)
            survival = with_labels(event.get("survival", ""), aggregate_labels)
        else:
            completeness = event.get("completeness", "")
            survival = event.get("survival", "")
        document = {
            "_id": f"metric-region-{region}",
            "type": "region_metric",
            "metric_region": region,
            "mdt_count": event.get("mdt_count", "0"),
            "completeness": completeness,
            "survival": survival,
        }
        self._upsert(document)

    def _check_declassification(self, labels: LabelSet) -> None:
        """Trusted code self-check: relabelling is declassification.

        The jail does not constrain privileged units, so this unit
        re-verifies its own authority before weakening any label — a
        defensive pattern that keeps the audit trail honest.
        """
        missing = self.principal.privileges.missing_declassification(labels)
        if missing:
            raise DeclassificationError(
                f"data_storage lacks declassification for "
                f"{sorted(label.uri for label in missing)}"
            )

    def _upsert(self, document: dict) -> None:
        # The store adopts the current revision under its own lock, so
        # the seed's get-then-put conflict retry is no longer needed.
        if self.breaker is not None:
            self.breaker.call(self._app_db.upsert, document)
        else:
            self._app_db.upsert(document)
        self.documents_written += 1


def define_application_views(database: DocumentDatabase) -> None:
    """The design document of the MDT application database: the views the
    portal queries, and no other.

    Works on a plain or sharded database; each view is an incremental
    secondary index maintained on every write, so a view nothing reads
    would still cost every write an index pass.
    """

    def records_by_mid(doc):
        if isinstance(doc, dict) and doc.get("type") == "record":
            yield doc.get("mid", ""), None

    database.define_view("records/by_mid", records_by_mid)
