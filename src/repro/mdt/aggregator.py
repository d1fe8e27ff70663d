"""The data aggregator unit (paper §5.1, unit (b)).

A *jailed*, non-privileged unit: "implementation errors will not disclose
data because of the isolation mechanism of SafeWeb". It collects all
events related to individual cancer cases, combines their data into
aggregated records, and computes the per-MDT and regional metrics of
F2/F3.

State lives exclusively in the labelled key-value store:

* ``record:<match-key>`` — the combined record of one case; its labels
  accumulate the labels of every event merged into it;
* ``mdt_index:<mdt-id>`` — the record keys claimed by one MDT (used by
  the metrics pass so reading MDT 1's records never taints MDT 2's
  metric);
* ``metric:<mdt-id>`` — the computed per-MDT metric, read back by the
  regional aggregation.

The §5.2 *design error* injection
(:class:`repro.mdt.vulnerabilities.BuggyDataAggregator`) overrides
:meth:`DataAggregator.match_key` to match case events by the within-MDT
``local_case_number`` alone — "ignoring the hospital of origin" — so
records mix data of different MDTs. The mixed records carry both MDTs'
labels, which is what lets the frontend block them later.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.events.event import Event
from repro.events.unit import Unit
from repro.mdt.metrics import completeness_percentage, mean, projected_survival

#: Patient-level fields copied into combined records.
RECORD_FIELDS = (
    "patient_id",
    "patient_name",
    "date_of_birth",
    "nhs_number",
    "hospital",
    "mdt_id",
    "region",
    "site",
    "stage",
    "diagnosis_date",
    "treatments",
    "outcomes",
)


class DataAggregator(Unit):
    """Combines case events; computes MDT and regional metrics."""

    unit_name = "data_aggregator"

    def setup(self) -> None:
        self.subscribe("/patient_report", self.on_report, selector="type = 'cancer'")
        self.subscribe("/control/aggregate", self.on_aggregate_mdt)
        self.subscribe("/control/aggregate_region", self.on_aggregate_region)

    # -- record combination --------------------------------------------------

    def match_key(self, event: Event) -> str:
        """Identity of the case an event belongs to (overridden by the bug)."""
        return f"{event['hospital']}:{event['patient_id']}"

    def on_report(self, event: Event) -> None:
        key = f"record:{self.match_key(event)}"
        record: Dict[str, Any] = self.store.get(key, {"tumours": [], "sources": []})
        for field in RECORD_FIELDS:
            if field in event.attributes and not record.get(field):
                record[field] = event[field]
        record["tumours"].append(
            {
                "tumour_id": event.get("tumour_id", ""),
                "site": event.get("site", ""),
                "stage": event.get("stage", ""),
            }
        )
        # A case record lists every source report combined into it — in
        # correct operation all from the same patient; a matching bug makes
        # foreign patients appear here (and the record's labels say so).
        source = f"{event.get('patient_id', '')}={event.get('patient_name', '')}"
        if source not in record["sources"]:
            record["sources"].append(source)
        self.store.set(key, record)
        self._index_record(record.get("mdt_id", ""), key)
        attributes = {f: str(record.get(f, "")) for f in RECORD_FIELDS}
        attributes["record_key"] = key
        attributes["tumour_count"] = str(len(record["tumours"]))
        attributes["source_patients"] = ";".join(record["sources"])
        self.publish("/aggregated_record", attributes)

    def _index_record(self, mdt_id: str, key: str) -> None:
        index_key = f"mdt_index:{mdt_id}"
        index: List[str] = self.store.get(index_key, [])
        if key not in index:
            index.append(key)
            self.store.set(index_key, index)

    # -- metrics (F2) ------------------------------------------------------------

    def on_aggregate_mdt(self, event: Event) -> None:
        mdt_id = event["mdt_id"]
        records = self._records_of(mdt_id)
        completeness = completeness_percentage(records)
        survival = projected_survival(records)
        metric = {
            "mdt_id": mdt_id,
            "record_count": len(records),
            "completeness": completeness,
            "survival": survival,
        }
        self.store.set(f"metric:{mdt_id}", metric)
        self.publish(
            "/mdt_metric",
            {
                "mdt_id": mdt_id,
                "record_count": str(len(records)),
                "completeness": str(completeness),
                "survival": str(survival),
            },
        )

    def _records_of(self, mdt_id: str) -> List[Dict[str, Any]]:
        index: List[str] = self.store.get(f"mdt_index:{mdt_id}", [])
        return [record for key in index if (record := self.store.get(key)) is not None]

    # -- regional aggregation (F3) --------------------------------------------------

    def on_aggregate_region(self, event: Event) -> None:
        region = event["region"]
        mdt_ids = [m for m in event["mdt_ids"].split(",") if m]
        metrics = [
            metric
            for mdt_id in mdt_ids
            if (metric := self.store.get(f"metric:{mdt_id}")) is not None
        ]
        completeness = mean([m["completeness"] for m in metrics])
        survival = mean([m["survival"] for m in metrics])
        self.publish(
            "/region_metric",
            {
                "region": region,
                "mdt_count": str(len(metrics)),
                "completeness": str(completeness),
                "survival": str(survival),
            },
        )
