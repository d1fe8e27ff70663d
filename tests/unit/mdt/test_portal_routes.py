"""Unit tests for portal route edge cases not covered by the pipeline tests."""

import json

import pytest

from repro.mdt.deployment import MdtDeployment
from repro.mdt.labels import mdt_label
from repro.mdt.workload import WorkloadConfig
from repro.taint import json_codec, label, strip_labels
from repro.web.templates import Template

#: The front page as it was before its ``<tr>`` block moved into the
#: ``front-row`` partial: the loop inlined, every field escaped per request.
INLINED_FRONT_PAGE_SOURCE = """<!DOCTYPE html>
<html>
<head><title>MDT Portal</title></head>
<body>
<h1>MDT <%= mdt_id %> &mdash; <%= hospital %> (<%= clinic %>)</h1>
<h2>Data quality</h2>
<p>Records: <%= record_count %></p>
<p>Completeness: <%= completeness %>%</p>
<p>Projected survival: <%= survival %>%</p>
<h2>Patients</h2>
<table>
<tr><th>Name</th><th>Site</th><th>Stage</th><th>Tumours</th></tr>
<% for record in records %>
<tr>
<td><%= record.get("patient_name", "") %></td>
<td><%= record.get("site", "") %></td>
<td><%= record.get("stage", "") %></td>
<td><%= record.get("tumour_count", "") %></td>
</tr>
<% end %>
</table>
</body>
</html>
"""


@pytest.fixture(scope="module")
def deployment():
    deployment = MdtDeployment(
        WorkloadConfig(num_regions=1, mdts_per_region=2, patients_per_mdt=3, seed=47)
    )
    deployment.run_pipeline()
    return deployment


class TestRouteEdges:
    def test_unknown_mdt_in_records_is_403(self, deployment):
        # Unknown MDT fails the privilege check closed, not with a 404
        # that would reveal which MDT ids exist.
        result = deployment.client_for("mdt1").get("/records/999")
        assert result.status == 403

    def test_unknown_mdt_in_metrics_is_404(self, deployment):
        result = deployment.client_for("mdt1").get("/metrics/999")
        assert result.status == 404

    def test_unknown_region_metric_is_404(self, deployment):
        result = deployment.client_for("mdt1").get("/region/nowhere")
        assert result.status == 404

    def test_compare_unknown_mdt_is_404(self, deployment):
        result = deployment.client_for("mdt1").get("/compare/999")
        assert result.status == 404

    def test_empty_feedback_rejected(self, deployment):
        result = deployment.client_for("mdt1").post(
            "/feedback",
            headers={"Content-Type": "application/x-www-form-urlencoded"},
            body="message=",
        )
        assert result.status == 400

    def test_admin_route_rejects_non_admin(self, deployment):
        result = deployment.client_for("mdt1").post(
            "/admin/mdts",
            headers={"Content-Type": "application/x-www-form-urlencoded"},
            body="mdt_id=1&username=x&password=y",
        )
        assert result.status == 403

    def test_admin_route_validates_input(self, deployment):
        deployment.webdb.add_user("admin2", "pw", is_admin=True)
        client = deployment.anonymous_client()
        result = client.post(
            "/admin/mdts",
            headers={"Content-Type": "application/x-www-form-urlencoded"},
            body="mdt_id=999&username=x&password=y",
            auth=("admin2", "pw"),
        )
        assert result.status == 400
        result = client.post(
            "/admin/mdts",
            headers={"Content-Type": "application/x-www-form-urlencoded"},
            body="mdt_id=1&username=&password=y",
            auth=("admin2", "pw"),
        )
        assert result.status == 400

    def test_records_sorted_by_patient_id(self, deployment):
        result = deployment.client_for("mdt1").get("/records/1")
        records = json.loads(result.text)
        ids = [record["patient_id"] for record in records]
        assert ids == sorted(ids)

    def test_records_body_is_the_encode_per_request_body(self, deployment):
        """``/records/:mid`` joins per-revision fragments; the bytes are
        those ``json_codec.dumps`` of the sorted documents produced when
        the handler re-encoded them on every request."""
        for mdt_id in deployment.directory.mdt_ids():
            documents = [
                row.value
                for row in deployment.dmz_db.view(
                    "records/by_mid", key=str(mdt_id), include_docs=True
                )
            ]
            documents.sort(key=lambda record: str(record.get("patient_id", "")))
            result = deployment.client_for(f"mdt{mdt_id}").get(f"/records/{mdt_id}")
            assert result.status == 200
            assert len(documents) == 3
            assert result.text == str(strip_labels(json_codec.dumps(documents)))

    def test_front_page_body_is_the_inlined_loop_body(self, deployment):
        """``/`` joins per-revision row fragments; the bytes and labels
        are those of the page that escaped every field on every request."""
        inlined = Template(INLINED_FRONT_PAGE_SOURCE)
        for mdt_id in deployment.directory.mdt_ids():
            info = deployment.directory.find(mdt_id)
            metric = deployment.dmz_db.get(f"metric-mdt-{mdt_id}")
            rows = deployment.dmz_db.view("records/by_mid", key=str(mdt_id), include_docs=True)
            assert len(rows) == 3
            expected = inlined.render(
                mdt_id=mdt_id,
                hospital=info.hospital,
                clinic=info.clinic,
                record_count=metric["record_count"],
                completeness=metric["completeness"],
                survival=metric["survival"],
                records=[row.value for row in rows],
            )
            assert mdt_label(mdt_id) in expected.labels
            client = deployment.client_for(f"mdt{mdt_id}")
            for _ in range(2):  # rendered, then replayed from the revisions
                result = client.get("/")
                assert result.status == 200
                assert result.text == str(strip_labels(expected))

    def test_uncleared_principal_is_denied_the_front_page_through_the_fragment_path(
        self, deployment
    ):
        # An account on MDT 2 that was never granted MDT 2's label: the
        # handler runs and joins the row fragments, and the response
        # check — reading the fold they carry — is what refuses, on the
        # first render and on the replay of the memoised fragments.
        webdb, audit = deployment.webdb, deployment.audit
        info = deployment.directory.find("2")
        webdb.add_user("locum", "pw-locum", mdt="2", region=info.region)
        assert deployment.client_for("mdt2").get("/").status == 200
        for _ in range(2):
            denied = audit.count(component="frontend", operation="respond", decision="denied")
            result = deployment.anonymous_client().get("/", auth=("locum", "pw-locum"))
            assert result.status == 403
            assert "<td>" not in result.text
            assert (
                audit.count(component="frontend", operation="respond", decision="denied")
                == denied + 1
            )

    def test_uncleared_principal_is_denied_through_the_fragment_path(self, deployment):
        # Pass Listing 3's ACL for MDT 2 without holding its label: the
        # handler runs, joins the fragments, and the response check —
        # reading the fold the join carries — is what refuses.
        webdb, audit = deployment.webdb, deployment.audit
        info = deployment.directory.find("2")
        webdb.grant_acl(webdb.user_id("mdt1"), hospital=info.hospital, clinic=info.clinic)
        denied = audit.count(component="frontend", operation="respond", decision="denied")
        result = deployment.client_for("mdt1").get("/records/2")
        assert result.status == 403
        assert "patient_name" not in result.text
        assert (
            audit.count(component="frontend", operation="respond", decision="denied")
            == denied + 1
        )


def test_relabelled_revision_is_denied_although_its_body_is_unchanged():
    """The DMZ store materialises a document's labeled form once per
    revision. Re-writing a metric with the same values under a stricter
    label is a new revision: the page built from it must carry the new
    label, and a principal lacking it gets the labelled denial — not the
    page the previous revision's labels allowed."""
    deployment = MdtDeployment(
        WorkloadConfig(num_regions=1, mdts_per_region=2, patients_per_mdt=2, seed=53)
    )
    deployment.run_pipeline()
    client = deployment.client_for("mdt1")
    before = client.get("/metrics/1")
    assert before.status == 200  # ... and revision 1 is now materialised

    metric = deployment.app_db.get("metric-mdt-1")
    stricter = {
        key: value if key.startswith("_") else label(value, mdt_label("2"))
        for key, value in metric.items()
    }
    assert strip_labels(stricter) == strip_labels(metric)
    deployment.app_db.upsert(stricter)
    deployment.replicate()

    denied = deployment.audit.count(component="frontend", decision="denied")
    after = client.get("/metrics/1")
    assert after.status == 403
    assert "completeness" not in after.text
    assert deployment.audit.count(component="frontend", decision="denied") == denied + 1
    assert client.get("/").status == 403  # the front page reads the same metric


def test_relabelled_record_is_denied_although_its_row_markup_is_unchanged():
    """The front page replays row fragments kept on stored revisions.
    Re-writing one record with the same values under a stricter label is
    a new revision: its fragment is rendered again, the page carries the
    new label, and the principal that read the page a moment ago gets
    the labelled denial — not the bytes the old fragment would replay."""
    deployment = MdtDeployment(
        WorkloadConfig(num_regions=1, mdts_per_region=2, patients_per_mdt=2, seed=53)
    )
    deployment.run_pipeline()
    client = deployment.client_for("mdt1")
    before = client.get("/")
    assert before.status == 200  # ... and every row fragment is now memoised

    (row, _other) = deployment.app_db.view("records/by_mid", key="1", include_docs=True)
    stricter = {
        key: value if key.startswith("_") else label(value, mdt_label("2"))
        for key, value in row.value.items()
    }
    assert strip_labels(stricter) == strip_labels(row.value)
    deployment.app_db.upsert(stricter)
    deployment.replicate()

    denied = deployment.audit.count(component="frontend", decision="denied")
    after = client.get("/")
    assert after.status == 403
    assert "<td>" not in after.text
    assert deployment.audit.count(component="frontend", decision="denied") == denied + 1
    deployment.webdb.grant_label_privilege(
        deployment.webdb.user_id("mdt1"), "clearance", mdt_label("2").uri
    )
    assert deployment.client_for("mdt1").get("/").text == before.text
