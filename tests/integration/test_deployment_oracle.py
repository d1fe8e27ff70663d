"""Integration: every deployment profile serves what the default one does.

The deployment layer of the equivalence oracle (docs/ENGINE.md
"Equivalence oracle"). :func:`deployment_trace` records what principals
and operators can observe after one pipeline pass: ``app_db`` and
``dmz_db`` leaf by leaf with labels (``_rev``, a hash of write history,
left out), the DMZ's plain view rows, the audit decisions of the
pipeline and of a fixed HTTP script, and each script step's status, body
and response labels. Each profile in :data:`PROFILES` — a point or a
cross of the deployment axes — must produce the default deployment's,
``MdtDeployment(generate_workload(CONFIG))``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.mdt import MdtDeployment, generate_workload, mdt_label
from repro.taint import labels_of, strip_labels
from repro.web.sessions import CSRF_HEADER, SESSION_COOKIE, parse_cookies
from tests.property.oracle import (
    CLUSTER_MATRIX,
    CONFIG,
    ENGINE_MATRIX,
    INFRA_COMPONENTS,
    STORE_MATRIX,
    WEB_MATRIX,
    assert_equivalent,
    audit_tuple,
    diff_after,
)

VIEWS = ("records/by_mid",)
FORM = {"Content-Type": "application/x-www-form-urlencoded"}
MDT_1 = mdt_label("1").uri
MDT_2 = mdt_label("2").uri


def uris(value) -> tuple:
    return tuple(labels_of(value).to_uris())


def leaf(value) -> tuple:
    return strip_labels(value), uris(value)


def leaves(value, path=""):
    """``(path, (plain value, label uris))`` for every leaf of *value*."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}/{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from leaves(item, f"{path}[{index}]")
    else:
        yield path, leaf(value)


def documents(database) -> dict:
    trace = {}
    for doc_id in sorted(database.all_doc_ids()):
        document = database.get(doc_id)
        document.pop("_rev", None)
        trace[doc_id] = dict(leaves(document))
    return trace


#: In a cluster deployment the aggregator's inputs and outputs cross two
#: brokers: a case report the producer publishes here is forwarded into a
#: shard, and a metric the aggregator publishes there is tapped back here,
#: and each broker checks and audits the flow. The second check is the
#: bridge leg — ``(operation, principal)`` of the broker decisions each
#: side makes only because of the bridge; the trace leaves them out.
PARENT_LEGS = {("deliver", "data_aggregator"), ("publish", "data_aggregator")}
SHARD_LEGS = {("publish", "data_producer"), ("deliver", "data_storage")}


def without_legs(records: Counter, legs) -> Counter:
    return Counter(
        {
            record: count
            for record, count in records.items()
            if not (record[0] == "broker" and record[1:3] in legs)
        }
    )


def audit_multiset(deployment) -> Counter:
    """Enforcement decisions, infrastructure components and (in a
    cluster deployment) bridge legs left out."""
    if deployment.cluster is None:
        return Counter(
            audit_tuple(record)
            for record in deployment.audit.records()
            if record.component not in INFRA_COMPONENTS
        )
    shards = Counter()
    for handle in deployment.cluster._shards.values():
        shards.update(
            tuple(record)
            for record in handle.call({"op": "audit"})["records"]
            if record[0] not in INFRA_COMPONENTS
        )
    local = Counter(deployment.cluster.collect_audit()) - shards
    return without_legs(local, PARENT_LEGS) + without_legs(shards, SHARD_LEGS)


def http_script(deployment) -> list:
    """Run the fixed HTTP script; ``(step, status, body, label uris)`` each."""
    steps = []

    def step(name, result, body=True):
        steps.append(
            (name, result.status, result.text if body else None, uris(result.response.body))
        )

    mdt1 = deployment.client_for("mdt1")
    mdt3 = deployment.client_for("mdt3")
    anonymous = deployment.anonymous_client()
    step("front-page", mdt1.get("/"))
    step("own-records", mdt1.get("/records/1"))
    step("other-mdt-records", mdt1.get("/records/3"))
    step("region-metrics", mdt1.get("/region/region-1"))
    step("region-metrics-other-region", mdt3.get("/region/region-1"))
    step("compare", mdt1.get("/compare/1"))
    step("unauthenticated", anonymous.get("/records/1"))
    login = anonymous.post(
        "/login",
        headers=FORM,
        body=f"username=mdt2&password={deployment.password_of('mdt2')}",
    )
    step("login", login, body=False)  # the body is the session's CSRF token
    token = parse_cookies(login.headers["Set-Cookie"])[SESSION_COOKIE]
    cookie = {"Cookie": f"{SESSION_COOKIE}={token}"}
    step("session-front-page", anonymous.get("/", headers=cookie))
    step("session-records", anonymous.get("/records/2", headers=cookie))
    step(
        "session-post-without-csrf",
        anonymous.post("/feedback", headers=dict(cookie, **FORM), body="message=hi"),
    )
    step(
        "session-post",
        anonymous.post(
            "/feedback",
            headers=dict(cookie, **FORM, **{CSRF_HEADER: login.text}),
            body="message=hi",
        ),
    )
    step("own-records-again", mdt1.get("/records/1"))
    webdb = deployment.webdb
    webdb.revoke_label_privilege(webdb.user_id("mdt1"), "clearance", MDT_1)
    webdb.revoke_label_privilege(webdb.user_id("mdt2"), "clearance", MDT_2)
    step("revoked-records", mdt1.get("/records/1"))
    step("revoked-front-page", mdt1.get("/"))
    step("revoked-session-records", anonymous.get("/records/2", headers=cookie))
    return steps


def deployment_trace(deployment, pipeline_audit=None) -> dict:
    """The observable trace of *deployment* after its pipeline pass.

    Runs the HTTP script, which revokes privileges: the deployment is
    spent afterwards. *pipeline_audit* stands in for the deployment's
    own when the pipeline ran in an earlier incarnation (a reopened
    durable deployment).
    """
    before = audit_multiset(deployment)
    trace = {
        "app_db": documents(deployment.app_db),
        "dmz_db": documents(deployment.dmz_db),
        "views": {
            view: [
                (row.doc_id, *leaf(row.key), *leaf(row.value))
                for row in deployment.dmz_db.view(view)
            ]
            for view in VIEWS
        },
        "pipeline_audit": before if pipeline_audit is None else pipeline_audit,
        "http": http_script(deployment),
    }
    trace["http_audit"] = audit_multiset(deployment) - before
    return trace


#: Profile → ``MdtDeployment`` keywords. ``data_dir=True`` stands for a
#: fresh directory; ``reopen`` closes the deployment after its pipeline
#: pass and traces a second one opened on the same directory.
PROFILES = {
    "sharded": dict(STORE_MATRIX["sharded"]),
    "cached-web": dict(WEB_MATRIX["cached"]),
    # Supervision arms the storage unit's breaker too.
    "supervised": dict(ENGINE_MATRIX["supervised"]),
    "cluster": dict(CLUSTER_MATRIX["cluster"]),
    "durable": {"data_dir": True},
    "durable-fsync-1": {"data_dir": True, "fsync_batch": 1},
    "durable-fsync-1-reopened": {"data_dir": True, "fsync_batch": 1, "reopen": True},
    # Crosses no single axis reaches.
    "cached-web+cluster": dict(WEB_MATRIX["cached"], **CLUSTER_MATRIX["cluster"]),
    "supervised+cluster": dict(ENGINE_MATRIX["supervised"], **CLUSTER_MATRIX["cluster"]),
    "sharded+durable": dict(STORE_MATRIX["sharded"], data_dir=True),
}


def profile_trace(profile: str, directory) -> dict:
    kwargs = dict(PROFILES[profile])
    reopen = kwargs.pop("reopen", False)
    if kwargs.get("data_dir"):
        kwargs["data_dir"] = str(directory)
    deployment = MdtDeployment(generate_workload(CONFIG), **kwargs)
    try:
        deployment.run_pipeline()
        if not reopen:
            return deployment_trace(deployment)
        pipeline_audit = audit_multiset(deployment)
        deployment.close()
        deployment = MdtDeployment(generate_workload(CONFIG), **kwargs)
        return deployment_trace(deployment, pipeline_audit)
    finally:
        deployment.close()


@pytest.fixture(scope="module")
def reference() -> dict:
    deployment = MdtDeployment(generate_workload(CONFIG))
    deployment.run_pipeline()
    return deployment_trace(deployment)


@pytest.mark.parametrize("profile", PROFILES)
def test_profile_matches_default_deployment(profile, reference, tmp_path):
    assert_equivalent(reference, profile_trace(profile, tmp_path))


def http_step(trace, name):
    (found,) = [step for step in trace["http"] if step[0] == name]
    return found


class TestPinnedObservables:
    """The security-relevant observables against literal label sets, so
    the reference itself cannot drift unnoticed."""

    def test_own_records_carry_exactly_the_mdt_label(self, reference):
        assert http_step(reference, "own-records")[1::2] == (200, (MDT_1,))
        assert http_step(reference, "own-records-again")[1::2] == (200, (MDT_1,))

    def test_dmz_leaves_keep_their_labels(self, reference):
        record = reference["dmz_db"]["record-record-hospital-1-p00001"]
        assert record["/patient_name"][1] == (MDT_1,)
        assert record["/mid"][1] == ()
        metric = reference["dmz_db"]["metric-mdt-1"]
        assert metric["/completeness"][1] == ("label:conf:ecric.org.uk/mdt_agg/1",)

    def test_revoked_users_are_denied_and_audited(self, reference):
        for name in ("revoked-records", "revoked-front-page", "revoked-session-records"):
            status, labels = http_step(reference, name)[1::2]
            assert (status, labels) == (403, ())
        audit = reference["http_audit"]
        assert audit[("frontend", "respond", "mdt1", "denied", (MDT_1,))] == 2
        assert audit[("frontend", "respond", "mdt2", "denied", (MDT_2,))] == 1


class TestComparatorSelfTests:
    """Edits to the real reference trace that the comparator must flag."""

    def test_stripped_leaf_label(self, reference):
        def edit(trace):
            value, labels = trace["dmz_db"]["metric-mdt-1"]["/completeness"]
            assert labels
            trace["dmz_db"]["metric-mdt-1"]["/completeness"] = (value, ())

        assert diff_after(reference, edit) == [
            "/dmz_db/metric-mdt-1//completeness[1]: expected "
            "('label:conf:ecric.org.uk/mdt_agg/1',), got ()"
        ]

    def test_dropped_audit_denial(self, reference):
        key = ("frontend", "respond", "mdt1", "denied", (MDT_1,))

        def edit(trace):
            trace["http_audit"][key] -= 1

        assert diff_after(reference, edit) == [f"/http_audit/{key!r}: expected 2, got 1"]

    def test_changed_response_label_set(self, reference):
        def edit(trace):
            index = trace["http"].index(http_step(trace, "own-records"))
            name, status, body, _labels = trace["http"][index]
            trace["http"][index] = (name, status, body, (MDT_1, MDT_2))

        (flagged,) = diff_after(reference, edit)
        assert flagged.startswith("/http[1][3]: expected")
