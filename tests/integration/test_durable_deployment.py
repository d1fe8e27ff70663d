"""Integration: the MDT deployment with a data directory survives a
restart — application databases recover from their WALs/snapshots, the
web database reopens its SQLite file, replication resumes from the
persisted checkpoints, and the portal serves the same pages."""

import os

import pytest

from repro.mdt.deployment import MdtDeployment
from repro.mdt.workload import WorkloadConfig, generate_workload
from repro.web.sessions import CSRF_HEADER

CONFIG = WorkloadConfig(num_regions=1, mdts_per_region=2, patients_per_mdt=3)


@pytest.fixture()
def data_dir(tmp_path):
    return str(tmp_path / "deployment")


def test_deployment_restart_recovers_everything(data_dir):
    first = MdtDeployment(generate_workload(CONFIG), data_dir=data_dir, shards=2)
    first.run_pipeline()
    app_count = len(first.app_db)
    dmz_count = len(first.dmz_db)
    assert app_count > 0 and dmz_count == app_count
    checkpoints = first.replicator.shard_checkpoints
    username = sorted(first.workload.user_passwords)[0]
    page = first.client_for(username).get("/").text
    first.close()

    second = MdtDeployment(generate_workload(CONFIG), data_dir=data_dir, shards=2)
    try:
        assert len(second.app_db) == app_count
        assert len(second.dmz_db) == dmz_count
        # Checkpoints resumed: a fresh pass finds nothing to ship.
        result = second.replicator.replicate()
        assert result.docs_written == 0 and result.deletions == 0
        assert second.replicator.shard_checkpoints == checkpoints
        # The seeded workload regenerates identical credentials, the
        # reopened SQLite file already holds the accounts (no double
        # provisioning), and the portal serves the same page.
        assert second.webdb.has_users()
        assert second.client_for(username).get("/").text == page
    finally:
        second.close()


def test_sessions_survive_a_restart(data_dir):
    """Users, the CSRF key and the sessions all live in ``web.sqlite``: a
    cookie issued before the restart still resolves, and the CSRF token
    minted with it still validates."""
    form = {"Content-Type": "application/x-www-form-urlencoded"}
    first = MdtDeployment(generate_workload(CONFIG), data_dir=data_dir)
    first.run_pipeline()
    username = sorted(first.workload.user_passwords)[0]
    login = first.anonymous_client().post(
        "/login",
        headers=form,
        body=f"username={username}&password={first.password_of(username)}",
    )
    assert login.status == 201
    cookie = {"Cookie": login.headers["Set-Cookie"].split(";")[0]}
    first.close()

    second = MdtDeployment(generate_workload(CONFIG), data_dir=data_dir)
    try:
        client = second.anonymous_client()
        assert client.get("/", headers=cookie).status == 200
        assert second.audit.count(component="frontend", operation="session") == 1
        posted = client.post("/feedback", headers={**cookie, **form}, body="message=hi")
        assert posted.status == 403  # the cookie alone is still not enough
        posted = client.post(
            "/feedback",
            headers={**cookie, **form, CSRF_HEADER: login.text},
            body="message=hi",
        )
        assert posted.status == 202
    finally:
        second.close()


def test_unclean_shutdown_is_a_recoverable_crash(data_dir):
    first = MdtDeployment(generate_workload(CONFIG), data_dir=data_dir, shards=2)
    first.run_pipeline()
    app_count = len(first.app_db)
    # No close(): the process "crashes". Batched replication fsyncs at
    # every batch boundary, so the pipeline's writes are durable.
    del first

    second = MdtDeployment(generate_workload(CONFIG), data_dir=data_dir, shards=2)
    try:
        assert len(second.dmz_db) == app_count
        username = sorted(second.workload.user_passwords)[0]
        assert second.client_for(username).get("/").status == 200
    finally:
        second.close()


def test_in_memory_deployment_is_unchanged(tmp_path):
    deployment = MdtDeployment(generate_workload(CONFIG))
    assert deployment.data_dir is None
    deployment.run_pipeline()
    assert len(deployment.dmz_db) == len(deployment.app_db)
    deployment.close()  # no-op, but callable uniformly
    assert not any(os.scandir(tmp_path))
