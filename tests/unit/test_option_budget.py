"""Option ratchet: each constructor's keyword count may only go down.

Every keyword is a configuration the tests and the benchmark must
cover. Lowering a budget is routine; raising one is a reviewed edit.
"""

import inspect

import pytest

from repro.core.audit import AuditLog
from repro.events.broker import Broker
from repro.events.cluster import ClusterEngine, ClusterRouter
from repro.events.engine import EventProcessingEngine
from repro.events.lanes import LaneScheduler
from repro.events.stomp.bridge import StompBrokerBridge
from repro.events.supervision import SupervisionPolicy
from repro.mdt.deployment import MdtDeployment
from repro.mdt.federation import federate
from repro.mdt.portal import build_portal
from repro.mdt.vulnerabilities import Vulnerability
from repro.storage.recovery import CheckpointStore, open_durable_database
from repro.storage.replication import ContinuousReplicator, Replicator
from repro.storage.wal import ShardDurability, WalWriter
from repro.web.http import HttpServer
from repro.web.pagecache import PageCache
from repro.web.sessions import SessionMiddleware

BUDGET = {
    MdtDeployment: 18,
    build_portal: 10,
    SessionMiddleware: 5,
    HttpServer: 8,
    PageCache: 1,
    federate: 3,
    EventProcessingEngine: 10,
    Broker: 6,
    AuditLog: 2,
    StompBrokerBridge: 11,
    ClusterEngine: 6,
    ClusterRouter: 3,
    LaneScheduler: 8,
    SupervisionPolicy: 7,
    Vulnerability: 12,  # a dataclass: its signature is its fields
    open_durable_database: 7,
    ShardDurability: 4,
    WalWriter: 4,
    Replicator: 4,
    ContinuousReplicator: 7,
    CheckpointStore: 2,
}


@pytest.mark.parametrize("target", BUDGET, ids=lambda target: target.__name__)
def test_keyword_count_within_budget(target):
    assert len(inspect.signature(target).parameters) <= BUDGET[target]
