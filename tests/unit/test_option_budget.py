"""Option ratchet: each constructor's (or store query method's) keyword
count may only go down.

Every keyword is a configuration the tests and the benchmark must
cover. Lowering a budget is routine; raising one is a reviewed edit.
"""

import inspect

import pytest

from analysis.framework import analyze, load_project
from repro.core.audit import AuditLog
from repro.events.broker import Broker
from repro.events.cluster import ClusterEngine, ClusterRouter
from repro.events.engine import EventProcessingEngine
from repro.events.stomp.bridge import StompBrokerBridge
from repro.events.stomp.client import StompClient
from repro.events.supervision import SupervisionPolicy
from repro.mdt.deployment import MdtDeployment
from repro.mdt.federation import federate
from repro.mdt.portal import build_portal
from repro.storage.recovery import CheckpointStore, open_durable_database
from repro.storage.docstore import Database, ShardedDatabase
from repro.storage.replication import Replicator
from repro.storage.wal import ShardDurability, WalWriter
from repro.web.http import HttpServer
from repro.web.pagecache import PageCache
from repro.web.framework import SafeWebApp
from repro.web.sessions import SessionMiddleware
from tests.security.corpus.vulnerabilities import Vulnerability

BUDGET = {
    MdtDeployment: 17,
    build_portal: 10,
    SessionMiddleware: 5,
    HttpServer: 5,
    PageCache: 0,
    federate: 3,
    EventProcessingEngine: 7,
    Broker: 4,
    AuditLog: 2,
    StompBrokerBridge: 6,
    StompClient: 5,
    ClusterEngine: 6,
    ClusterRouter: 2,
    SupervisionPolicy: 4,
    Vulnerability: 12,  # a dataclass: its signature is its fields
    open_durable_database: 7,
    ShardDurability: 4,
    WalWriter: 4,
    Replicator: 4,
    Database.view: 5,  # self, name, key, include_docs, clearance
    ShardedDatabase.view: 5,
    Database.define_view: 3,  # self, name, map_function
    CheckpointStore: 2,
    SafeWebApp: 1,
    load_project: 2,
    analyze: 4,
}


@pytest.mark.parametrize("target", BUDGET, ids=lambda target: target.__qualname__)
def test_keyword_count_within_budget(target):
    assert len(inspect.signature(target).parameters) <= BUDGET[target]
