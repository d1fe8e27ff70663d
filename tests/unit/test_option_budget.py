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
from repro.mdt.portal import build_portal

BUDGET = {
    MdtDeployment: 20,
    build_portal: 12,
    EventProcessingEngine: 10,
    Broker: 6,
    AuditLog: 2,
    StompBrokerBridge: 11,
    ClusterEngine: 9,
    ClusterRouter: 4,
    LaneScheduler: 8,
    SupervisionPolicy: 7,
}


@pytest.mark.parametrize("target", BUDGET, ids=lambda target: target.__name__)
def test_keyword_count_within_budget(target):
    assert len(inspect.signature(target).parameters) <= BUDGET[target]
