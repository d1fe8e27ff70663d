"""Unit tests for the consistent-hash ring."""

import subprocess
import sys

import pytest

from repro.events.ring import HashRing, stable_hash
from repro.exceptions import SafeWebError


class TestStableHash:
    def test_deterministic_within_process(self):
        assert stable_hash("/topic/a") == stable_hash("/topic/a")

    def test_deterministic_across_processes(self):
        """The property Python's salted hash() lacks — and the reason the
        ring must not use it: every cluster process must agree on topic
        ownership without coordinating."""
        script = "from repro.events.ring import stable_hash; print(stable_hash('/patient_report'))"
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
            ).stdout.strip()
            for seed in ("0", "42")
        }
        assert outputs == {str(stable_hash("/patient_report"))}


class TestHashRing:
    def test_empty_ring_rejects_lookup(self):
        with pytest.raises(SafeWebError):
            HashRing().node_for("/t")

    def test_single_node_owns_everything(self):
        ring = HashRing(["shard-0"])
        assert ring.node_for("/a") == "shard-0"
        assert ring.node_for("/b") == "shard-0"

    def test_duplicate_node_rejected(self):
        ring = HashRing(["shard-0"])
        with pytest.raises(SafeWebError):
            ring.add_node("shard-0")

    def test_membership(self):
        ring = HashRing(["shard-1", "shard-0"])
        assert ring.nodes == ["shard-0", "shard-1"]
        assert len(ring) == 2
        assert "shard-1" in ring
        assert "shard-9" not in ring

    def test_vnodes_must_be_positive(self):
        with pytest.raises(SafeWebError):
            HashRing(["shard-0"], vnodes=0)

    def test_added_node_takes_keys_only_for_itself(self):
        """Growing the ring moves a key only onto the new node."""
        ring = HashRing([f"shard-{i}" for i in range(3)])
        keys = [f"/topic/{i}" for i in range(200)]
        before = {key: ring.node_for(key) for key in keys}
        ring.add_node("shard-3")
        moved = [key for key in keys if ring.node_for(key) != before[key]]
        assert moved
        assert all(ring.node_for(key) == "shard-3" for key in moved)

    def test_lookup_stable_under_unrelated_removal(self):
        """A ring without a node moves only the keys that node owned."""
        ring = HashRing([f"shard-{i}" for i in range(4)])
        without = HashRing([f"shard-{i}" for i in range(3)])
        for key in (f"/topic/{i}" for i in range(200)):
            owner = ring.node_for(key)
            if owner != "shard-3":
                assert without.node_for(key) == owner

    def test_partition_covers_all_nodes_and_keys(self):
        ring = HashRing([f"shard-{i}" for i in range(3)])
        keys = [f"/topic/{i}" for i in range(300)]
        buckets = ring.partition(keys)
        assert set(buckets) == {"shard-0", "shard-1", "shard-2"}
        assert sorted(key for bucket in buckets.values() for key in bucket) == sorted(keys)

    def test_distribution_is_roughly_balanced(self):
        ring = HashRing([f"shard-{i}" for i in range(4)], vnodes=128)
        buckets = ring.partition([f"/topic/{i}" for i in range(2000)])
        sizes = sorted(len(bucket) for bucket in buckets.values())
        assert sizes[0] > 0
        assert sizes[-1] < 2000 * 0.6  # no shard owns a supermajority

    def test_preference_head_is_owner_and_nodes_distinct(self):
        ring = HashRing([f"shard-{i}" for i in range(4)])
        preference = ring.preference("/topic/x", count=3)
        assert preference[0] == ring.node_for("/topic/x")
        assert len(preference) == len(set(preference)) == 3

    def test_preference_predicts_failover(self):
        ring = HashRing([f"shard-{i}" for i in range(4)])
        first, second = ring.preference("/topic/x", count=2)
        survivors = HashRing([node for node in ring.nodes if node != first])
        assert survivors.node_for("/topic/x") == second
