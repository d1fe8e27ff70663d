"""Unit tests for the cluster's placement: rendezvous hashing over a
process-stable hash."""

import subprocess
import sys

import pytest

from repro.events.cluster import ClusterRouter, ranking, stable_hash
from repro.exceptions import SafeWebError

FOUR = [f"shard-{i}" for i in range(4)]
KEYS = [f"/topic/{i}" for i in range(2000)]


def owner(nodes, key):
    return ranking(nodes, key)[0]


class TestStableHash:
    def test_deterministic_within_process(self):
        assert stable_hash("/topic/a") == stable_hash("/topic/a")

    def test_deterministic_across_processes(self):
        """The property Python's salted hash() lacks — and the reason
        placement must not use it: every cluster process must agree on
        topic ownership without coordinating."""
        script = (
            "from repro.events.cluster import stable_hash; print(stable_hash('/patient_report'))"
        )
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


class TestRanking:
    def test_single_node_owns_everything(self):
        assert {owner(["shard-0"], key) for key in KEYS[:50]} == {"shard-0"}

    def test_ranking_is_a_permutation_of_the_nodes(self):
        for key in KEYS[:50]:
            assert sorted(ranking(FOUR, key)) == FOUR

    def test_ranking_ignores_the_order_nodes_are_given_in(self):
        for key in KEYS[:50]:
            assert ranking(FOUR, key) == ranking(reversed(FOUR), key)

    def test_added_node_takes_keys_only_for_itself(self):
        """Growing the node set moves a key only onto the new node."""
        three = FOUR[:3]
        before = {key: owner(three, key) for key in KEYS}
        moved = [key for key in KEYS if owner(FOUR, key) != before[key]]
        assert moved
        assert all(owner(FOUR, key) == "shard-3" for key in moved)

    def test_removed_node_moves_only_its_keys_onto_their_second_choice(self):
        """Without a key's head, its second-ranked node owns it; no
        other key moves."""
        for gone in FOUR:
            survivors = [node for node in FOUR if node != gone]
            for key in KEYS:
                head, second = ranking(FOUR, key)[:2]
                assert owner(survivors, key) == (second if head == gone else head)

    def test_distribution_is_roughly_balanced(self):
        counts = {node: 0 for node in FOUR}
        for key in KEYS:
            counts[owner(FOUR, key)] += 1
        assert min(counts.values()) > 0
        assert max(counts.values()) < len(KEYS) * 0.6  # no node owns a supermajority


class TestRouterPlacement:
    def test_router_needs_a_shard(self):
        with pytest.raises(SafeWebError):
            ClusterRouter({})

    def test_topic_lands_on_the_head_of_its_ranking(self):
        router = ClusterRouter({node: ("127.0.0.1", 0) for node in FOUR})
        for key in KEYS[:200]:
            assert router._shards_for_subscription(key) == [owner(FOUR, key)]

    def test_patterns_and_dead_letters_register_on_every_shard(self):
        router = ClusterRouter({node: ("127.0.0.1", 0) for node in FOUR})
        for topic in ("/a/*", "/a/#", "/_dlq.unit"):
            assert router._shards_for_subscription(topic) == FOUR
