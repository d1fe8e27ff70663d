"""The lock-order race detector: fixtures plus pins on the real tree."""

from pathlib import Path

from analysis.framework import ModuleSource, Project, analyze_source, load_project
from analysis.locks import LOCK_HIERARCHY, build_lock_graph

REPO_SRC = Path(__file__).resolve().parents[3] / "src"


def graph_of(source: str, rel: str = "snippet.py"):
    module = ModuleSource.parse(Path(rel), rel, source=source)
    return build_lock_graph(Project([module], Path(".")))


class TestGraphConstruction:
    def test_registers_instance_locks_and_conditions(self):
        graph = graph_of(
            "import threading\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "        self.cond = threading.Condition()\n"
        )
        assert graph.nodes["Store._lock"].kind == "rlock"
        assert graph.nodes["Store.cond"].kind == "condition"

    def test_registers_module_level_and_family_locks(self):
        graph = graph_of(
            "import threading\n"
            "_hook_lock = threading.Lock()\n"
            "class Router:\n"
            "    def lock_for(self, key):\n"
            "        self._locks[key] = threading.Lock()\n",
            rel="repro/events/jail.py",
        )
        assert "jail._hook_lock" in graph.nodes
        assert graph.nodes["Router._locks[*]"].is_family

    def test_nested_with_produces_an_edge(self):
        graph = graph_of(
            "import threading\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._outer = threading.Lock()\n"
            "        self._inner = threading.Lock()\n"
            "    def write(self):\n"
            "        with self._outer:\n"
            "            with self._inner:\n"
            "                pass\n"
        )
        assert ("Store._outer", "Store._inner") in graph.edges

    def test_call_summary_contributes_edges_one_level(self):
        graph = graph_of(
            "import threading\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._outer = threading.Lock()\n"
            "        self._inner = threading.Lock()\n"
            "    def write(self):\n"
            "        with self._outer:\n"
            "            self._bump()\n"
            "    def _bump(self):\n"
            "        with self._inner:\n"
            "            pass\n"
        )
        assert ("Store._outer", "Store._inner") in graph.edges

    def test_lock_returning_method_resolves_through_variables(self):
        graph = graph_of(
            "import threading\n"
            "class Router:\n"
            "    def __init__(self):\n"
            "        self._registry = threading.RLock()\n"
            "    def _unit_lock(self, key):\n"
            "        with self._registry:\n"
            "            lock = self._locks.get(key)\n"
            "            if lock is None:\n"
            "                lock = self._locks[key] = threading.Lock()\n"
            "            return lock\n"
            "    def wrapper(self, key):\n"
            "        unit_lock = self._unit_lock(key)\n"
            "        def deliver(event):\n"
            "            with unit_lock:\n"
            "                with self._registry:\n"
            "                    pass\n"
            "        return deliver\n"
        )
        assert ("Router._locks[*]", "Router._registry") in graph.edges


class TestCycleDetection:
    CYCLIC = (
        "import threading\n"
        "class Pair:\n"
        "    def __init__(self):\n"
        "        self._a = threading.Lock()\n"
        "        self._b = threading.Lock()\n"
        "    def forward(self):\n"
        "        with self._a:\n"
        "            with self._b:\n"
        "                pass\n"
        "    def backward(self):\n"
        "        with self._b:\n"
        "            with self._a:\n"
        "                pass\n"
    )

    def test_opposite_orders_form_a_cycle(self):
        graph = graph_of(self.CYCLIC)
        assert graph.cycles() == [["Pair._a", "Pair._b"]]

    def test_cycle_surfaces_as_a_lock_cycle_finding(self):
        findings = analyze_source(self.CYCLIC)
        assert [finding.rule for finding in findings] == ["lock-cycle"]

    def test_consistent_order_is_cycle_free(self):
        graph = graph_of(
            "import threading\n"
            "class Pair:\n"
            "    def __init__(self):\n"
            "        self._a = threading.Lock()\n"
            "        self._b = threading.Lock()\n"
            "    def forward(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n"
            "    def also_forward(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n"
        )
        assert graph.cycles() == []


class TestOrderViolations:
    def test_acquiring_coarser_under_finer_is_flagged(self):
        findings = analyze_source(
            "import threading\n"
            "class SequenceAllocator:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "class Database:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "        self._sequence = SequenceAllocator()\n"
            "    def backwards(self):\n"
            "        with self._sequence._lock:\n"
            "            with self._lock:\n"
            "                pass\n"
        )
        assert "lock-order" in [finding.rule for finding in findings]

    def test_hierarchy_order_is_fine(self):
        findings = analyze_source(
            "import threading\n"
            "class SequenceAllocator:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "class Database:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "        self._sequence = SequenceAllocator()\n"
            "    def forwards(self):\n"
            "        with self._lock:\n"
            "            with self._sequence._lock:\n"
            "                pass\n"
        )
        assert "lock-order" not in [finding.rule for finding in findings]


class TestRealTree:
    """The acceptance-criteria pins: the real graph exists and is clean."""

    def _graph(self):
        project = load_project([REPO_SRC / "repro"], root=REPO_SRC)
        return build_lock_graph(project)

    def test_graph_covers_the_concurrent_subsystems(self):
        nodes = set(self._graph().nodes)
        expected = {
            "Database._lock",
            "SequenceAllocator._lock",
            "Counters._counter_lock",
            "ClusterRouter._bridge_lock",
            "ClusterRouter._dlq_lock",
            "ClusterRouter._unit_locks[*]",
            "Broker._lock",
            "_Connection._unacked_lock",
        }
        assert expected <= nodes

    def test_the_tree_is_cycle_free(self):
        assert self._graph().cycles() == []

    def test_no_hierarchy_inversions(self):
        assert self._graph().order_violations() == []

    def test_every_hierarchy_lock_is_a_real_node(self):
        nodes = set(self._graph().nodes)
        for group in LOCK_HIERARCHY.values():
            for name in group:
                assert name in nodes, name

    def test_dot_rendering_mentions_every_edge(self):
        graph = self._graph()
        dot = graph.to_dot()
        assert dot.startswith("digraph locks {")
        for src, dst in graph.edges:
            assert f'"{src}" -> "{dst}"' in dot
