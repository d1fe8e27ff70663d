"""Pass 3 — the lock-order race detector.

Builds a static **lock-acquisition graph** over every ``threading.Lock``
/ ``RLock`` / ``Condition`` the tree creates: nodes are canonical lock
names (``Class.attr``, ``module.NAME`` for module-level locks, and
``Class.attr[*]`` for per-key lock dictionaries like the cluster
router's per-principal locks); an edge ``A → B`` means some code path
acquires ``B`` while holding ``A``.

Acquisitions are recognised from ``with`` statements (the tree's only
idiom) plus a **one-level call summary**: a call made under a held lock
contributes edges to every lock the callee acquires directly. Callees
resolve through ``self.method``, module-level functions, and a light
field/variable type inference (``self._sequence = SequenceAllocator()``
resolves ``self._sequence.reserve``; ``lock = self._unit_lock(p)``
resolves through the method's lock-return summary). Calls that cannot be resolved —
opaque unit callbacks in particular — contribute nothing, which is
deliberate: the jail, not the lock graph, is the contract at that
boundary.

Two rules come out of the graph:

* ``lock-cycle`` — a strongly-connected component: two paths take the
  same locks in opposite orders and can deadlock;
* ``lock-order`` — an edge that inverts :data:`LOCK_HIERARCHY`, the
  configured coarse→fine order for each concurrent subsystem.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.astutil import dotted_name
from repro.analysis.findings import Finding, RULES
from repro.analysis.framework import ModuleSource, Project

#: The sanctioned coarse→fine acquisition order per subsystem (rank 0 is
#: the coarsest — the lock legitimately held the longest / taken first).
#: An edge from a higher rank to a lower rank in the same group is a
#: ``lock-order`` finding.
LOCK_HIERARCHY: Dict[str, Dict[str, int]] = {
    "storage": {
        "Database._lock": 0,
        "SequenceAllocator._lock": 1,
    },
    "cluster": {
        "ClusterRouter._unit_locks[*]": 0,
        "ClusterRouter._bridge_lock": 1,
        "ClusterRouter._dlq_lock": 2,
    },
}

_LOCK_FACTORIES = {
    "threading.Lock": "lock",
    "threading.RLock": "rlock",
    "threading.Condition": "condition",
    "Lock": "lock",
    "RLock": "rlock",
    "Condition": "condition",
}


#: Method names shared with builtin containers / threading primitives —
#: excluded from the unique-method callee fallback (a ``deque.append``
#: must never resolve to a project class that also defines ``append``).
_BUILTIN_METHODS = (
    frozenset(dir(list))
    | frozenset(dir(dict))
    | frozenset(dir(set))
    | frozenset(dir(str))
    | frozenset(dir(bytes))
    | frozenset(
        {
            "popleft",
            "appendleft",
            "put",
            "get_nowait",
            "put_nowait",
            "qsize",
            "task_done",
            "wait",
            "wait_for",
            "notify",
            "notify_all",
            "acquire",
            "release",
            "locked",
            "start",
            "run",
            "is_alive",
            "cancel",
            "close",
            "flush",
            "write",
            "read",
            "readline",
        }
    )
)


def _lock_kind(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Call):
        return _LOCK_FACTORIES.get(dotted_name(node.func) or "")
    return None


def _annotation_class(annotation: Optional[ast.expr]) -> Optional[str]:
    """The class named by a simple annotation (Name, Attribute tail)."""
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.strip().split(".")[-1] or None
    return None


def _constructed_class(value: ast.expr) -> Optional[str]:
    """The class constructed by *value* (``C(...)``, either IfExp branch)."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id
    if isinstance(value, ast.IfExp):
        return _constructed_class(value.body) or _constructed_class(value.orelse)
    return None


@dataclass(frozen=True)
class LockNode:
    """One canonical lock in the graph."""

    name: str  #: ``Class.attr`` / ``module.NAME`` / ``Class.attr[*]``
    kind: str  #: lock / rlock / condition
    path: str  #: module that creates it
    line: int

    @property
    def is_family(self) -> bool:
        return self.name.endswith("[*]")


@dataclass(frozen=True)
class Site:
    path: str
    line: int
    function: str


@dataclass
class LockGraph:
    """Nodes, ordered edges and the analyses the rules run over them."""

    nodes: Dict[str, LockNode] = field(default_factory=dict)
    edges: Dict[Tuple[str, str], List[Site]] = field(default_factory=dict)

    def add_edge(self, held: str, acquired: str, site: Site) -> None:
        if held == acquired:
            # Re-entry on the same lock is the RLock rule's business (the
            # runtime's), not an ordering fact.
            return
        self.edges.setdefault((held, acquired), []).append(site)

    def successors(self, name: str) -> Set[str]:
        return {dst for (src, dst) in self.edges if src == name}

    def cycles(self) -> List[List[str]]:
        """Strongly-connected components of size > 1 (plus self-loops)."""
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]
        components: List[List[str]] = []

        def strongconnect(v: str) -> None:
            index[v] = lowlink[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            for w in self.successors(v):
                if w not in index:
                    strongconnect(w)
                    lowlink[v] = min(lowlink[v], lowlink[w])
                elif w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if lowlink[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                if len(component) > 1:
                    components.append(sorted(component))

        for name in sorted(set(self.nodes) | {n for e in self.edges for n in e}):
            if name not in index:
                strongconnect(name)
        return components

    def order_violations(
        self, hierarchy: Mapping[str, Mapping[str, int]] = LOCK_HIERARCHY
    ) -> List[Tuple[str, Tuple[str, str], List[Site]]]:
        """Edges that go finer → coarser within one hierarchy group."""
        violations = []
        for group, ranks in hierarchy.items():
            for (src, dst), sites in sorted(self.edges.items()):
                if src in ranks and dst in ranks and ranks[src] > ranks[dst]:
                    violations.append((group, (src, dst), sites))
        return violations

    def to_dot(self) -> str:
        """GraphViz rendering (``scripts/analyze.py --lock-graph``)."""
        lines = ["digraph locks {"]
        for name in sorted(self.nodes):
            lines.append(f'  "{name}" [shape=box];')
        for (src, dst), sites in sorted(self.edges.items()):
            site = sites[0]
            lines.append(
                f'  "{src}" -> "{dst}" [label="{site.path}:{site.line}"];'
            )
        lines.append("}")
        return "\n".join(lines)


# -- registry: find every lock the tree creates ----------------------------------


@dataclass
class _ClassInfo:
    name: str
    locks: Dict[str, LockNode] = field(default_factory=dict)  #: attr → node
    families: Dict[str, LockNode] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)  #: attr → class
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)


@dataclass
class _Registry:
    classes: Dict[str, _ClassInfo] = field(default_factory=dict)
    module_locks: Dict[Tuple[str, str], LockNode] = field(default_factory=dict)
    #: attr name → owning classes (for resolving foreign ``obj._lock``)
    attr_owners: Dict[str, List[str]] = field(default_factory=dict)
    #: method name → defining classes (for unique-method callee fallback)
    method_owners: Dict[str, List[str]] = field(default_factory=dict)

    def unique_owner(self, attr: str) -> Optional[_ClassInfo]:
        owners = self.attr_owners.get(attr, [])
        if len(owners) == 1:
            return self.classes[owners[0]]
        return None

    def unique_method_owner(self, method: str) -> Optional[_ClassInfo]:
        if method in _BUILTIN_METHODS:
            # list.append / dict.get / Condition.wait … would resolve to
            # whatever project class happens to share the name.
            return None
        owners = self.method_owners.get(method, [])
        if len(owners) == 1:
            return self.classes[owners[0]]
        return None


def _build_registry(project: Project) -> _Registry:
    registry = _Registry()
    for module in project.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                info = registry.classes.setdefault(node.name, _ClassInfo(node.name))
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        info.methods[item.name] = item
                # Annotated constructor params type the fields they're
                # stored into (``self._stats = stats`` with
                # ``stats: EngineStats``).
                param_types: Dict[str, str] = {}
                init = info.methods.get("__init__")
                if init is not None:
                    for arg in init.args.args + init.args.kwonlyargs:
                        ann = _annotation_class(arg.annotation)
                        if ann is not None:
                            param_types[arg.arg] = ann
                for sub in ast.walk(node):
                    if not isinstance(sub, ast.Assign):
                        continue
                    kind = _lock_kind(sub.value)
                    for target in sub.targets:
                        name = dotted_name(target)
                        if kind and name and name.startswith("self."):
                            attr = name[5:]
                            if "." in attr:
                                continue
                            info.locks[attr] = LockNode(
                                f"{node.name}.{attr}", kind, module.rel, sub.lineno
                            )
                        elif (
                            kind
                            and isinstance(target, ast.Subscript)
                            and (base := dotted_name(target.value))
                            and base.startswith("self.")
                        ):
                            attr = base[5:]
                            info.families[attr] = LockNode(
                                f"{node.name}.{attr}[*]", kind, module.rel, sub.lineno
                            )
                        elif name and name.startswith("self.") and "." not in name[5:]:
                            inferred = _constructed_class(sub.value)
                            if inferred is None and isinstance(sub.value, ast.Name):
                                inferred = param_types.get(sub.value.id)
                            if inferred is not None:
                                info.attr_types[name[5:]] = inferred
            elif isinstance(node, ast.Assign) and node in module.tree.body:
                kind = _lock_kind(node.value)
                if kind:
                    stem = module.rel.rsplit("/", 1)[-1].removesuffix(".py")
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            registry.module_locks[(module.rel, target.id)] = LockNode(
                                f"{stem}.{target.id}", kind, module.rel, node.lineno
                            )
    for info in registry.classes.values():
        for attr in list(info.locks) + list(info.families):
            registry.attr_owners.setdefault(attr, []).append(info.name)
        for method in info.methods:
            registry.method_owners.setdefault(method, []).append(info.name)
    return registry


# -- resolution ------------------------------------------------------------------


@dataclass
class _Ctx:
    module: ModuleSource
    registry: _Registry
    cls: Optional[_ClassInfo]
    env: Dict[str, str] = field(default_factory=dict)  #: var → lock node name
    var_types: Dict[str, str] = field(default_factory=dict)  #: var → class name

    def child(self) -> "_Ctx":
        return _Ctx(
            self.module,
            self.registry,
            self.cls,
            dict(self.env),
            dict(self.var_types),
        )


def _resolve_lock(
    expr: ast.expr, ctx: _Ctx, seen: FrozenSet[int] = frozenset()
) -> Optional[str]:
    """The canonical lock node *expr* evaluates to, if inferable."""
    if isinstance(expr, ast.Name):
        bound = ctx.env.get(expr.id)
        if bound is not None:
            return bound
        module_lock = ctx.registry.module_locks.get((ctx.module.rel, expr.id))
        return module_lock.name if module_lock else None
    if isinstance(expr, ast.Attribute):
        owner = _resolve_owner(expr.value, ctx)
        if owner is not None:
            node = owner.locks.get(expr.attr)
            if node is not None:
                return node.name
        if owner is None:
            # foreign object: only an attr with a unique owner resolves
            unique = ctx.registry.unique_owner(expr.attr)
            if unique is not None and expr.attr in unique.locks:
                return unique.locks[expr.attr].name
        return None
    if isinstance(expr, ast.Subscript):
        family = _resolve_family(expr.value, ctx)
        return family.name if family else None
    if isinstance(expr, ast.Call):
        if isinstance(expr.func, ast.Attribute) and expr.func.attr in ("get", "setdefault"):
            family = _resolve_family(expr.func.value, ctx)
            if family is not None:
                return family.name
        method = _resolve_callee(expr.func, ctx)
        if method is not None:
            owner, func = method
            if id(func) not in seen:
                return _lock_return_summary(func, owner, ctx, seen | {id(func)})
    return None


def _resolve_owner(expr: ast.expr, ctx: _Ctx) -> Optional[_ClassInfo]:
    """The class that owns *expr* (``self``, typed fields, typed vars)."""
    if isinstance(expr, ast.Name):
        if expr.id == "self":
            return ctx.cls
        type_name = ctx.var_types.get(expr.id)
        return ctx.registry.classes.get(type_name) if type_name else None
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        if expr.value.id == "self" and ctx.cls is not None:
            type_name = ctx.cls.attr_types.get(expr.attr)
            return ctx.registry.classes.get(type_name) if type_name else None
    return None


def _resolve_family(expr: ast.expr, ctx: _Ctx) -> Optional[LockNode]:
    if isinstance(expr, ast.Attribute):
        owner = _resolve_owner(expr.value, ctx)
        if owner is not None:
            return owner.families.get(expr.attr)
        unique = ctx.registry.unique_owner(expr.attr)
        if unique is not None:
            return unique.families.get(expr.attr)
    return None


def _resolve_callee(
    func: ast.expr, ctx: _Ctx
) -> Optional[Tuple[Optional[_ClassInfo], ast.FunctionDef]]:
    """(owning class, FunctionDef) for self.m(), typed obj.m(), local f()."""
    if isinstance(func, ast.Attribute):
        owner = _resolve_owner(func.value, ctx)
        if owner is not None and func.attr in owner.methods:
            return owner, owner.methods[func.attr]
        if owner is None:
            # Fallback: a method name defined by exactly one class in the
            # project resolves there. Widely-shared names (get, publish,
            # callback surfaces) stay opaque — deliberately, so jailed
            # callbacks contribute no speculative edges.
            unique = ctx.registry.unique_method_owner(func.attr)
            if unique is not None:
                return unique, unique.methods[func.attr]
        return None
    if isinstance(func, ast.Name):
        for node in ctx.module.tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == func.id:
                return None, node
    return None


def _lock_return_summary(
    func: ast.FunctionDef,
    owner: Optional[_ClassInfo],
    ctx: _Ctx,
    seen: FrozenSet[int] = frozenset(),
) -> Optional[str]:
    """The lock node a method returns, tracked through local variables."""
    sub = _Ctx(ctx.module, ctx.registry, owner, {}, {})
    result: Optional[str] = None
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            resolved = _resolve_lock(node.value, sub, seen)
            if resolved is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        sub.env[target.id] = resolved
                    elif isinstance(target, ast.Subscript):
                        family = _resolve_family(target.value, sub)
                        if family is not None:
                            # lock = self._locks[k] = threading.Lock()
                            for other in node.targets:
                                if isinstance(other, ast.Name):
                                    sub.env[other.id] = family.name
            elif _lock_kind(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        family = _resolve_family(target.value, sub)
                        if family is not None:
                            for other in node.targets:
                                if isinstance(other, ast.Name):
                                    sub.env[other.id] = family.name
        elif isinstance(node, ast.Return) and node.value is not None:
            resolved = _resolve_lock(node.value, sub, seen)
            if resolved is not None:
                result = resolved
    return result


# -- acquisition walk ------------------------------------------------------------


class _GraphBuilder:
    def __init__(self, project: Project, registry: _Registry) -> None:
        self.project = project
        self.registry = registry
        self.graph = LockGraph()
        #: id(FunctionDef) → lock nodes it acquires directly (for the
        #: one-level call summary).
        self.direct_acquires: Dict[int, Set[str]] = {}
        for info in registry.classes.values():
            for node in list(info.locks.values()) + list(info.families.values()):
                self.graph.nodes[node.name] = node
        for node in registry.module_locks.values():
            self.graph.nodes[node.name] = node

    # Pass A: per-function direct acquisition sets.
    def collect(self) -> None:
        for module, cls, func in self._functions():
            ctx = _Ctx(module, self.registry, cls)
            acquired: Set[str] = set()
            self._walk(func.body, ctx, [], func, record=acquired, edges=False)
            self.direct_acquires[id(func)] = acquired

    # Pass B: edges (with one-level call summaries available).
    def build(self) -> LockGraph:
        self.collect()
        for module, cls, func in self._functions():
            ctx = _Ctx(module, self.registry, cls)
            self._walk(func.body, ctx, [], func, record=None, edges=True)
        return self.graph

    def _functions(
        self,
    ) -> Iterator[Tuple[ModuleSource, Optional[_ClassInfo], ast.FunctionDef]]:
        for module in self.project.modules:
            for node in module.tree.body:
                if isinstance(node, ast.FunctionDef):
                    yield module, None, node
                elif isinstance(node, ast.ClassDef):
                    info = self.registry.classes.get(node.name)
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            yield module, info, item

    # -- the walker --------------------------------------------------------------

    def _walk(
        self,
        statements: Sequence[ast.stmt],
        ctx: _Ctx,
        held: List[str],
        func: ast.FunctionDef,
        record: Optional[Set[str]],
        edges: bool,
    ) -> None:
        for statement in statements:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Nested function (delivery wrappers): analyze with the
                # enclosing environment so closure-captured locks resolve,
                # starting from an empty held set — it runs later.
                nested_ctx = ctx.child()
                nested_record = set()
                self._walk(
                    statement.body, nested_ctx, [], statement,
                    record=nested_record, edges=edges,
                )
                if record is not None:
                    self.direct_acquires[id(statement)] = nested_record
                continue
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                ann = _annotation_class(statement.annotation)
                if ann is not None:
                    ctx.var_types[statement.target.id] = ann
            if isinstance(statement, ast.Assign):
                resolved = _resolve_lock(statement.value, ctx)
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        if resolved is not None:
                            ctx.env[target.id] = resolved
                        elif (
                            isinstance(statement.value, ast.Call)
                            and isinstance(statement.value.func, ast.Name)
                            and statement.value.func.id in self.registry.classes
                        ):
                            ctx.var_types[target.id] = statement.value.func.id
                        else:
                            ctx.env.pop(target.id, None)
                            ctx.var_types.pop(target.id, None)
            if isinstance(statement, (ast.With, ast.AsyncWith)):
                acquired_here: List[str] = []
                for item in statement.items:
                    node_name = _resolve_lock(item.context_expr, ctx)
                    if node_name is not None:
                        if record is not None:
                            record.add(node_name)
                        if edges:
                            site = Site(
                                ctx.module.rel, statement.lineno, func.name
                            )
                            for held_name in held + acquired_here:
                                self.graph.add_edge(held_name, node_name, site)
                        acquired_here.append(node_name)
                self._walk(
                    statement.body, ctx, held + acquired_here, func, record, edges
                )
                continue
            # Call summaries: calls made while holding a lock pull in the
            # callee's direct acquisitions (one level).
            if edges and held:
                for sub in ast.walk(statement):
                    if isinstance(sub, ast.Call):
                        callee = _resolve_callee(sub.func, ctx)
                        if callee is None:
                            continue
                        _owner, callee_func = callee
                        for acquired in self.direct_acquires.get(
                            id(callee_func), ()
                        ):
                            site = Site(ctx.module.rel, sub.lineno, func.name)
                            for held_name in held:
                                self.graph.add_edge(held_name, acquired, site)
            for body in _statement_bodies(statement):
                self._walk(body, ctx, held, func, record, edges)


def _statement_bodies(statement: ast.stmt) -> Iterator[Sequence[ast.stmt]]:
    for attr in ("body", "orelse", "finalbody"):
        body = getattr(statement, attr, None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            yield body
    for handler in getattr(statement, "handlers", []):
        yield handler.body


def build_lock_graph(project: Project) -> LockGraph:
    """The full static acquisition graph for *project*."""
    registry = _build_registry(project)
    return _GraphBuilder(project, registry).build()


def run_lock_rules(project: Project) -> List[Finding]:
    graph = build_lock_graph(project)
    findings: List[Finding] = []
    for component in graph.cycles():
        sites = []
        for (src, dst), edge_sites in sorted(graph.edges.items()):
            if src in component and dst in component:
                sites.extend(edge_sites)
        site = sites[0] if sites else Site("<graph>", 1, "<module>")
        info = RULES["lock-cycle"]
        findings.append(
            Finding(
                path=site.path,
                line=site.line,
                rule="lock-cycle",
                severity=info.severity,
                message=(
                    "lock acquisition cycle: " + " ↔ ".join(component)
                ),
                fix_hint=info.fix_hint,
            )
        )
    info = RULES["lock-order"]
    for group, (src, dst), sites in graph.order_violations():
        site = sites[0]
        findings.append(
            Finding(
                path=site.path,
                line=site.line,
                rule="lock-order",
                severity=info.severity,
                message=(
                    f"'{dst}' (coarser) acquired while holding '{src}' "
                    f"(finer) — inverts the {group} hierarchy"
                ),
                fix_hint=info.fix_hint,
            )
        )
    return findings
