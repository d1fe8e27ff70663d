"""Pass 1 — syntactic IFC lint rules.

These rules machine-check the internal contracts the fast paths of PRs
1–9 rely on (interned labels, jail discipline, hook-guarded routes) and
the classic injection shapes the §5.2 corpus exercises. Each rule is a
narrow AST pattern; anything needing dataflow lives in
:mod:`analysis.taint`.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set, Tuple

from analysis.astutil import (
    call_attr,
    call_name,
    contains_chain_rooted_at,
    dotted_name,
    is_const,
    keyword_arg,
)
from analysis.findings import Finding, RULES
from analysis.framework import ModuleSource, Project

#: Attributes that are Label/LabelSet internals (mutation or even read
#: access outside core/labels.py couples code to the intern machinery).
_LABEL_INTERNALS = ("_labels", "_intern")

#: Private constructors that bypass the interning contract.
_LABEL_PRIVATE_CALLS = (
    "LabelSet._from_frozen",
    "LabelSet._build",
    "Label.__new__",
    "LabelSet.__new__",
)

#: Enforcement switches that must never be disabled outside tests/.
_ENFORCEMENT_FLAGS = (
    "check_labels",
    "check_taint",
    "csrf_protect",
    "label_events",
    "isolation",
    "label_checks_in_broker",
)

#: Direct I/O roots the jail denies inside unit callbacks.
_JAIL_IO_PREFIXES = (
    "socket.",
    "subprocess.",
    "urllib.",
    "requests.",
    "http.client",
)
_JAIL_IO_CALLS = ("open", "os.open", "os.system", "os.popen", "os.fdopen")

_SQL_RE = re.compile(
    r"\b(select\s+.+\s+from\s|insert\s+into\s|update\s+\w+\s+set\s"
    r"|delete\s+from\s|drop\s+table\s|create\s+table\s)",
    re.IGNORECASE | re.DOTALL,
)


def _finding(module: ModuleSource, node: ast.AST, rule: str, message: str) -> Finding:
    info = RULES[rule]
    return Finding(
        path=module.rel,
        line=getattr(node, "lineno", 1),
        rule=rule,
        severity=info.severity,
        message=message,
        fix_hint=info.fix_hint,
    )


# -- ifc-label-internals ---------------------------------------------------------


def _label_internals(module: ModuleSource) -> Iterator[Finding]:
    if module.rel.endswith("core/labels.py"):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Attribute) and node.attr in _LABEL_INTERNALS:
            verb = (
                "mutates" if isinstance(node.ctx, (ast.Store, ast.Del)) else "reaches into"
            )
            yield _finding(
                module,
                node,
                "ifc-label-internals",
                f"{verb} the label-internal attribute '{node.attr}' outside "
                "core/labels.py",
            )
        elif isinstance(node, ast.Call):
            name = call_name(node)
            if name in _LABEL_PRIVATE_CALLS:
                yield _finding(
                    module,
                    node,
                    "ifc-label-internals",
                    f"constructs labels through the non-interning private API "
                    f"{name}()",
                )


# -- ifc-jail-io -----------------------------------------------------------------


def _unit_classes(tree: ast.Module) -> List[ast.ClassDef]:
    classes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for base in node.bases:
                base_name = dotted_name(base) or ""
                if base_name == "Unit" or base_name.endswith(".Unit"):
                    classes.append(node)
                    break
    return classes


def _handler_methods(cls: ast.ClassDef) -> List[ast.FunctionDef]:
    """Methods that run jailed: subscription handlers of a Unit class."""
    methods = {
        node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)
    }
    handlers: Set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Call) and call_attr(node) == "subscribe":
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                name = dotted_name(arg) or ""
                if name.startswith("self.") and name[5:] in methods:
                    handlers.add(name[5:])
    for name, method in methods.items():
        args = [a.arg for a in method.args.args]
        if len(args) >= 2 and args[0] == "self" and args[1] == "event":
            handlers.add(name)
    return [methods[name] for name in sorted(handlers)]


def _io_calls(func: ast.FunctionDef) -> Iterator[Tuple[ast.Call, str]]:
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node) or ""
        if name in _JAIL_IO_CALLS or any(
            name.startswith(prefix) for prefix in _JAIL_IO_PREFIXES
        ):
            yield node, name


def _jail_io(module: ModuleSource) -> Iterator[Finding]:
    for cls in _unit_classes(module.tree):
        methods = {
            node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)
        }
        for handler in _handler_methods(cls):
            # The handler itself plus same-class helpers it calls directly
            # (one-level summary — mirrors the taint pass's call depth).
            bodies = [handler]
            for node in ast.walk(handler):
                if isinstance(node, ast.Call):
                    name = dotted_name(node.func) or ""
                    if name.startswith("self.") and name[5:] in methods:
                        bodies.append(methods[name[5:]])
            for body in bodies:
                for call, name in _io_calls(body):
                    yield _finding(
                        module,
                        call,
                        "ifc-jail-io",
                        f"unit '{cls.name}' performs {name}() inside jailed "
                        f"callback '{handler.name}'",
                    )


# -- ifc-sql-concat --------------------------------------------------------------


def _flatten_concat(node: ast.expr) -> List[ast.expr]:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _flatten_concat(node.left) + _flatten_concat(node.right)
    return [node]


def _is_sql_literal(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and _SQL_RE.search(node.value) is not None
    )


def _is_quoted(node: ast.expr) -> bool:
    return isinstance(node, ast.Call) and (call_attr(node) == "sql_quote")


def _sql_concat(module: ModuleSource) -> Iterator[Finding]:
    flagged: Set[int] = set()

    def flag(node: ast.AST, how: str):
        if node.lineno not in flagged:
            flagged.add(node.lineno)
            yield _finding(
                module,
                node,
                "ifc-sql-concat",
                f"SQL statement assembled by {how} around unquoted dynamic "
                "values",
            )

    for node in ast.walk(module.tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            parts = _flatten_concat(node)
            if any(_is_sql_literal(p) for p in parts) and any(
                not isinstance(p, ast.Constant) and not _is_quoted(p) for p in parts
            ):
                yield from flag(node, "string concatenation")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            if _is_sql_literal(node.left):
                yield from flag(node, "%-formatting")
        elif isinstance(node, ast.JoinedStr):
            literal = "".join(
                part.value
                for part in node.values
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            )
            dynamic = [
                part.value
                for part in node.values
                if isinstance(part, ast.FormattedValue)
            ]
            if _SQL_RE.search(literal) and any(not _is_quoted(d) for d in dynamic):
                yield from flag(node, "an f-string")
        elif isinstance(node, ast.Call) and call_attr(node) == "format":
            if isinstance(node.func, ast.Attribute) and _is_sql_literal(node.func.value):
                if any(
                    not _is_quoted(a) for a in list(node.args) + [k.value for k in node.keywords]
                ):
                    yield from flag(node, ".format()")


# -- ifc-route-hook-bypass -------------------------------------------------------


def _hook_bypass_primitives(func_or_module: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(func_or_module):
        if isinstance(node, ast.Attribute) and node.attr == "_public_paths":
            yield node, (
                "adds paths to the middleware's public set, exempting them "
                "from the authenticated filter chain (and its after-hook)"
            )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr == "handler":
                    yield node, (
                        "swaps a route handler in place, around the "
                        "framework's registration (and response-check) path"
                    )


def _route_hook_bypass(module: ModuleSource) -> Iterator[Finding]:
    if module.rel.endswith(("web/middleware.py", "web/framework.py")):
        return
    bypassing_functions: Set[str] = set()
    for node in module.tree.body:
        if isinstance(node, ast.FunctionDef):
            if any(True for _ in _hook_bypass_primitives(node)):
                bypassing_functions.add(node.name)
    for node, message in _hook_bypass_primitives(module.tree):
        yield _finding(module, node, "ifc-route-hook-bypass", message)
    # One-level call summary: flag call sites of local helpers that bypass.
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in bypassing_functions:
                yield _finding(
                    module,
                    node,
                    "ifc-route-hook-bypass",
                    f"calls {node.func.id}(), which wires a route around the "
                    "enforcement hooks",
                )


# -- ifc-checks-disabled ---------------------------------------------------------


def _checks_disabled(module: ModuleSource) -> Iterator[Finding]:
    if "tests/" in module.rel or module.rel.startswith("tests"):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg in _ENFORCEMENT_FLAGS and is_const(keyword.value, False):
                    yield _finding(
                        module,
                        keyword.value,
                        "ifc-checks-disabled",
                        f"disables the '{keyword.arg}' enforcement switch",
                    )
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value in _ENFORCEMENT_FLAGS
                    and is_const(value, False)
                ):
                    yield _finding(
                        module,
                        value,
                        "ifc-checks-disabled",
                        f"configures the '{key.value}' enforcement switch off",
                    )


# -- ifc-label-drop --------------------------------------------------------------


def _label_drop(module: ModuleSource) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call) and call_attr(node) == "publish"):
            continue
        remove_all = keyword_arg(node, "remove_all")
        if is_const(remove_all, True):
            yield _finding(
                module,
                node,
                "ifc-label-drop",
                "publish(remove_all=True) strips every ambient label "
                "(declassification of the whole context)",
            )
            continue
        remove = keyword_arg(node, "remove")
        if isinstance(remove, (ast.List, ast.Tuple, ast.Set)) and remove.elts:
            yield _finding(
                module,
                node,
                "ifc-label-drop",
                "publish(remove=[...]) drops labels from the published event",
            )


# -- ifc-unfiltered-read ---------------------------------------------------------


def _request_handlers(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and any(
            arg.arg == "request" for arg in node.args.args
        ):
            yield node


def _unfiltered_read(module: ModuleSource) -> Iterator[Finding]:
    for handler in _request_handlers(module.tree):
        for node in ast.walk(handler):
            if not isinstance(node, ast.Call):
                continue
            attr = call_attr(node)
            if attr == "view" and isinstance(node.func, ast.Attribute):
                kwargs = {keyword.arg for keyword in node.keywords}
                if not kwargs & {"key", "clearance"}:
                    yield _finding(
                        module,
                        node,
                        "ifc-unfiltered-read",
                        f"handler '{handler.name}' queries a view with no "
                        "key or clearance filter",
                    )
            elif attr == "all_docs" and isinstance(node.func, ast.Attribute):
                yield _finding(
                    module,
                    node,
                    "ifc-unfiltered-read",
                    f"handler '{handler.name}' iterates all_docs() — every "
                    "principal's documents",
                )


# -- taint-identity-override (syntactic: no dataflow needed) ---------------------

_PARAM_ATTRS = ("params", "headers", "query", "form")


def _identity_override(module: ModuleSource) -> Iterator[Finding]:
    for handler in _request_handlers(module.tree):
        for node in ast.walk(handler):
            if isinstance(node, ast.BoolOp):
                values = node.values
            elif isinstance(node, ast.IfExp):
                values = [node.body, node.orelse]
            else:
                continue
            has_param = any(
                contains_chain_rooted_at(v, "request", _PARAM_ATTRS) for v in values
            )
            has_identity = any(
                contains_chain_rooted_at(v, "request", ("user",)) for v in values
            )
            if has_param and has_identity:
                yield _finding(
                    module,
                    node,
                    "taint-identity-override",
                    f"handler '{handler.name}' lets a request parameter "
                    "override the authenticated identity",
                )


_MODULE_RULES = (
    _label_internals,
    _jail_io,
    _sql_concat,
    _route_hook_bypass,
    _checks_disabled,
    _label_drop,
    _unfiltered_read,
    _identity_override,
)


def run_ifc_rules(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for module in project.modules:
        for rule in _MODULE_RULES:
            findings.extend(rule(module))
    return findings
