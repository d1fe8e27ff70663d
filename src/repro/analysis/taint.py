"""Pass 2 — taint source→sink summaries.

The static mirror of the dynamic taint tier (:mod:`repro.taint`): a
per-function, intraprocedural forward dataflow with a **one-level call
summary** for helpers defined in the same module.

Two taint kinds flow:

* ``user`` — request parameters, headers, bodies (what
  :func:`repro.taint.sanitize.mark_user_input` taints at runtime);
* ``labeled`` — documents read from a docstore and, inside unit
  callbacks, event attributes (what carries label sidecars at runtime).

Sources, sinks and sanitizers are name-based heuristics tuned so the
clean SafeWeb tree reports nothing: store *reads* generate ``labeled``
taint but deliberately do not propagate their key arguments (reading by
key does not embed the key text in the result), template rendering and
``json_codec`` clear ``user`` taint (both escape) and keep ``labeled`` —
as does everything a view row hands out (``row.value``, ``row.json``,
``row.form(derive)``, a page whose partials render rows) — and event attributes
are sources only inside :class:`~repro.events.unit.Unit` handler
methods where the ambient-label context exists.

Rules emitted: ``taint-html-response``, ``taint-sql-exec``,
``taint-store-write``, ``ifc-raw-json``, ``ifc-unlabeled-publish``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.astutil import (
    arg_names,
    assigned_names,
    call_attr,
    call_name,
    dotted_name,
    import_aliases,
)
from repro.analysis.findings import Finding, RULES
from repro.analysis.framework import ModuleSource, Project
from repro.analysis.ifc_rules import _unit_classes, _handler_methods

USER = "user"
LABELED = "labeled"
PARAM = "param"  # synthetic: "derives from one of my parameters"

Taint = FrozenSet[str]
_EMPTY: Taint = frozenset()

#: Calls that clear ``user`` taint (escape or explicit endorsement).
_USER_SANITIZERS = {
    "html_escape",
    "sql_quote",
    "require_sanitized",
    "endorse_user_input",
    "render",  # the template registry escapes interpolations
    "urlencode",
    "quote",
}

#: json_codec calls: label-safe serialisation (clears user, keeps labeled).
_CODEC_CALLS = {"dumps", "loads", "join_array", "encode_document", "decode_document"}

#: The tree's own APIs that return server-minted values (session tokens,
#: CSRF signatures, database row ids) — their results do not reflect the
#: arguments' text, so user taint does not flow through them.
_SERVER_MINTED = {"create_session", "csrf_token_for", "user_id"}

#: Method names that read labelled documents regardless of receiver.
_STORE_READ_ATTRS = {"view", "all_docs", "get_or_none", "find", "find_by"}

#: ``.get``-style reads count only on receivers that look like stores.
_STORE_RECEIVER_RE = re.compile(r"(^|_)(db|database|store|docstore)$")

_REQUEST_SOURCE_ATTRS = ("params", "headers", "body", "form", "query", "cookies")


@dataclass
class FunctionSummary:
    """One-level summary of a same-module helper."""

    returns: Taint = _EMPTY  #: taint the return value carries intrinsically
    passthrough: bool = True  #: do argument taints flow into the result?
    param_sink_rules: FrozenSet[str] = frozenset()  #: sinks params reach


@dataclass
class _Scope:
    """Analysis context for one function."""

    func: ast.FunctionDef
    module: ModuleSource
    env: Dict[str, Taint] = field(default_factory=dict)
    local_names: Set[str] = field(default_factory=set)
    is_handler: bool = False
    is_unit_handler: bool = False
    param_sink_rules: Set[str] = field(default_factory=set)
    return_taint: Set[str] = field(default_factory=set)


class _FunctionAnalysis:
    def __init__(
        self,
        module: ModuleSource,
        summaries: Dict[str, FunctionSummary],
        json_aliases: Set[str],
        codec_aliases: Set[str],
        unit_handler_ids: Set[int],
        emit: Optional[List[Finding]],
    ) -> None:
        self.module = module
        self.summaries = summaries
        self.json_aliases = json_aliases
        self.codec_aliases = codec_aliases
        self.unit_handler_ids = unit_handler_ids
        self.emit = emit  # None while computing summaries (no findings)

    # -- driving ---------------------------------------------------------------

    def run(self, func: ast.FunctionDef) -> FunctionSummary:
        scope = _Scope(func, self.module)
        scope.is_handler = any(a.arg == "request" for a in func.args.args)
        scope.is_unit_handler = id(func) in self.unit_handler_ids
        for name in arg_names(func):
            scope.local_names.add(name)
            scope.env[name] = frozenset({PARAM})
        self._block(func.body, scope)
        returns = frozenset(scope.return_taint) - {PARAM}
        return FunctionSummary(
            returns=returns,
            passthrough=PARAM in scope.return_taint,
            param_sink_rules=frozenset(scope.param_sink_rules),
        )

    def _block(self, statements: List[ast.stmt], scope: _Scope) -> None:
        for statement in statements:
            self._statement(statement, scope)

    def _statement(self, node: ast.stmt, scope: _Scope) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions are analyzed as their own scopes
        if isinstance(node, ast.Assign):
            taint = self._eval(node.value, scope)
            for target in node.targets:
                for name in assigned_names(target):
                    scope.local_names.add(name)
                    scope.env[name] = taint
                self._check_subscript_write(target, taint, scope)
        elif isinstance(node, ast.AugAssign):
            taint = self._eval(node.value, scope)
            for name in assigned_names(node.target):
                scope.local_names.add(name)
                scope.env[name] = scope.env.get(name, _EMPTY) | taint
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            taint = self._eval(node.value, scope)
            for name in assigned_names(node.target):
                scope.local_names.add(name)
                scope.env[name] = taint
        elif isinstance(node, ast.Return):
            if node.value is not None:
                taint = self._eval(node.value, scope)
                scope.return_taint |= taint
                if scope.is_handler:
                    self._check_html(node.value, taint, node, scope)
        elif isinstance(node, ast.Expr):
            self._eval(node.value, scope)
        elif isinstance(node, ast.If):
            self._eval(node.test, scope)
            self._block(node.body, scope)
            self._block(node.orelse, scope)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            taint = self._eval(node.iter, scope)
            for name in assigned_names(node.target):
                scope.local_names.add(name)
                scope.env[name] = taint
            self._block(node.body, scope)
            self._block(node.orelse, scope)
        elif isinstance(node, ast.While):
            self._eval(node.test, scope)
            self._block(node.body, scope)
            self._block(node.orelse, scope)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._eval(item.context_expr, scope)
                if item.optional_vars is not None:
                    for name in assigned_names(item.optional_vars):
                        scope.local_names.add(name)
                        scope.env[name] = _EMPTY
            self._block(node.body, scope)
        elif isinstance(node, ast.Try):
            self._block(node.body, scope)
            for handler in node.handlers:
                if handler.name:
                    scope.local_names.add(handler.name)
                self._block(handler.body, scope)
            self._block(node.orelse, scope)
            self._block(node.finalbody, scope)
        # remaining statement kinds carry no dataflow we track

    # -- expression evaluation -------------------------------------------------

    def _eval(self, node: ast.expr, scope: _Scope) -> Taint:
        if isinstance(node, ast.Name):
            return scope.env.get(node.id, _EMPTY)
        if isinstance(node, ast.Attribute):
            source = self._attribute_source(node, scope)
            if source is not None:
                return source
            return self._eval(node.value, scope)
        if isinstance(node, ast.Subscript):
            base = self._eval(node.value, scope)
            index = self._eval(node.slice, scope)
            source = self._subscript_source(node, scope)
            return base | index | (source or _EMPTY)
        if isinstance(node, ast.Call):
            return self._call(node, scope)
        if isinstance(node, ast.BinOp):
            return self._eval(node.left, scope) | self._eval(node.right, scope)
        if isinstance(node, ast.BoolOp):
            taint = _EMPTY
            for value in node.values:
                taint |= self._eval(value, scope)
            return taint
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand, scope)
        if isinstance(node, ast.IfExp):
            return (
                self._eval(node.test, scope)
                | self._eval(node.body, scope)
                | self._eval(node.orelse, scope)
            )
        if isinstance(node, ast.Compare):
            taint = self._eval(node.left, scope)
            for comparator in node.comparators:
                taint |= self._eval(comparator, scope)
            return taint
        if isinstance(node, ast.JoinedStr):
            taint = _EMPTY
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    taint |= self._eval(value.value, scope)
            return taint
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            taint = _EMPTY
            for element in node.elts:
                taint |= self._eval(element, scope)
            return taint
        if isinstance(node, ast.Dict):
            taint = _EMPTY
            for key, value in zip(node.keys, node.values):
                if key is not None:
                    taint |= self._eval(key, scope)
                taint |= self._eval(value, scope)
            return taint
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            taint = _EMPTY
            for generator in node.generators:
                gen_taint = self._eval(generator.iter, scope)
                for name in assigned_names(generator.target):
                    scope.local_names.add(name)
                    scope.env[name] = gen_taint
            taint |= self._eval(node.elt, scope)
            return taint
        if isinstance(node, ast.DictComp):
            for generator in node.generators:
                gen_taint = self._eval(generator.iter, scope)
                for name in assigned_names(generator.target):
                    scope.local_names.add(name)
                    scope.env[name] = gen_taint
            return self._eval(node.key, scope) | self._eval(node.value, scope)
        if isinstance(node, ast.Starred):
            return self._eval(node.value, scope)
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value, scope)
        return _EMPTY

    def _attribute_source(self, node: ast.Attribute, scope: _Scope) -> Optional[Taint]:
        name = dotted_name(node)
        if name is None:
            return None
        parts = name.split(".")
        if parts[0] == "request" and len(parts) >= 2:
            if parts[1] in _REQUEST_SOURCE_ATTRS:
                return frozenset({USER})
            return _EMPTY  # request.user / request.path: identity, not taint
        if (
            scope.is_unit_handler
            and parts[0] == "event"
            and len(parts) >= 2
            and parts[1] in ("attributes", "payload")
        ):
            return frozenset({LABELED})
        return None

    def _subscript_source(self, node: ast.Subscript, scope: _Scope) -> Optional[Taint]:
        # request.params["x"] / event["x"] inside a unit handler
        base = dotted_name(node.value)
        if base and base.startswith("request.") and base.split(".")[1] in _REQUEST_SOURCE_ATTRS:
            return frozenset({USER})
        if scope.is_unit_handler and base == "event":
            return frozenset({LABELED})
        return None

    # -- calls: sources, sanitizers, summaries, sinks --------------------------

    def _call(self, node: ast.Call, scope: _Scope) -> Taint:
        func_name = call_name(node) or ""
        attr = call_attr(node)
        arg_taint = _EMPTY
        for arg in node.args:
            arg_taint |= self._eval(arg, scope)
        for keyword in node.keywords:
            arg_taint |= self._eval(keyword.value, scope)

        # request.params.get(...) and friends: the receiver is a source.
        if isinstance(node.func, ast.Attribute):
            receiver_taint = self._eval(node.func.value, scope)
        else:
            receiver_taint = _EMPTY

        self._check_sinks(node, arg_taint, scope)

        root = func_name.split(".")[0] if func_name else ""
        if attr in _SERVER_MINTED:
            return _EMPTY
        if root in self.codec_aliases and attr in _CODEC_CALLS:
            # Dropping PARAM keeps helpers that sanitise/encode their
            # argument from being summarised as taint-passthrough.
            return (arg_taint | receiver_taint) - {USER, PARAM}
        if attr in _USER_SANITIZERS:
            return (arg_taint | receiver_taint) - {USER, PARAM}
        if self._is_store_read(node, attr):
            # Result is labelled store data; key arguments do not embed
            # their text in the result, so their taint does not propagate.
            return frozenset({LABELED})
        if isinstance(node.func, ast.Name):
            summary = self.summaries.get(node.func.id)
            if summary is not None:
                taint = summary.returns
                if summary.passthrough:
                    taint |= arg_taint
                for rule in summary.param_sink_rules:
                    if arg_taint & self._TRIGGERS[rule]:
                        self._finding(
                            node,
                            rule,
                            f"tainted value reaches a {rule} sink through "
                            f"helper {node.func.id}()",
                        )
                    elif PARAM in arg_taint:
                        # Chain the summary one more level up.
                        scope.param_sink_rules.add(rule)
                return taint
        return arg_taint | receiver_taint

    def _is_store_read(self, node: ast.Call, attr: Optional[str]) -> bool:
        if not isinstance(node.func, ast.Attribute):
            return False
        if attr in _STORE_READ_ATTRS:
            return True
        if attr in ("get", "changes"):
            receiver = dotted_name(node.func.value) or ""
            tail = receiver.split(".")[-1]
            return bool(_STORE_RECEIVER_RE.search(tail))
        return False

    # -- sinks -----------------------------------------------------------------
    #
    # Each sink fires a finding when the *real* taint that triggers it is
    # present, and records itself in the scope's param-sink summary when
    # only PARAM taint reaches it — the caller then gets the finding at
    # the call site if it passes a really-tainted argument (the one-level
    # summary in the sink direction).

    def _check_sinks(self, node: ast.Call, arg_taint: Taint, scope: _Scope) -> None:
        func_name = call_name(node) or ""
        attr = call_attr(node)
        root = func_name.split(".")[0] if func_name else ""

        if attr in ("execute", "executemany") and node.args:
            first = self._eval(node.args[0], scope)
            self._sink(node, "taint-sql-exec", scope, first,
                       "user input flows into execute()")

        if root in self.json_aliases and attr in ("dumps", "loads") and node.args:
            first = self._eval(node.args[0], scope)
            kind = "labelled" if LABELED in first else "user-tainted"
            self._sink(node, "ifc-raw-json", scope, first,
                       f"raw {root}.{attr}() applied to a {kind} value")

        # row.form(json.dumps): the raw codec memoised as a derived form
        # of a stored revision — stripped once, replayed to every reader.
        if attr == "form" and node.args and isinstance(node.func, ast.Attribute):
            derive = dotted_name(node.args[0]) or ""
            module, _, function = derive.partition(".")
            if module in self.json_aliases and function in ("dumps", "loads"):
                self._sink(node, "ifc-raw-json", scope, self._eval(node.func.value, scope),
                           f"raw {derive} kept as a derived form of a labelled row")

        if isinstance(node.func, ast.Name) and node.func.id == "Response" and node.args:
            first = self._eval(node.args[0], scope)
            self._sink(node, "taint-html-response", scope, first,
                       "user input assembled into a Response body without "
                       "html_escape()")

        if attr in ("append", "insert", "extend", "add") and node.args:
            if isinstance(node.func, ast.Attribute) and isinstance(
                node.func.value, ast.Name
            ):
                receiver = node.func.value.id
                if receiver not in scope.local_names:
                    self._sink(node, "taint-store-write", scope, arg_taint,
                               f"unsanitised user input persisted into shared "
                               f"collection '{receiver}'")

        if attr in ("upsert", "put", "save"):
            self._sink(node, "taint-store-write", scope, arg_taint,
                       "unsanitised user input written to the document store")

        if scope.is_handler and attr == "publish":
            self._sink(node, "ifc-unlabeled-publish", scope, arg_taint,
                       "handler publishes an event derived from labelled "
                       "store reads — the store's labels do not follow")

    def _check_html(
        self, expr: ast.expr, taint: Taint, node: ast.stmt, scope: _Scope
    ) -> None:
        if isinstance(expr, (ast.BinOp, ast.JoinedStr)):
            self._sink(node, "taint-html-response", scope, taint,
                       "handler returns user input assembled into markup "
                       "without html_escape()")

    def _check_subscript_write(
        self, target: ast.expr, taint: Taint, scope: _Scope
    ) -> None:
        if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
            receiver = target.value.id
            if receiver not in scope.local_names:
                self._sink(target, "taint-store-write", scope, taint,
                           f"unsanitised user input stored into shared "
                           f"mapping '{receiver}'")

    #: The taint kinds that make each sink a real finding.
    _TRIGGERS = {
        "taint-sql-exec": frozenset({USER}),
        "taint-html-response": frozenset({USER}),
        "taint-store-write": frozenset({USER}),
        "ifc-raw-json": frozenset({USER, LABELED}),
        "ifc-unlabeled-publish": frozenset({LABELED}),
    }

    def _sink(
        self, node: ast.AST, rule: str, scope: _Scope, taint: Taint, message: str
    ) -> None:
        trigger = self._TRIGGERS[rule]
        if taint & trigger:
            self._finding(node, rule, message)
        elif PARAM in taint:
            scope.param_sink_rules.add(rule)

    def _finding(self, node: ast.AST, rule: str, message: str) -> None:
        if self.emit is None:
            return
        info = RULES[rule]
        self.emit.append(
            Finding(
                path=self.module.rel,
                line=getattr(node, "lineno", 1),
                rule=rule,
                severity=info.severity,
                message=message,
                fix_hint=info.fix_hint,
            )
        )


def _module_context(module: ModuleSource) -> Tuple[Set[str], Set[str], Set[int]]:
    aliases = import_aliases(module.tree)
    json_aliases = {name for name, target in aliases.items() if target == "json"}
    codec_aliases = {
        name
        for name, target in aliases.items()
        if target.endswith("json_codec") or name == "json_codec"
    }
    unit_handler_ids: Set[int] = set()
    for cls in _unit_classes(module.tree):
        for handler in _handler_methods(cls):
            unit_handler_ids.add(id(handler))
    return json_aliases, codec_aliases, unit_handler_ids


def _all_functions(tree: ast.Module) -> List[ast.FunctionDef]:
    return [
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    ]


def run_taint_rules(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for module in project.modules:
        json_aliases, codec_aliases, unit_handler_ids = _module_context(module)
        functions = _all_functions(module.tree)

        # Round 1: summaries with default assumptions (no findings emitted).
        summaries: Dict[str, FunctionSummary] = {}
        analysis = _FunctionAnalysis(
            module, summaries, json_aliases, codec_aliases, unit_handler_ids, None
        )
        first_round: Dict[str, FunctionSummary] = {}
        for func in functions:
            first_round[func.name] = analysis.run(func)
        # Round 2: re-run with round-1 summaries visible (one-level depth)
        # and findings on.
        summaries.update(first_round)
        analysis = _FunctionAnalysis(
            module, summaries, json_aliases, codec_aliases, unit_handler_ids, findings
        )
        for func in functions:
            analysis.run(func)
    return findings
