"""Small AST helpers shared by the analyzer passes."""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(call: ast.Call) -> Optional[str]:
    """The dotted name a call targets (``obj.method`` / ``func``)."""
    return dotted_name(call.func)


def call_attr(call: ast.Call) -> Optional[str]:
    """The final attribute of a method call (``view`` for ``db.view(...)``)."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def keyword_arg(call: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def is_const(node: Optional[ast.AST], value: object) -> bool:
    return isinstance(node, ast.Constant) and node.value is value


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name → imported dotted module/object for top-level imports."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def arg_names(func: ast.FunctionDef) -> List[str]:
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def contains_chain_rooted_at(node: ast.AST, root: str, attrs: Tuple[str, ...]) -> bool:
    """True when *node* contains ``<root>.<attr>...`` for any listed attr."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in attrs:
            base = sub.value
            if isinstance(base, ast.Name) and base.id == root:
                return True
    return False


def assigned_names(target: ast.expr) -> List[str]:
    """Plain names bound by an assignment target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(assigned_names(element))
        return names
    if isinstance(target, ast.Starred):
        return assigned_names(target.value)
    return []
