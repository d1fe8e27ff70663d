"""Compiled segment-trie route matching (the PR 1 playbook, applied to HTTP).

The seed router compiles each pattern to a regex and scans the route list
linearly on every request — O(routes) regex executions per dispatch. This
module replaces the scan with a segment trie compiled once from the route
table:

* **static segments** are exact dictionary lookups;
* **pure ``:param`` segments** are wildcard edges capturing the whole
  path segment (one dict write, no regex);
* **mixed segments** (``v:version`` — static text and captures inside one
  segment) keep a per-segment anchored regex, semantically identical to
  the slice the seed regex would have used (``[^/]+`` cannot cross a
  ``/``, so segment-local matching is equivalent to whole-path matching);
* **trailing ``/*``** becomes a splat terminal that accepts any remaining
  path (captured as ``splat`` with its leading slash, absent when the
  path stops exactly at the splat's mount point — both exactly as the
  seed's ``(?P<splat>/.*)?`` behaves);
* **method dispatch** happens at the leaf: terminals are keyed by HTTP
  method.

The seed matcher survives as the executable reference in
``tests/reference/router.py``; ``tests/property/test_router.py``
generates route tables and request paths and proves the trie
observation-equivalent, including the
first-match-wins rule for overlapping patterns: every terminal carries
its registration order and the walk returns the lowest-ordered match,
exactly what the linear scan would have produced.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

_PARAM_RE = re.compile(r":([A-Za-z_][A-Za-z0-9_]*)")

#: Segment kinds produced by :func:`parse_pattern`.
STATIC = "static"
PARAM = "param"
MIXED = "mixed"


def compile_segment_regex(segment: str) -> "re.Pattern[str]":
    """The seed's regex translation, applied to a single path segment.

    Byte-for-byte the same construction as the seed route compiler, so a
    mixed segment matches exactly the characters the full-pattern regex
    would have consumed for it.
    """
    regex = ""
    position = 0
    for match in _PARAM_RE.finditer(segment):
        regex += re.escape(segment[position : match.start()])
        regex += f"(?P<{match.group(1)}>[^/]+)"
        position = match.end()
    regex += re.escape(segment[position:])
    return re.compile(f"^{regex}$")


def parse_pattern(pattern: str) -> Tuple[List[Tuple[str, Any]], bool]:
    """Split *pattern* into ``(kind, payload)`` segments plus a splat flag.

    ``payload`` is the literal text for ``static``, the capture name for
    ``param`` and a compiled per-segment regex for ``mixed``.
    """
    has_splat = pattern.endswith("/*")
    base = pattern[:-2] if has_splat else pattern
    if base == "":
        return [], has_splat
    segments: List[Tuple[str, Any]] = []
    for part in base.split("/")[1:]:
        matches = list(_PARAM_RE.finditer(part))
        if not matches:
            segments.append((STATIC, part))
        elif len(matches) == 1 and matches[0].span() == (0, len(part)):
            segments.append((PARAM, matches[0].group(1)))
        else:
            segments.append((MIXED, compile_segment_regex(part)))
    return segments, has_splat


class _Node:
    """One trie node: children by kind, terminals by method."""

    __slots__ = ("static", "params", "mixed", "terminals", "splats")

    def __init__(self) -> None:
        self.static: Dict[str, "_Node"] = {}
        #: ``[(capture_name, child)]`` — wildcard edges for pure params.
        self.params: List[Tuple[str, "_Node"]] = []
        #: ``[(segment_regex, child)]`` — mixed static/capture segments.
        self.mixed: List[Tuple["re.Pattern[str]", "_Node"]] = []
        #: method → ``(order, route)`` for routes ending exactly here.
        self.terminals: Dict[str, Tuple[int, Any]] = {}
        #: method → ``(order, route)`` for ``/*`` routes mounted here.
        self.splats: Dict[str, Tuple[int, Any]] = {}


class TrieRouter:
    """A compiled route table; ``match`` reproduces the seed linear scan."""

    __slots__ = ("_root", "_size")

    def __init__(self) -> None:
        self._root = _Node()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # -- construction ------------------------------------------------------

    def add(self, method: str, pattern: str, route: Any, order: int) -> None:
        """Insert *route* (matched under *method*/*pattern*) at *order*.

        *order* is the registration index; overlapping patterns resolve to
        the lowest order, which is the seed's first-match-wins rule.
        """
        segments, has_splat = parse_pattern(pattern)
        node = self._root
        for kind, payload in segments:
            if kind == STATIC:
                child = node.static.get(payload)
                if child is None:
                    child = node.static[payload] = _Node()
            elif kind == PARAM:
                child = None
                for name, existing in node.params:
                    if name == payload:
                        child = existing
                        break
                if child is None:
                    child = _Node()
                    node.params.append((payload, child))
            else:  # MIXED
                child = None
                for regex, existing in node.mixed:
                    if regex.pattern == payload.pattern:
                        child = existing
                        break
                if child is None:
                    child = _Node()
                    node.mixed.append((payload, child))
            node = child
        terminals = node.splats if has_splat else node.terminals
        existing = terminals.get(method)
        if existing is None or order < existing[0]:
            terminals[method] = (order, route)
        self._size += 1

    # -- matching ----------------------------------------------------------

    def match(self, method: str, path: str) -> Optional[Tuple[Any, Dict[str, str]]]:
        """The first-registered route matching ``method path``, or None.

        Returns ``(route, captures)`` with the same captures the seed
        regex would have produced (splat included only when present).
        """
        if path.startswith("/"):
            segments = path.split("/")[1:]
        elif path == "":
            # Only a root splat ("/*") matches the empty path, exactly as
            # the seed's optional splat group does.
            segments = []
        else:
            return None
        best = self._walk(self._root, segments, 0, {}, method, None)
        if best is None:
            return None
        return best[1], best[2]

    def _walk(
        self,
        node: _Node,
        segments: List[str],
        index: int,
        captures: Dict[str, str],
        method: str,
        best: Optional[Tuple[int, Any, Dict[str, str]]],
    ) -> Optional[Tuple[int, Any, Dict[str, str]]]:
        splat = node.splats.get(method)
        if splat is not None and (best is None or splat[0] < best[0]):
            found = dict(captures)
            if index < len(segments):
                found["splat"] = "/" + "/".join(segments[index:])
            best = (splat[0], splat[1], found)
        if index == len(segments):
            terminal = node.terminals.get(method)
            if terminal is not None and (best is None or terminal[0] < best[0]):
                best = (terminal[0], terminal[1], dict(captures))
            return best
        segment = segments[index]
        child = node.static.get(segment)
        if child is not None:
            best = self._walk(child, segments, index + 1, captures, method, best)
        if segment:  # a param capture needs at least one character ([^/]+)
            for name, child in node.params:
                captures[name] = segment
                best = self._walk(child, segments, index + 1, captures, method, best)
                del captures[name]
        for regex, child in node.mixed:
            found = regex.match(segment)
            if found is not None:
                merged = dict(captures)
                for key, value in found.groupdict().items():
                    if value is not None:
                        merged[key] = value
                best = self._walk(child, segments, index + 1, merged, method, best)
        return best
