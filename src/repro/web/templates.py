"""An ERB-like template engine with label propagation.

The MDT frontend uses ERB for embedding Ruby in web pages (paper §5.1);
this engine reproduces the syntax and — crucially — keeps the §4.4
guarantee: the rendered page carries the combined labels of every value
interpolated into it, so the middleware's response check sees the page's
true confidentiality.

Syntax::

    <h1>Patients of MDT <%= mdt_id %></h1>
    <% for patient in patients %>
      <li><%= patient["name"] %></li>
    <% end %>
    <%# comments vanish %>
    <%== raw_html %>

* ``<%= expr %>`` interpolates with HTML escaping (which also clears the
  user-input taint — the XSS defence);
* ``<%== expr %>`` interpolates raw, keeping any taint (the middleware
  will then reject the page if tainted user input got this far);
* ``<% statement %>`` is control flow; blocks close with ``<% end %>``
  as in ERB (``if``/``elif``/``else``/``for``/``while``);
* ``<% include("name", item) %>`` emits another registered template — a
  *partial*, ERB's ``render partial:`` — once for *item*, which the
  partial sees as its one variable ``item``. The partial escapes by its
  own ``auto_escape`` and its labelled output joins the page's label
  fold as it stands, never escaped a second time. When *item* offers
  ``form(derive)`` (a document-store view row), the partial sees the
  row's document and its output is kept on the stored revision: rendered
  once per (compiled partial, revision), replayed until either changes.

Templates are application code and therefore trusted — the same trust the
paper places in ERB templates.
"""

from __future__ import annotations

import re
import threading
from types import CodeType, FunctionType
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.exceptions import SafeWebError
from repro.taint.labeled import combine_sources
from repro.taint.sanitize import html_escape
from repro.taint.string import LabeledStr, ensure_labeled_str

_TAG_RE = re.compile(r"<%(.*?)%>", re.DOTALL)
_BLOCK_KEYWORDS = ("if ", "for ", "while ", "with ")
_CONTINUATION_KEYWORDS = ("elif ", "else", "except", "finally")


class TemplateError(SafeWebError):
    """A template failed to compile or render."""


def _global_names(code: CodeType) -> Iterator[str]:
    """Every global name *code* or a code object nested in it refers to."""
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _global_names(const)


def _raw(value: Any) -> Any:
    """What ``<%== %>`` emits: strings (labeled or plain) as they are —
    the final label fold reads them directly — and anything else through
    :func:`ensure_labeled_str`, which fixes its taint semantics at the
    point of stringification."""
    return value if isinstance(value, str) else ensure_labeled_str(value)


class Template:
    """A compiled template."""

    def __init__(self, source: str, name: str = "<template>", auto_escape: bool = True):
        self.source = source
        self.name = name
        self.auto_escape = auto_escape
        #: Where ``include`` resolves partial names: the registry that
        #: compiled this template (``None`` for a stand-alone one).
        self.registry: Optional["TemplateRegistry"] = None
        module = compile(self._translate(), f"safeweb-template:{name}", "exec")
        # The module's one code constant is the body of ``__render__``.
        # Each render binds it to that render's namespace directly, so
        # the ``def`` itself never runs.
        self._body = next(const for const in module.co_consts if isinstance(const, CodeType))
        self._emitters = (html_escape if auto_escape else ensure_labeled_str, _raw)
        #: Whether any statement mentions ``include``: a leaf partial,
        #: rendered once per row, skips building one per render.
        self._includes = "include" in _global_names(self._body)

    # -- compilation --------------------------------------------------------

    def _translate(self) -> str:
        lines: List[str] = ["def __render__(__emit__, __expr__, __raw__):"]
        indent = 1

        def emit_line(code: str) -> None:
            lines.append("    " * indent + code)

        position = 0
        body_emitted = False
        for match in _TAG_RE.finditer(self.source):
            text = self.source[position : match.start()]
            if text:
                emit_line(f"__emit__({text!r})")
                body_emitted = True
            position = match.end()
            tag = match.group(1).strip()
            if not tag or tag.startswith("#"):
                continue
            if tag.startswith("=="):
                emit_line(f"__emit__(__raw__(({tag[2:].strip()})))")
                body_emitted = True
            elif tag.startswith("="):
                emit_line(f"__emit__(__expr__(({tag[1:].strip()})))")
                body_emitted = True
            elif tag == "end":
                indent -= 1
                if indent < 1:
                    raise TemplateError(f"{self.name}: unbalanced <% end %>")
            elif tag.startswith(_CONTINUATION_KEYWORDS):
                indent -= 1
                if indent < 1:
                    raise TemplateError(f"{self.name}: {tag!r} outside a block")
                emit_line(tag if tag.endswith(":") else tag + ":")
                indent += 1
            elif tag.startswith(_BLOCK_KEYWORDS):
                emit_line(tag if tag.endswith(":") else tag + ":")
                indent += 1
            else:
                emit_line(tag)
                body_emitted = True
        tail = self.source[position:]
        if tail:
            emit_line(f"__emit__({tail!r})")
            body_emitted = True
        if indent != 1:
            raise TemplateError(f"{self.name}: unclosed block (missing <% end %>)")
        if not body_emitted:
            emit_line("pass")
        return "\n".join(lines)

    # -- rendering -----------------------------------------------------------

    def render(self, context: Dict[str, Any] | None = None, **kwargs: Any) -> LabeledStr:
        """Render with *context* variables; returns a labeled string."""
        namespace: Dict[str, Any] = dict(context or {})
        namespace.update(kwargs)
        return self._run(namespace)

    def render_item(self, item: Any) -> LabeledStr:
        """Render as a partial: *item* is the template's one variable."""
        return self._run({"item": item})

    def _run(self, namespace: Dict[str, Any]) -> LabeledStr:
        parts: List[Any] = []
        namespace["escape"] = html_escape
        if self._includes:
            namespace["include"] = self._includer(parts)
        try:
            FunctionType(self._body, namespace)(parts.append, *self._emitters)
        except Exception as error:
            raise TemplateError(f"{self.name}: render failed: {error!r}") from error

        # Every part is a str by construction (literal text, an emitter's
        # LabeledStr, a partial's fragment): str.join reads them directly.
        labels, taint = combine_sources(*parts)
        return LabeledStr("".join(parts), labels, taint)

    def _includer(self, parts: List[Any]) -> Callable[[str, Any], None]:
        """The ``include`` of one render, emitting into its *parts*."""
        registry = self.registry
        #: Partial name -> its compiled ``render_item``, resolved once
        #: per outer render (not once per row, through the registry lock).
        resolved: Dict[str, Callable[[Any], LabeledStr]] = {}

        def include(name: str, item: Any) -> None:
            render_item = resolved.get(name)
            if render_item is None:
                if registry is None:
                    raise TemplateError(f"include({name!r}) outside a TemplateRegistry")
                render_item = resolved[name] = registry.get(name).render_item
            form = getattr(item, "form", None)
            # The bound method keys the memo by the compiled Template
            # object: a re-registered source is a new object, so no
            # fragment outlives its template — or, kept on the stored
            # revision, the data it was rendered from.
            fragment = render_item(item) if form is None else form(render_item)
            if fragment is None:
                raise TemplateError(f"include({name!r}): {item!r} has no document")
            parts.append(fragment)

        return include


def render(source: str, context: Dict[str, Any] | None = None, **kwargs: Any) -> LabeledStr:
    """One-shot compile-and-render convenience."""
    return Template(source).render(context, **kwargs)


class TemplateRegistry:
    """Named template sources, compiled once and cached by name.

    The portal registers its page sources at import time and resolves
    them through :meth:`get` per request: the first request compiles,
    every later one reuses the compiled :class:`Template`. Re-registering
    a name with different source drops *every* compilation (used by
    tests and by anything hot-swapping page layouts): a template that
    includes the changed one must become a new object too, because
    fragments memoised on stored revisions are keyed by it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sources: Dict[str, Tuple[str, bool]] = {}
        self._compiled: Dict[str, Template] = {}
        self.compilations = 0

    def register(self, name: str, source: str, auto_escape: bool = True) -> None:
        with self._lock:
            if self._sources.get(name) == (source, auto_escape):
                return
            self._sources[name] = (source, auto_escape)
            self._compiled.clear()

    def get(self, name: str) -> Template:
        with self._lock:
            template = self._compiled.get(name)
            if template is not None:
                return template
            try:
                source, auto_escape = self._sources[name]
            except KeyError:
                raise TemplateError(f"unknown template {name!r}") from None
            template = Template(source, name=name, auto_escape=auto_escape)
            template.registry = self
            self._compiled[name] = template
            self.compilations += 1
            return template

    def render(self, name: str, context: Dict[str, Any] | None = None, **kwargs: Any) -> LabeledStr:
        return self.get(name).render(context, **kwargs)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._sources
