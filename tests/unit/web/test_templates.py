"""Unit tests for the ERB-like label-propagating template engine."""

import pytest

from repro.core.labels import LabelSet, conf_label
from repro.taint import LabeledStr, label, labels_of, mark_user_input
from repro.taint.labeled import is_user_tainted
from repro.web.templates import Template, TemplateError, TemplateRegistry, render

PATIENT = conf_label("ecric.org.uk", "patient", "1")
MDT = conf_label("ecric.org.uk", "mdt", "1")


class TestBasicRendering:
    def test_plain_text(self):
        assert render("hello") == "hello"

    def test_expression(self):
        assert render("hello <%= name %>", name="alice") == "hello alice"

    def test_multiple_expressions(self):
        out = render("<%= a %> + <%= b %> = <%= a + b %>", a=2, b=3)
        assert out == "2 + 3 = 5"

    def test_comments_vanish(self):
        assert render("a<%# hidden %>b") == "ab"

    def test_statements(self):
        assert render("<% x = 2 %><%= x * 2 %>") == "4"

    def test_empty_template(self):
        assert render("") == ""

    def test_kwargs_and_context_dict(self):
        assert render("<%= a %><%= b %>", {"a": 1}, b=2) == "12"


class TestControlFlow:
    def test_if_end(self):
        template = Template("<% if flag %>yes<% end %>")
        assert template.render(flag=True) == "yes"
        assert template.render(flag=False) == ""

    def test_if_else(self):
        template = Template("<% if flag %>yes<% else %>no<% end %>")
        assert template.render(flag=False) == "no"

    def test_if_elif_else(self):
        template = Template(
            "<% if n == 1 %>one<% elif n == 2 %>two<% else %>many<% end %>"
        )
        assert template.render(n=1) == "one"
        assert template.render(n=2) == "two"
        assert template.render(n=9) == "many"

    def test_for_loop(self):
        out = render("<% for item in items %><li><%= item %></li><% end %>", items=["a", "b"])
        assert out == "<li>a</li><li>b</li>"

    def test_nested_blocks(self):
        source = (
            "<% for row in rows %><% if row %>[<%= row %>]<% end %><% end %>"
        )
        assert render(source, rows=["a", "", "b"]) == "[a][b]"

    def test_while(self):
        assert render("<% n = 3 %><% while n > 0 %>.<% n -= 1 %><% end %>") == "..."

    def test_unbalanced_end_rejected(self):
        with pytest.raises(TemplateError):
            Template("<% end %>")

    def test_unclosed_block_rejected(self):
        with pytest.raises(TemplateError):
            Template("<% if x %>open")

    def test_orphan_else_rejected(self):
        with pytest.raises(TemplateError):
            Template("<% else %>x<% end %>")


class TestLabelPropagation:
    """§4.4: the rendered page carries every interpolated value's labels."""

    def test_labeled_value_labels_page(self):
        out = render("name: <%= name %>", name=label("alice", PATIENT))
        assert isinstance(out, LabeledStr)
        assert labels_of(out) == LabelSet([PATIENT])

    def test_multiple_labels_union(self):
        out = render(
            "<%= a %>/<%= b %>", a=label("x", PATIENT), b=label("y", MDT)
        )
        assert labels_of(out) == LabelSet([PATIENT, MDT])

    def test_loop_over_labeled_values(self):
        rows = [label("a", PATIENT), label("b", MDT)]
        out = render("<% for row in rows %><%= row %><% end %>", rows=rows)
        assert labels_of(out) == LabelSet([PATIENT, MDT])

    def test_unlabeled_render_is_unlabeled(self):
        assert labels_of(render("plain <%= x %>", x="text")) == LabelSet()

    def test_labels_flow_through_expressions(self):
        out = render("<%= count * 2 %>", count=label(21, MDT))
        assert out == "42"
        assert labels_of(out) == LabelSet([MDT])


class TestEscaping:
    def test_auto_escape(self):
        out = render("<%= payload %>", payload="<script>x</script>")
        assert out == "&lt;script&gt;x&lt;/script&gt;"

    def test_escaping_clears_taint(self):
        out = render("<%= payload %>", payload=mark_user_input("<b>"))
        assert not is_user_tainted(out)
        assert out == "&lt;b&gt;"

    def test_raw_keeps_markup_and_taint(self):
        payload = mark_user_input("<b>bold</b>")
        out = render("<%== payload %>", payload=payload)
        assert out == "<b>bold</b>"
        assert is_user_tainted(out)

    def test_auto_escape_off(self):
        template = Template("<%= markup %>", auto_escape=False)
        assert template.render(markup="<i>x</i>") == "<i>x</i>"

    def test_escape_helper_available(self):
        out = render("<%== escape(payload) %>", payload="<b>")
        assert out == "&lt;b&gt;"


class TestErrors:
    def test_runtime_error_wrapped(self):
        with pytest.raises(TemplateError):
            render("<%= missing_name %>")

    def test_error_message_includes_template_name(self):
        template = Template("<%= nope %>", name="front-page")
        with pytest.raises(TemplateError, match="front-page"):
            template.render()

    def test_compile_is_cached_across_renders(self):
        template = Template("<%= n %>")
        assert template.render(n=1) == "1"
        assert template.render(n=2) == "2"


class TestRegistry:
    def test_compiled_once_per_name(self):
        registry = TemplateRegistry()
        registry.register("page", "<%= n %>")
        assert registry.render("page", n=1) == "1"
        assert registry.get("page") is registry.get("page")
        assert registry.compilations == 1

    def test_reregistering_same_source_keeps_compilation(self):
        registry = TemplateRegistry()
        registry.register("page", "<%= n %>")
        compiled = registry.get("page")
        registry.register("page", "<%= n %>")
        assert registry.get("page") is compiled

    def test_reregistering_new_source_recompiles(self):
        registry = TemplateRegistry()
        registry.register("page", "old <%= n %>")
        assert registry.render("page", n=1) == "old 1"
        registry.register("page", "new <%= n %>")
        assert registry.render("page", n=1) == "new 1"
        assert registry.compilations == 2

    def test_unknown_name_raises(self):
        with pytest.raises(TemplateError, match="unknown template"):
            TemplateRegistry().get("missing")

    def test_contains(self):
        registry = TemplateRegistry()
        registry.register("page", "x")
        assert "page" in registry
        assert "other" not in registry

    def test_labels_propagate_through_registry(self):
        registry = TemplateRegistry()
        registry.register("page", "<%= value %>")
        rendered = registry.render("page", value=label("secret", MDT))
        assert labels_of(rendered) == LabelSet([MDT])


class _Row:
    """A stand-in for a view row: offers ``form(derive)`` over a document."""

    def __init__(self, document):
        self.document = document
        self.forms = {}
        self.derivations = 0

    def form(self, derive):
        if derive not in self.forms:
            self.derivations += 1
            self.forms[derive] = derive(dict(self.document))
        return self.forms[derive]


class TestPartials:
    @staticmethod
    def _registry(row_source="<li><%= item['name'] %></li>", **kwargs):
        registry = TemplateRegistry()
        registry.register("list", "<ul><% for row in rows %><% include('row', row) %><% end %></ul>")
        registry.register("row", row_source, **kwargs)
        return registry

    def test_include_emits_the_partial_once_per_item(self):
        page = self._registry().render("list", rows=[{"name": "a"}, {"name": "b"}])
        assert page == "<ul><li>a</li><li>b</li></ul>"
        assert self._registry().render("list", rows=[]) == "<ul></ul>"

    def test_partial_escapes_once_by_its_own_auto_escape(self):
        rows = [{"name": "<b>&</b>"}]
        assert self._registry().render("list", rows=rows) == "<ul><li>&lt;b&gt;&amp;&lt;/b&gt;</li></ul>"
        raw = self._registry(auto_escape=False)
        assert raw.render("list", rows=rows) == "<ul><li><b>&</b></li></ul>"

    def test_partial_labels_and_taint_join_the_page_fold(self):
        registry = self._registry("<li><%= item['name'] %><%== item['note'] %></li>")
        rows = [
            {"name": label("alice", PATIENT), "note": "ok"},
            {"name": label("bob", MDT), "note": "ok"},
        ]
        page = registry.render("list", rows=rows)
        assert labels_of(page) == LabelSet([PATIENT, MDT])
        assert not is_user_tainted(page)
        rows[1]["note"] = mark_user_input("<script>")
        tainted = registry.render("list", rows=rows)
        assert is_user_tainted(tainted) and "<script>" in tainted

    def test_item_offering_form_is_rendered_once_per_compiled_partial(self):
        registry = self._registry()
        row = _Row({"name": mark_user_input("<i>")})
        first = registry.render("list", rows=[row, row])
        assert first == "<ul><li>&lt;i&gt;</li><li>&lt;i&gt;</li></ul>"
        assert registry.render("list", rows=[row]) == "<ul><li>&lt;i&gt;</li></ul>"
        assert row.derivations == 1 and not is_user_tainted(first)
        (key,) = row.forms
        assert key == registry.get("row").render_item

    def test_reregistering_any_source_retires_every_memoised_fragment(self):
        registry = TemplateRegistry()
        registry.register("list", "<% for row in rows %><% include('row', row) %><% end %>")
        registry.register("row", "[<% include('cell', item) %>]")
        registry.register("cell", "<%= item['name'] %>")
        row = _Row({"name": "a"})
        assert registry.render("list", rows=[row]) == "[a]"
        registry.register("cell", "<%= item['name'].upper() %>")  # included by the memoised one
        assert registry.render("list", rows=[row]) == "[A]"
        registry.register("row", "(<% include('cell', item) %>)")
        assert registry.render("list", rows=[row]) == "(A)"

    def test_include_needs_a_registry_a_known_name_and_a_document(self):
        with pytest.raises(TemplateError, match="outside a TemplateRegistry"):
            Template("<% include('row', 1) %>").render()
        registry = TemplateRegistry()
        registry.register("list", "<% include('missing', 1) %>")
        with pytest.raises(TemplateError, match="unknown template 'missing'"):
            registry.render("list")

        class NoDocument:
            def form(self, derive):
                return None

        with pytest.raises(TemplateError, match="has no document"):
            self._registry().render("list", rows=[NoDocument()])
