"""Fixture-driven positive/negative tests for the syntactic IFC rules."""

from analysis.framework import analyze_source


def rules_of(source: str, rel: str = "snippet.py"):
    return [finding.rule for finding in analyze_source(source, rel=rel)]


class TestLabelInternals:
    def test_flags_mutating_labels_attribute(self):
        assert "ifc-label-internals" in rules_of(
            "def f(ls):\n    ls._labels = frozenset()\n"
        )

    def test_flags_private_constructors(self):
        assert "ifc-label-internals" in rules_of(
            "def f(frozen):\n    return LabelSet._from_frozen(frozen)\n"
        )

    def test_core_labels_itself_is_exempt(self):
        source = "def f(ls):\n    return ls._labels\n"
        assert "ifc-label-internals" not in rules_of(source, rel="repro/core/labels.py")

    def test_public_constructors_are_fine(self):
        assert rules_of(
            "def f():\n    return LabelSet([conf_label('a', 'b')])\n"
        ) == []


class TestJailIo:
    UNIT = (
        "class Exporter(Unit):\n"
        "    def setup(self):\n"
        "        self.subscribe('/report', self.on_report)\n"
        "    def on_report(self, event):\n"
        "        {body}\n"
    )

    def test_flags_open_in_handler(self):
        source = self.UNIT.format(body="open('/tmp/x', 'a').write('x')")
        assert "ifc-jail-io" in rules_of(source)

    def test_flags_io_in_helper_called_from_handler(self):
        source = (
            "class Exporter(Unit):\n"
            "    def on_report(self, event):\n"
            "        self._spool(event)\n"
            "    def _spool(self, event):\n"
            "        import socket\n"
            "        socket.create_connection(('h', 1))\n"
        )
        assert "ifc-jail-io" in rules_of(source)

    def test_store_access_in_handler_is_fine(self):
        source = self.UNIT.format(body="self.store.put({'_id': 'x'})")
        assert "ifc-jail-io" not in rules_of(source)

    def test_open_outside_units_is_fine(self):
        assert "ifc-jail-io" not in rules_of("def f():\n    open('/tmp/x')\n")


class TestSqlConcat:
    def test_flags_concatenation(self):
        assert "ifc-sql-concat" in rules_of(
            "def f(term):\n"
            "    q = \"SELECT name FROM users WHERE name = '\" + term + \"'\"\n"
        )

    def test_flags_fstring(self):
        assert "ifc-sql-concat" in rules_of(
            'def f(term):\n    q = f"DELETE FROM users WHERE id = {term}"\n'
        )

    def test_flags_percent_format(self):
        assert "ifc-sql-concat" in rules_of(
            'def f(term):\n    q = "INSERT INTO t VALUES (%s)" % term\n'
        )

    def test_sql_quoted_parts_are_fine(self):
        assert "ifc-sql-concat" not in rules_of(
            "def f(term):\n"
            "    q = \"SELECT name FROM users WHERE name = \" + sql_quote(term)\n"
        )

    def test_constant_sql_is_fine(self):
        assert "ifc-sql-concat" not in rules_of(
            'def f():\n    q = "SELECT name FROM users" + " WHERE id = ?"\n'
        )


class TestRouteHookBypass:
    def test_flags_public_paths_mutation(self):
        assert "ifc-route-hook-bypass" in rules_of(
            "def f(mw):\n    mw._public_paths.add('/debug')\n"
        )

    def test_flags_handler_swap(self):
        assert "ifc-route-hook-bypass" in rules_of(
            "def f(route, h):\n    route.handler = h\n"
        )

    def test_flags_call_sites_of_bypassing_helpers(self):
        source = (
            "def _make_public(mw, path):\n"
            "    mw._public_paths.add(path)\n"
            "def install(mw):\n"
            "    _make_public(mw, '/debug')\n"
        )
        findings = analyze_source(source)
        lines = [f.line for f in findings if f.rule == "ifc-route-hook-bypass"]
        assert 2 in lines  # the primitive
        assert 4 in lines  # the call site

    def test_the_framework_modules_are_exempt(self):
        source = "def f(mw):\n    mw._public_paths.add('/login')\n"
        assert rules_of(source, rel="repro/web/middleware.py") == []


class TestChecksDisabled:
    def test_flags_keyword_false(self):
        assert "ifc-checks-disabled" in rules_of(
            "def f():\n    build(check_labels=False)\n"
        )

    def test_flags_config_dict(self):
        assert "ifc-checks-disabled" in rules_of(
            "CONFIG = {'label_events': False}\n"
        )

    def test_true_and_variables_are_fine(self):
        assert rules_of(
            "def f(protected):\n"
            "    build(check_labels=True)\n"
            "    build(csrf_protect=protected)\n"
        ) == []

    def test_tests_tree_is_exempt(self):
        source = "def f():\n    build(check_labels=False)\n"
        assert rules_of(source, rel="tests/unit/test_x.py") == []


class TestLabelDrop:
    def test_flags_remove_all(self):
        assert "ifc-label-drop" in rules_of(
            "def f(self):\n    self.publish('/t', {}, remove_all=True)\n"
        )

    def test_flags_explicit_remove_list(self):
        assert "ifc-label-drop" in rules_of(
            "def f(self, label):\n    self.publish('/t', {}, remove=[label])\n"
        )

    def test_plain_publish_is_fine(self):
        assert "ifc-label-drop" not in rules_of(
            "def f(self):\n    self.publish('/t', {'k': 1})\n"
        )


class TestUnfilteredRead:
    def test_flags_keyless_view_in_handler(self):
        assert "ifc-unfiltered-read" in rules_of(
            "def records(request, db):\n"
            "    return db.view('records/by_mid', include_docs=True)\n"
        )

    def test_flags_all_docs_in_handler(self):
        assert "ifc-unfiltered-read" in rules_of(
            "def summary(request, db):\n    return db.all_docs()\n"
        )

    def test_keyed_view_is_fine(self):
        assert "ifc-unfiltered-read" not in rules_of(
            "def records(request, db):\n"
            "    return db.view('records/by_mid', key=str(request.user.mdt_id))\n"
        )

    def test_clearance_filtered_view_is_fine(self):
        assert "ifc-unfiltered-read" not in rules_of(
            "def records(request, db, clearance):\n"
            "    return db.view('records/by_mid', clearance=clearance)\n"
        )

    def test_keys_is_not_a_view_filter(self):
        # Database.view takes no keys= parameter: writing one raises
        # TypeError and must not silence the finding.
        assert "ifc-unfiltered-read" in rules_of(
            "def records(request, db):\n"
            "    return db.view('records/by_mid', keys=[request.user.mdt_id])\n"
        )

    def test_views_outside_handlers_are_fine(self):
        assert "ifc-unfiltered-read" not in rules_of(
            "def reindex(db):\n    return db.view('records/by_mid')\n"
        )


class TestIdentityOverride:
    def test_flags_param_or_identity(self):
        assert "taint-identity-override" in rules_of(
            "def front(request):\n"
            "    mid = request.params.get('mdt', '') or request.user.mdt_id\n"
        )

    def test_flags_conditional_expression(self):
        assert "taint-identity-override" in rules_of(
            "def front(request):\n"
            "    mid = request.params['mdt'] if 'mdt' in request.params "
            "else request.user.mdt_id\n"
        )

    def test_identity_only_is_fine(self):
        assert "taint-identity-override" not in rules_of(
            "def front(request):\n    mid = request.user.mdt_id or 0\n"
        )
